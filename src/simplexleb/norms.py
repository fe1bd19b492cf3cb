"""Refinement-controlled L1 quadrature of the simplex kernels.

All theorem-facing values are PLAIN torus integrals ||f||_(s) = int_{T^s} |f|;
the CLI reports the (2 pi)^{-s} normalization alongside.  Quadrature is the
Riemann sum (2 pi / M)^s sum_t |f(x_t)| on successively doubled grids.  This
module owns that refinement: :func:`first_grid` gives the first grid of the
modes' box K, the least 11-smooth M_j >= rho K_j, after refusing a tol or
rho that is not finite and positive, a grid over the memory budget and
levels whose nodes exceed the work bound MAX_WORK;
:func:`_refine` doubles it at most MAX_DOUBLINGS times, until the relative
change of the sum is at most tol.  The grid 2M holds M as its even nodes,
so each later level adds to the running sums of |f| and |f|^2 only the
nodes M lacks: the odd x_s nodes on all of 2M', and the even ones on the
copies of M' shifted by half a cell along the x' axes that doubled.

One engine (:func:`slice_batches`) synthesizes every grid in batches of
nodes of the last axis x_s, each transformed over x' in one reused buffer.
It takes the x' modes and one of three slice-weight sources:

* closed forms (:func:`.kernels._grid_weights`) for the d-kernels D, S,
  Fcomposite and R (d >= 2), with phases the products of a small table a
  batch and phase and a few np.exp rows a block;
* one inverse FFT along the last axis of a group of coefficient fields of
  dimension s >= 2 (F for d >= 3, the twisted differences of the correction
  functional), whose odd and even nodes a later level takes;
* for a 1-D field (I_n, D for d = 1, F and the twisted differences for
  d = 2), its fold (Markel's FFT pruning): with K modes on the first grid
  M0, F is the least divisor of M0 with F >= K, fixed for all levels, and
  node t = q + r u of the grid M = r F is node u of the x_s slice q, an
  F-point transform of the modes k with weights c_k e^{2 pi i k q / M}.
  The u axis never doubles, so a later level is the odd slices q alone.

A source makes a writer of a batch's slice weights, and each transform
block writes its own rows, cut into runs of a field's slices by
:func:`.kernels._runs`, into the buffer as :func:`slice_batches` says.  No
budget sizes a batch, so none reaches a sum; it sizes the field groups and
the blocks, of at most a quarter of min(_CHUNK_BYTES, budget) of values,
and no array holds a batch's weights.  Beside these a batch holds |v| a
block at a time in a scratch of _CHUNK_BYTES / 32 bytes, a closed form's
phase tables, and while a block is written at most one more P'-wide array
of half its rows.  The transforms are pruned: x' axis j runs only on the
columns where the axes after it still hold modes, since the zero columns
transform to zeros.

Its inputs carry a leading field axis: a stack of fields on one box, such
as the twisted differences of a run of mu terms of the correction
functional, is refined together.  Each level synthesizes the fields still
live in shared batches and transforms; each field keeps its own Parseval
checks and level values, and leaves at its first converged level, so its
norm is the one it has alone.  A d-kernel or a field is a stack of one.

A Hermitian f (real Fourier weights: f(-x) = conj f(x)) has the same |f|
on the x_s slices t and M_s - t, so only t = 0..[M_s/2] are synthesized;
t = 0 (x_s = -pi, unpaired: S, Fcomposite and R are not periodic in x_s)
and t = M_s/2 count once, the others twice.  On the x_s nodes of M_s
shifted by half a cell, t pairs with M_s - 1 - t, and with itself where
2t + 1 = M_s.  A folded 1-D field's slice q pairs with r - q, the same
rule with M_s = r.  The d-kernels and all fields with real weights
qualify; the twisted differences do not.

Every grid is validated through the exact discrete Parseval identity

    (1 / prod M_j) sum_t |f(x_t)|^2 = sum_k |c_k|^2

before its L1 value is accepted: per computed x_s slice (each slice is a
trigonometric polynomial in x', or in u for a folded field), and over the
whole grid, with the slice multiplicities above, for coefficient fields and
for D, whose right-hand side is the lattice point count P.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from . import kernels
from .core import (
    DEFAULT_BUDGET_BYTES,
    CoefficientField,
    DilationVector,
    SimplexLattice,
    build_lattice,
    check_budget,
    fractional_coefficients,
    indicator_coefficients,
    simplex_volume,
)
from .kernels import (
    _CHUNK_BYTES,
    DEFAULT_NU_MAX,
    _grid_weights,
    _origin_twist,
    _r_series,
    _runs,
    reduce_torus,
    slice_weight_matrix,
)

__all__ = [
    "NormResult",
    "NormConvergenceError",
    "FrakFValue",
    "IdentityReport",
    "l1_norm",
    "l1_norm_field",
    "first_grid",
    "check_grid",
    "verify_identity",
    "identity_residuals",
    "frak_f",
]

DEFAULT_TOL = 1e-3
DEFAULT_RHO = 4.0
MAX_DOUBLINGS = 4
PARSEVAL_RTOL = 1e-8
# the work bound: grid nodes of a norm's levels, or of one frak_f's fields
MAX_WORK = 1 << 48
# N x P' arrays identity_residuals holds at once (tracemalloc: 5.0-5.1)
_IDENTITY_ARRAYS = 6
_BATCH_SLICES = 4096  # x_s slices of an engine batch at most, any budget

class NormConvergenceError(RuntimeError):
    """Quadrature failed to converge within the doubling budget."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class NormResult:
    """An L1 norm with its grid, refinement history and error estimate."""

    value: float
    grid: tuple | None
    history: tuple
    error_estimate: float
    parseval: float | None = None


@dataclass(frozen=True)
class FrakFValue:
    """Value of the correction functional with its error estimate."""

    value: float
    error_estimate: float


@dataclass(frozen=True)
class IdentityReport:
    nu_max: int
    residuals: np.ndarray = field(repr=False)
    slack: float
    passed: bool
    median_residual: float
    worst: tuple


# ----------------------------------------------------------------- synthesis

def first_grid(K: tuple, rho: float, tol: float, budget_bytes: int,
               field: bool = True) -> tuple:
    """The first grid of the modes' box K: M_j is the least 11-smooth
    length >= rho K_j.  Refuses a tol or rho that is not finite and
    positive, a grid check_grid refuses, whose budget it checks on
    ceil(rho K) before any length is sought, and levels over MAX_WORK
    nodes.  A 1-D field is checked as its fold holds it (a slice)."""
    for name, v in (("tol", tol), ("rho", rho)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v}")
    if not K:  # a 0-dimensional field is its one value
        return ()
    # M >= ceil(rho K): its bytes are checked first (K clipped to it, so
    # the extents wait for M), capped just past the budget, so a capped axis
    # is refused, with a lower bound as its figure, before _fast_len runs;
    # an uncapped fold holds at least K weights a slice
    cap = max(budget_bytes, 0) + 1
    low = tuple(math.ceil(min(rho * e, cap)) for e in K)
    folded = field and len(K) == 1
    if folded and low[0] < cap:
        low = K
    check_grid(tuple(map(min, K, low)), low, budget_bytes, field)
    M = tuple(_fast_len(math.ceil(min(rho * e, 2.0**63))) for e in K)
    if folded:
        check_grid((K[0], 1), (_fold(K[0], M[0]), 1), budget_bytes)
    else:
        check_grid(K, M, budget_bytes, field)
    nodes = _last_level(M)
    if nodes > MAX_WORK:
        raise ValueError(f"the grids {M} to {2**MAX_DOUBLINGS} x {M} hold "
                         f"{nodes} nodes, over the work bound 2^48")
    return M


def _last_level(M: tuple) -> int:
    """The nodes of M doubled MAX_DOUBLINGS times, which hold every level's."""
    return math.prod(M) << len(M) * MAX_DOUBLINGS


def _fast_len(n: int) -> int:
    """The least 11-smooth integer >= n < 2^63 (scipy.fft.next_fast_len)."""
    if n >= 1 << 63:
        raise ValueError(f"a grid length >= {n} does not fit int64 (< 2^63)")
    lengths = _smooth_lengths(1 << max(n - 1, 0).bit_length())
    return lengths[bisect_left(lengths, n)]


@cache
def _smooth_lengths(top: int) -> list:
    """The sorted 11-smooth integers <= top: lengths numpy's FFT does fast."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        more = []
        for m in lengths:
            while m <= top:
                more.append(m)
                m *= p
        lengths = more
    return sorted(lengths)


def check_grid(K: tuple, M: tuple, budget_bytes: int, field: bool = True):
    """Refuse the grid M for the modes of the box K: M must hold K on every
    axis of a coefficient field and on the x' axes of a d-kernel, and one
    x_s slice (prod M' complex values) and a field's slice weights
    (prod K' * M_s) must fit.  The sources check every level's grid, and
    first_grid the first one from n alone, before anything is built."""
    for m, e in zip(M if field else M[:-1], K):
        if m < e:
            raise ValueError(f"grid size {m} below box extent {e}")
    check_budget(16 * math.prod(M[:-1]), budget_bytes, "one x_s slice")
    if field:
        check_budget(16 * math.prod(K[:-1]) * M[-1], budget_bytes,
                     "slice weights")


def _fold(k: int, m: int) -> int:
    """F, the fold length of k <= m modes on the grid m: its least divisor
    >= k (m itself if k > m, which check_grid refuses)."""
    return min((f for d in range(1, math.isqrt(m) + 1) if m % d == 0
                for f in (d, m // d) if f >= k), default=m)


def slice_batches(points: np.ndarray, weights, passes,
                  budget_bytes: int = DEFAULT_BUDGET_BYTES, fields: int = 1):
    """Synthesize a stack of ``fields`` trigonometric polynomials with the
    x' modes ``points`` (P', s-1), x_s slice by slice, in ``passes``: each
    (M', shift, nodes) asks for the x_s nodes ``nodes`` (a range) on the x'
    grid M', its nodes moved half a cell on the axes where shift is 1.

    A batch holds _CHUNK_BYTES of values on the largest M', at most
    _BATCH_SLICES slices, and a slice of _CHUNK_BYTES / 8 or more alone,
    whose FFT dwarfs a batch's fixed cost.  It sets a closed form's phase
    groups and the order of a norm's sums, so the budget sizes only the
    field group (whole fields while two fit a batch and min(_CHUNK_BYTES,
    budget_bytes), else slices of one; each runs every pass) and the
    blocks: a batch's G B (field, slice) rows, field by field, go through
    one transform buffer in blocks of at most a quarter of min(_CHUNK_BYTES,
    budget_bytes) of values on their M', in whole rows, at least one; a
    batch that fits one block is one.
    ``weights(fs)(ns)``, made once a batch, writes the fields ``fs`` at the
    x_s nodes ``ns``: ``write(rows, out)`` a block's rows ``rows`` (a slice
    of range(G B)) into ``out`` (len(rows), P'), the block's first P'
    columns of the buffer where the modes are 0..P'-1 of one axis, else a
    P'-wide array scattered into the buffer.  Besides what a writer holds,
    these are the only arrays here that grow with a batch.  Yields ``(fs,
    p, ns, w_sq, rows, v)`` a block: w_sq (G, B), sum |w|^2 a slice, whole
    at the batch's last block, and v (len(rows),) + M', pass p's inverse
    FFT of the block's rows, f / prod M', valid until the next block."""
    rests = [math.prod(m_prime) for m_prime, *_ in passes]
    top, rows = max(rests), max(len(nodes) for *_, nodes in passes)
    chunk = min(_CHUNK_BYTES, budget_bytes)
    batch = min(_BATCH_SLICES, _CHUNK_BYTES // (top * 16)) \
        if top * 128 < _CHUNK_BYTES else 1
    group = max(1, min(batch, chunk // (top * 16)) // rows)
    size = min(group, fields) * min(batch, rows)
    steps = [min(size, max(1, chunk // (64 * r))) for r in rests]
    buf = np.empty(max(map(math.prod, zip(steps, rests))), complex)
    extents = (points.max(axis=0) + 1).tolist()
    modes, flip = len(points), extents == [len(points)]
    scattered = None if flip else np.empty(max(steps) * modes, complex)
    # the origin twist (-1)^{sum k}, times e^{i pi sum_j shift_j k_j / M'_j}
    origin = 1.0 if flip else _origin_twist(points.sum(axis=1))
    for f0 in range(0, fields, group):
        fs = slice(f0, min(f0 + group, fields))
        group_weights = weights(fs)
        for p, (m_prime, shift, nodes) in enumerate(passes):
            rest, step = rests[p], steps[p]
            cols = None if flip else \
                np.ravel_multi_index(tuple(points.T), m_prime)
            twist = origin * np.exp(1j * np.pi * (
                points @ np.divide(shift, m_prime))) if any(shift) else origin
            for start in range(0, len(nodes), batch):
                ns = nodes[start:start + batch]
                write = group_weights(ns)
                w_sq = np.zeros((fs.stop - fs.start, len(ns)))
                for r in range(0, w_sq.size, step):
                    block = slice(r, min(r + step, w_sq.size))
                    v = buf[:(block.stop - r) * rest].reshape(-1, rest)
                    w = v[:, :modes] if flip else \
                        scattered[:len(v) * modes].reshape(-1, modes)
                    write(block, w)
                    re_im = w.view(float)
                    w_sq.reshape(-1)[block] = np.einsum("ij,ij->i", re_im,
                                                        re_im)
                    if any(shift) or not flip:
                        w *= twist
                    if flip:  # (-1)^k on one x' axis of the modes 0..P'-1
                        np.negative(w[:, 1::2], out=w[:, 1::2])
                        v[:, modes:] = 0.0
                    else:
                        v[:] = 0.0
                        v[:, cols] = w
                    v = v.reshape((-1,) + m_prime)
                    # x' axis j, on the columns where later axes hold modes
                    for j in range(len(m_prime)):
                        part = v[(slice(None),) * (j + 2)
                                 + tuple(map(slice, extents[j + 1:]))]
                        np.fft.ifft(part, axis=j + 1, out=part)
                    yield fs, p, ns, w_sq, block, v
                del write  # its tables go before the next batch makes its own


def _kernel_source(kernel: str, lat: SimplexLattice, M: tuple,
                   budget_bytes: int = DEFAULT_BUDGET_BYTES):
    """(points, weights, hermitian) of a d-kernel on the grid M."""
    check_grid(lat.extents, M, budget_bytes, field=False)
    return lat.points, lambda fs: lambda ns: _grid_weights(
        kernel, lat.lambda_parts, ns, M[-1]), True


def _field_source(weights: np.ndarray, M: tuple, budget_bytes: int):
    """(points, weights, hermitian) of the fields ``weights`` (H,) + K, of
    dimension s >= 2, on the grid M.  A group's slice weights come from one
    inverse FFT along the last axis, zero-padded to M_s, with the origin
    twist (-1)^{k_s}: for real (Hermitian) weights a real one, of the nodes
    0..[M_s/2] alone."""
    K = weights.shape[1:]
    check_grid(K, M, budget_bytes)
    k_prime, k_last = K[:-1], K[-1]
    hermitian = not weights.imag.any()
    transform = np.fft.ihfft if hermitian else np.fft.ifft

    def group_weights(fs):
        part = weights[fs].reshape(-1, math.prod(k_prime), k_last)
        part = (part.real if hermitian else part).transpose(0, 2, 1) * \
            _origin_twist(np.arange(k_last))[:, None]
        w = transform(part, n=M[-1], axis=1)
        w *= M[-1]

        def batch(ns):
            def write(rows, out):
                for fields, s, o in _runs(rows, len(ns)):
                    t = ns[s]
                    np.copyto(out[o].reshape(-1, len(t), out.shape[1]),
                              w[fields, t.start:t.stop:t.step])
            return write
        return batch
    # points: every x' mode of the box K', in the order of the reshape above
    return np.argwhere(np.ones(k_prime, dtype=bool)), group_weights, hermitian


def _folded_source(weights: np.ndarray, M: tuple, budget_bytes: int):
    """(points, weights, hermitian) of the 1-D fields ``weights`` (H, K) on
    the fold M = (F, r) of the grid m = r F: node t = q + r u is node u of
    the x_s slice q, whose x' modes are the k, with the slice weights
    c_k e^{2 pi i k q / m}; the origin twist (-1)^k is the engine's.  Real
    (Hermitian) fields are synthesized on the slices q <= r / 2 alone."""
    K = weights.shape[1]
    # one slice holds F values and K weights
    check_grid((K, 1), (M[0], 1), budget_bytes)
    hermitian, m = not weights.imag.any(), math.prod(M)

    def group_weights(fs):
        c = (weights[fs].real if hermitian else weights[fs])[:, None]

        def batch(ns):
            def write(rows, out):
                # phases in the part's first field, times later c, then its own
                for fields, s, o in _runs(rows, len(ns)):
                    b = s.stop - s.start
                    first = out[o][:b]
                    _fold_phases(K, m, ns[s], first)
                    np.multiply(c[fields.start + 1:fields.stop], first,
                                out=out[o][b:].reshape(-1, b, K))
                    np.multiply(c[fields.start], first, out=first)
            return write
        return batch
    return np.arange(K)[:, None], group_weights, hermitian


def _fold_phases(K: int, m: int, ns: range, out: np.ndarray):
    """Write e^{2 pi i k q / m} for k < K at the nodes q of ns into ``out``
    (len(ns), K): with k = a Q + b, the product of the np.exp tables of a Q
    and of b, about sqrt(K) columns each, of arguments reduced mod m in
    integers; the a < K // Q block, then the last a's columns."""
    step = max(1, math.isqrt(K))
    whole = K // step
    q = np.arange(ns.start, ns.stop, ns.step)[:, None]

    def table(k):
        return np.exp(2j * np.pi / m * (q * k % m))
    high, low = table(np.arange(0, K, step)), table(np.arange(step))
    np.multiply(high[:, :whole, None], low[:, None, :],
                out=out[:, :whole * step].reshape(len(q), whole, step))
    np.multiply(high[:, whole:], low[:, :K - whole * step],
                out=out[:, whole * step:])


def _passes(M: tuple, half: tuple | None = None) -> list:
    """The engine's passes (M', shift, x_s nodes) over the grid M, or over
    the nodes its half grid ``half`` lacks: (a) the odd x_s nodes on all of
    M', (b) the even ones on the copies of half' shifted by half a cell
    along the x' axes that doubled (none for a folded 1-D field)."""
    m_prime, m = M[:-1], M[-1]
    if half is None:
        return [(m_prime, (0,) * len(m_prime), range(m))]
    zero, *shifts = itertools.product(
        *[(0, 1) if k != h else (0,) for k, h in zip(m_prime, half)])
    return [(m_prime, zero, range(1, m, 2))] + [
        (half[:-1], shift, range(0, m, 2)) for shift in shifts]


def _slice_abs_sums(points, weights, hermitian, M, budget_bytes, name, live,
                    half=None):
    """sum_t |f(x_t)| and sum_t |f(x_t)|^2 of the fields ``live`` (indices,
    named ``name(i)``) over the grid M, or over the nodes its half grid
    ``half`` lacks, from the slice engine (for a Hermitian f the x_s nodes
    t <= M_s / 2), with the exact Parseval identity checked on every
    computed x_s slice.  |v| goes a block at a time to one reused scratch
    of at most _CHUNK_BYTES / 32 bytes: _CHUNK_BYTES / 256 values in whole
    x_s slices, or in parts of one.  numpy sums each row of a block alone,
    in the same order whatever the block's rows, so only the power sum
    |v|^2, which the checks alone read, depends on the blocks.  A batch's
    per-slice sums gather its blocks; the multiplicities weight them."""
    m, passes = M[-1], _passes(M, half)
    if hermitian:
        passes = [(mp, shift, ns[:(m // 2 - ns.start) // ns.step + 1])
                  for mp, shift, ns in passes]
    sum_abs, sum_sq = np.zeros((2, len(live)))
    scratch = np.empty(0)
    for fs, p, ns, w_sq, rows, v in slice_batches(points, weights, passes,
                                                  budget_bytes, len(live)):
        rest = math.prod(passes[p][0])
        if not rows.start:
            sums = np.zeros((2, w_sq.size))
        # |v| in blocks of whole x_s slices, or of parts of one
        v, part = v.reshape(-1, rest), sums[:, rows]
        step = max(1, _CHUNK_BYTES // 256 // rest)
        cols = min(rest, _CHUNK_BYTES // 256)
        if len(scratch) < min(step, len(v)) * cols:
            scratch = np.empty(min(step, len(v)) * cols)
        for r, c in itertools.product(range(0, len(v), step),
                                      range(0, rest, cols)):
            block = v[r:r + step, c:c + cols]
            av = np.abs(block, out=scratch[:block.size].reshape(block.shape))
            part[:, r:r + step] += av.sum(1), np.einsum("ij,ij->i", av, av)
        if rows.stop < w_sq.size:
            continue
        # (1 / prod M') sum_x' |f|^2 per slice, with |f| = prod M' |v|,
        # against sum |w|^2
        slice_abs, power = sums.reshape((2,) + w_sq.shape)
        _check_parseval(rest * power, w_sq, name, live[fs], "x_s slice")
        # Hermitian: each node counts twice but the self-paired ones
        mult = 1.0 + hermitian * (np.arange(ns.start, ns.stop, ns.step)
                                  * 2 % m != 0)
        sum_abs[fs] += rest * (slice_abs * mult).sum(axis=1)
        sum_sq[fs] += rest * rest * (power * mult).sum(axis=1)
    return sum_abs, sum_sq


def _check_parseval(power, coef_sq, name, live, where="grid"):
    """Grid power (1 / prod M) sum |f|^2 against sum |c|^2, elementwise, in
    arrays whose rows are the fields ``live``; ``name(i)`` names field i."""
    bad = (np.abs(power - coef_sq) > PARSEVAL_RTOL * coef_sq) & (coef_sq > 0.0)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise AssertionError(f"Parseval mismatch on {where} for "
                             f"{name(live[i[0]])}: {power[i]} vs {coef_sq[i]}")


# -------------------------------------------------------------- field norms

def _refine(abs_sums, M0: tuple, power, tol: float, name) -> tuple:
    """(values, level): values[l] holds each field's Riemann sum on M0
    doubled l times (NaN after it left), level the first l <= MAX_DOUBLINGS
    whose relative change is at most tol.  Each level adds to the running
    sums ``abs_sums(M, live, half)``: sum |f| and sum |f|^2 of the fields
    ``live`` (indices) on the grid M, or on the nodes its half grid ``half``
    lacks (None on level 0).  ``power``, sum |c|^2 a field, checks the grid
    powers if given (else the stack is one field); ``name(i)`` names i."""
    live = np.arange(1 if power is None else len(power))
    values = np.full((MAX_DOUBLINGS + 1, len(live)), np.nan)
    level, half, M, sums = np.full(len(live), MAX_DOUBLINGS), None, M0, 0.0
    for l in range(MAX_DOUBLINGS + 1):
        sums = sums + np.array(abs_sums(M, live, half))
        if power is not None:
            _check_parseval(sums[1] / math.prod(M), power[live], name, live)
        v = values[l, live] = (2.0 * np.pi) ** len(M) * sums[0] / math.prod(M)
        if l:
            conv = np.abs(v - values[l - 1, live]) <= \
                tol * np.maximum(np.abs(v), 1e-9)
            level[live[conv]] = l
            live, sums = live[~conv], sums[:, ~conv]
            if not len(live):
                return values, level
        half, M = M, tuple(2 * m for m in M)
    raise NormConvergenceError(
        f"no convergence for {name(live[0])} after {MAX_DOUBLINGS} "
        "doublings", _result(M0, values, level, power, live[0]).history)


def _result(M0: tuple, values, level, power, i) -> NormResult:
    """The NormResult of field i of a stack refined from the grid M0."""
    l = int(level[i])
    history = tuple((tuple(m << k for m in M0) or None, v)
                    for k, v in enumerate(values[:l + 1, i].tolist()))
    return NormResult(history[-1][1], history[-1][0], history,
                      abs(history[-1][1] - history[l - 1][1]) if l else 0.0,
                      None if power is None else float(power[i]))


def l1_norm_field(fld: CoefficientField, tol: float = DEFAULT_TOL,
                  rho: float = DEFAULT_RHO,
                  budget_bytes: int = DEFAULT_BUDGET_BYTES) -> NormResult:
    """Plain L1 norm of a coefficient field: a stack of one field."""
    return _result(*_field_norms(fld.weights[None], lambda i: fld.tag, tol,
                                 rho, budget_bytes), 0)


def _field_norms(weights: np.ndarray, name, tol, rho, budget_bytes) -> tuple:
    """_result's arguments but i for the stack ``weights`` (H,) + K of fields,
    each refined and checked as if alone.  A 0-dimensional field's norm is
    np.hypot of its parts: Python's abs, which np.abs is not on AVX-512."""
    M0 = first_grid(weights.shape[1:], rho, tol, budget_bytes)
    if not M0:
        v = np.hypot(weights.real, weights.imag)
        return M0, v[None], np.zeros(len(v), int), v * v
    source, fold = _field_source, lambda M: M
    if len(M0) == 1:  # the engine runs on the fold (F, M / F), F fixed
        F = _fold(weights.shape[1], M0[0])
        source, fold = _folded_source, lambda M: M and (F, M[0] // F)
    flat = weights.reshape(len(weights), -1)
    power = np.vecdot(flat, flat).real  # the sums np.vdot gives, a field each
    return M0, *_refine(
        # no copy while every field is live: it would add to the peak memory
        lambda M, live, half: _slice_abs_sums(
            *source(weights[live] if len(live) < len(weights) else weights,
                    fold(M), budget_bytes),
            fold(M), budget_bytes, name, live, fold(half)),
        M0, power, tol, name), power


def l1_norm(kernel: str, n: DilationVector, tol: float = DEFAULT_TOL,
            rho: float = DEFAULT_RHO,
            budget_bytes: int = DEFAULT_BUDGET_BYTES) -> NormResult:
    """Plain L1 norm of D, F, S, Fcomposite or R."""
    if kernel not in ("D", "F", "S", "Fcomposite", "R"):
        raise ValueError(f"unknown kernel {kernel!r}")
    tag = f"{kernel}:{n.entries}"
    field = kernel == "F" or (kernel == "D" and n.d == 1)
    if not field and n.d < 2:
        raise ValueError(f"{kernel} requires d >= 2")
    # the modes' box is exactly [n_j] + 1 on each axis, since L_j(0) = n_j;
    # F lives on the first d - 1 axes (for d = 1 it is a constant)
    s = n.d - 1 if kernel == "F" else n.d
    K = tuple(int(v) + 1 for v in n.entries[:s])
    M0 = first_grid(K, rho, tol, budget_bytes, field)
    if field:
        fld = fractional_coefficients(n, budget_bytes) if kernel == "F" \
            else indicator_coefficients(build_lattice(n, 1, budget_bytes))
        return _result(*_field_norms(fld.weights[None], lambda i: tag, tol,
                                     rho, budget_bytes), 0)
    if kernel == "D" and M0[-1] < K[-1]:  # grid Parseval needs M_s >= K_s
        raise ValueError(f"grid size {M0[-1]} below box extent {K[-1]}")
    lat = build_lattice(n, n.d - 1, budget_bytes)
    # D's grid power is the lattice count P = sum_k' ([L_d(k')] + 1)
    power = np.array([float((lat.lambda_parts.floor + 1).sum())]) \
        if kernel == "D" else None
    return _result(M0, *_refine(
        lambda M, live, half: _slice_abs_sums(
            *_kernel_source(kernel, lat, M, budget_bytes), M, budget_bytes,
            lambda i: tag, live, half),
        M0, power, tol, lambda i: tag), power, 0)


# --------------------------------------------------------- exact identity

def _check_identity_budget(n: DilationVector, num_points: int,
                           budget_bytes: int, modes=None):
    """Refuse d < 2, and identity_residuals' _IDENTITY_ARRAYS arrays of
    N x P' complex values over budget; until the lattice is built, P' is
    bounded from below by the simplex volume of n' and by 1 (the origin)."""
    if n.d < 2:
        raise ValueError("the decomposition requires d >= 2")
    if modes is None:
        modes = max(1.0, simplex_volume(n.entries[:-1]))
    check_budget(_IDENTITY_ARRAYS * 16 * num_points * modes, budget_bytes,
                 "phases with weights")


def identity_residuals(n: DilationVector, points: np.ndarray, nu_max: int,
                       budget_bytes: int = DEFAULT_BUDGET_BYTES):
    """|D - (S - e^{i n_d x_d} F(x' - x_d m) + R)|, tail bounds and P.

    The identity is exact; the residual is pure nu-series truncation plus
    roundoff, so it must not exceed the returned tail bound (up to roundoff
    proportional to the full lattice count P, returned third).  The
    _IDENTITY_ARRAYS arrays of N x P' complex values held at once must fit
    ``budget_bytes``: with P' bounded from below before the lattice is
    built, and with the actual P' after.
    """
    pts = reduce_torus(np.asarray(points, dtype=float))
    _check_identity_budget(n, len(pts), budget_bytes)
    lat = build_lattice(n, n.d - 1, budget_bytes)
    _check_identity_budget(n, len(pts), budget_bytes, len(lat.points))
    parts = lat.lambda_parts
    xd = pts[:, -1]
    ph = np.exp(1j * (pts[:, :-1] @ lat.points.T))   # (N, L)
    d_vals, s_vals, f_vals = (
        np.sum(ph * slice_weight_matrix(kind, parts, xd), axis=1)
        for kind in ("D", "S", "Fcomposite"))
    r_vals = _r_series(parts.value, ph, xd, nu_max, budget_bytes)
    rhs = s_vals - f_vals + r_vals
    residuals = np.abs(d_vals - rhs)
    tails = 2.0 * lat.points.shape[0] * np.abs(xd) / (np.pi**2 * nu_max)
    # P = sum_k' ([L_d(k')] + 1), the full lattice count, exact past 2^63
    return residuals, tails, sum(parts.floor.tolist()) + len(parts.floor)


def verify_identity(n: DilationVector, num_points: int = 100,
                    nu_max: int = DEFAULT_NU_MAX, seed: int = 0,
                    budget_bytes: int = DEFAULT_BUDGET_BYTES
                    ) -> IdentityReport:
    """Check the exact decomposition at seeded pseudo-random torus points."""
    if nu_max < 1 or num_points < 1:
        raise ValueError("verify needs nu_max >= 1 and num_points >= 1")
    # refused from n and N alone, before the N points are drawn
    _check_identity_budget(n, num_points, budget_bytes)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-np.pi, np.pi, size=(num_points, n.d))
    residuals, tails, p_full = identity_residuals(n, points, nu_max,
                                                  budget_bytes)
    slack = 1e-9 * p_full
    ok = residuals <= tails + slack
    iworst = int(np.argmax(residuals - tails))
    return IdentityReport(
        nu_max=nu_max, residuals=residuals, slack=slack,
        passed=bool(np.all(ok)),
        median_residual=float(np.median(residuals)),
        worst=(tuple(points[iworst]), float(residuals[iworst]),
               float(tails[iworst])),
    )


# ----------------------------------------------------- correction functional

def frak_f(k: int, n: DilationVector, t_nodes: int = 64,
           tol: float = DEFAULT_TOL, rho: float = DEFAULT_RHO,
           budget_bytes: int = DEFAULT_BUDGET_BYTES) -> FrakFValue:
    """The correction functional aggregating F norms and shifted F norms.

    The mu-sum runs over 1 <= |mu| <= [n_{k-l}/n_1] (the theorem's range;
    an exact floor) of int_{-pi}^{pi} (||delta_h F|| - 2 ||F||) dt, h = n_1
    (t + 2 pi mu), F the field of tilde + (n_1,): the trapezoid on 2 t_nodes
    - 1 nodes, minus that on every other node the error estimate.  F's
    weights are real (also for d = 0, F = {n_1}), so delta_{-h} F is the
    conjugate of delta_h F at -x: the same Riemann sum on every grid, whose
    nodes are symmetric under x -> -x, and t -> -t maps the t nodes of -mu
    onto those of mu.  So each |mu| takes the +mu integral, weighted 2 / |mu|.

    The fields of a run of mu terms are one stack, refined together.  A
    field costs the nodes of its last level, at least 2^9 (a 0-dimensional
    one takes 10-30 nodes' time; a lower floor lets more mu terms through
    MAX_WORK), and holds 32 bytes a mode (its weights and apply_delta's
    multiplier) and 64 more (its values, level and power).  Before any norm,
    MAX_WORK bounds all fields' cost, and the budget one mu term's bytes.
    """
    if k < 2 or k > n.d:
        raise ValueError(f"need 2 <= k <= d={n.d}")
    if t_nodes < 2:
        raise ValueError("t_nodes must be >= 2")
    ent = n.entries[:k]
    if not DilationVector(ent).sorted_ascending:
        raise ValueError("entries must be ascending")
    n1, fields = ent[0], 2 * t_nodes - 1
    # level l: its mu terms 1..[n_{k-l} / n_1], each twisting the field F
    # of tilde + (n1,), on the box [tilde] + 1 and its first grid M0
    levels = [(Fraction(ent[k - l - 1]) // Fraction(n1), tilde, box,
               first_grid(box, rho, tol, budget_bytes)) for l in range(k - 1)
              for tilde in [(n1,) * l + ent[1:k - l - 1]]
              for box in [tuple(int(v) + 1 for v in tilde)]]
    work = fields * sum(mu * max(1 << 9, _last_level(M0))
                        for mu, *_, M0 in levels)
    if work > MAX_WORK:
        raise ValueError(f"the mu-sum costs >= 2^{work.bit_length() - 1} nodes"
                         " (mu terms x (2 t_nodes - 1) fields x max(2^9, "
                         "last-level nodes)), over the work bound 2^48")
    sizes = [fields * (32 * math.prod(box) + 64) for *_, box, _ in levels]
    check_budget(max(sizes), budget_bytes,
                 "one mu term of 2 t_nodes - 1 twisted differences")
    # a stack and the engine's buffer of its fields (16 bytes a node of the
    # first grid, all live) take min(_CHUNK_BYTES, budget) / 2; copies the rest
    share = min(_CHUNK_BYTES, budget_bytes) // 2
    kw = dict(tol=tol, rho=rho, budget_bytes=budget_bytes)

    def f_norm(entries):
        return l1_norm("F", DilationVector(entries), **kw).value

    fine_t = np.linspace(-np.pi, np.pi, fields)
    total, err = 0.0, 0.0
    for l, ((mu_max, tilde, box, M0), size) in enumerate(zip(levels, sizes)):
        total += f_norm((n1,) * l + ent[:k - l]) - \
            f_norm((n1,) * l + ent[:k - l - 1] + (n1,))
        fld = fractional_coefficients(DilationVector(tilde + (n1,)),
                                      budget_bytes)
        base = l1_norm_field(fld, **kw).value
        run = max(1, share // (size + 16 * fields * math.prod(M0)))
        for mu0 in range(1, mu_max + 1, run):
            mu = np.arange(mu0, min(mu0 + run, mu_max + 1))
            h = n1 * (fine_t + 2.0 * np.pi * mu[:, None])
            stack = kernels.apply_delta(fld, h, 1.0 / np.array(tilde)).weights
            _, values, level, _ = _field_norms(
                stack.reshape((h.size,) + box),
                lambda i: f"delta({h.flat[i]})|{fld.tag}", **kw)
            vals = np.choose(level, values).reshape(h.shape) - 2.0 * base
            fine = np.trapezoid(vals, fine_t, axis=1).tolist()
            coarse = np.trapezoid(vals[:, ::2], fine_t[::2], axis=1).tolist()
            for m, f, c in zip(mu.tolist(), fine, coarse):
                total += 2.0 * f / m
                err += 2.0 * abs(f - c) / m
    return FrakFValue(2.0 * np.pi * total, 2.0 * np.pi * err)
