"""Pointwise and grid evaluation of the simplex kernels.

Kernels (d-dimensional dilation vector n, lattice as in :mod:`.core`):

    D(x)  = sum over the full lattice of e^{i(k, x)}
    F(x') = sum over the (d-1)-lattice of {L_d(k')} e^{i(k', x')}
    S(x)  = sum over the (d-1)-lattice of e^{i(k', x')} (e^{i L_d x_d}-1)/(i x_d)
    R(x)  = D'(x') + (1/2) delta_{n_d x_d} D' - (x_d / 2 pi i) sum_{nu != 0}
            delta_{n_d (2 pi nu + x_d)} D' / (nu (2 pi nu + x_d))

(D' is the kernel of the first d-1 entries.)  The per-mode weight of R is
1/2 (e^{i L x_d} + 1) minus the nu-series; the constant 1 is the unit jump
of the counting measure at xi = 0 (the k_d = 0 term) and the series sign
follows from the Fourier expansion {xi} = 1/2 - sum_{nu != 0}
e^{2 pi i nu xi} / (2 pi i nu).  Both are checked against brute-force
lattice sums in the test suite.

where delta_h is the twisted difference acting on Fourier weights as
c_k -> (e^{i h (1 - sum_j k_j / n_j)} - 1) c_k.  The exact identity

    D(x) = S(x) - e^{i n_d x_d} F(x' - x_d m^(d-1)) + R(x)

holds pointwise; truncating the nu-series of R at nu_max (:func:`_r_series`)
leaves a residual controlled by the tail bound derived below, which
:func:`.norms.identity_residuals` returns with it.

The identity also holds mode by mode in k': on the slice at fixed x_d each
of the four d-dimensional kernels is a trigonometric polynomial in x' whose
weight on mode k' is a closed-form function of L = L_d(k') and x_d
(:func:`slice_weight_matrix` at points, :func:`_grid_weights` a block of
grid nodes at a time).  R's weight is w_D - w_S + w_Fcomposite,
the exact sum of its nu-series, so the norm engine needs no truncation;
the identity check keeps the series as the independent oracle of the
theorem.

Grid synthesis phase bookkeeping: grid nodes are x_t = -pi + 2 pi t / M, so

    f(x_t) = sum_k c_k (-1)^{sum_j k_j} prod_j e^{2 pi i k_j t_j / M_j},

i.e. multiply the zero-padded coefficients by the origin twist
(-1)^{sum_j k_j} (:func:`_origin_twist`) and apply an inverse FFT scaled by
prod M_j (numpy's ifft has the e^{+2 pi i k t/M} kernel and a 1/M factor).
The norm engine twists the x' modes of each slice, and a coefficient field
its last axis; a d-kernel's phases e^{i L x_t} come from :func:`_grid_phases`.
A block of an engine batch's rows is cut into runs of b rows (q phase rows,
or a field's b slices) by one rule, :func:`_runs`.

Tail bound derivation (truncation of the nu-series in R): for |x_d| <= pi and
nu >= 1, |2 pi nu +- x_d| >= 2 pi nu - pi >= pi nu, and each difference term
is bounded by 2 sup|D'| <= 2 P', so the discarded +-nu pair is at most
2 * 2 P' |x_d| / (2 pi nu (2 pi nu - pi)) <= 2 P' |x_d| / (pi^2 nu^2).
Summing over nu > nu_max with sum 1/nu^2 <= 1/nu_max gives

    tail(nu_max) = 2 P' |x_d| / (pi^2 nu_max).
"""

from __future__ import annotations

import math

import numpy as np

from .core import CoefficientField, LambdaParts

__all__ = [
    "reduce_torus",
    "apply_delta",
    "slice_weight_matrix",
    "DEFAULT_NU_MAX",
]

DEFAULT_NU_MAX = 4096

# Below this |x_d| the S-slice weight uses the limit branch
# L + i L^2 x_d / 2 (relative error < 1e-15 there).
SINGULARITY_THRESHOLD = 1e-8

# Most bytes of complex values per batch of grid slices or chunk of nu terms
# (the budget shrinks chunks, not batches).  8 MiB batches ran D(256, 256)
# and S(48.5, 3000.7) as fast as 128 MiB ones at a quarter of the peak memory.
_CHUNK_BYTES = 1 << 23


def reduce_torus(x) -> np.ndarray:
    """Reduce coordinates mod 2 pi into (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return np.pi - (np.pi - x) % (2.0 * np.pi)


def _geometric_sum(m, t, out=None):
    """sum_{j=0}^{m-1} e^{i j t} = e^{i (m-1) t / 2} sin(m t / 2) / sin(t / 2).

    ``m`` integer array, ``t`` scalar or broadcastable array, into ``out``
    if given.  At t == 0 (mod 2 pi) the value is m.
    """
    m = np.asarray(m, dtype=float)
    half = 0.5 * reduce_torus(t)
    denom = np.sin(half)
    zero = np.abs(denom) <= 1e-300
    num, top = np.exp(1j * (m - 1.0) * half), np.asarray(np.sin(m * half))
    top /= np.where(zero, 1.0, denom)
    np.copyto(top, m, where=zero)
    return np.multiply(num, top, out=out)


def _r_series(lam, phases, xd, nu_max, budget) -> np.ndarray:
    """R truncated at nu_max at N points, shape (N,).

    ``lam`` holds L_d(k') (P',), ``phases`` e^{i (k', x')} (N, P') and
    ``xd`` the x_d of each point (N,).  Since e^{i (2 pi nu + x_d) L} =
    e^{i x_d L} e^{2 pi i nu L}, a chunk of nu (min(_CHUNK_BYTES, budget)
    of values in P' + N rows, a multiple of 8 nu, as BLAS forms a product's
    columns past its last whole unroll in another order) is a product per
    block of (P' + N) / 8 >= 2 points (numpy sums a one-row product in
    another order).  Each +-nu pair, summed first for cancellation, is
    added to the point's running sum in nu order (a cumsum seeded with
    it), so neither the chunk nor the budget reaches the series.
    """
    twisted = phases * np.exp(1j * np.outer(xd, lam))
    value = 0.5 * np.sum(twisted + phases, axis=1)
    base = phases.sum(axis=1)[:, None]
    width = len(lam) + len(xd)
    chunk = 8 * max(1, min(_CHUNK_BYTES, budget) // (128 * width))
    rows = max(2, width // 8)
    edges = [*range(0, max(len(xd) - 1, 1), rows), len(xd)]
    series = np.zeros(len(xd), dtype=np.complex128)

    def term(snu, e, r):  # a block's product and its divisor, in place
        diff = twisted[r] @ e
        diff -= base[r]
        divisor = np.add.outer(xd[r], 2.0 * np.pi * snu)
        divisor *= snu
        diff /= divisor
        return diff

    for start in range(1, nu_max + 1, chunk):
        nu = np.arange(start, min(start + chunk, nu_max + 1), dtype=float)
        e = [np.exp(1j * np.outer(lam, 2.0 * np.pi * s)) for s in (nu, -nu)]
        for r in map(slice, edges, edges[1:]):
            pair = term(nu, e[0], r)
            pair += term(-nu, e[1], r)
            pair[:, 0] += series[r]
            series[r] = np.cumsum(pair, axis=1, out=pair)[:, -1]
    return value - xd / (2.0 * np.pi * 1j) * series


def apply_delta(fld: CoefficientField, h, xi) -> CoefficientField:
    """Fourier-side action of the twisted difference: c_k -> (e^{i h (1-(xi,k))}-1) c_k.

    An array h gives a stack of fields, weights h.shape + K, in one broadcast."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (fld.s,):
        raise ValueError(f"xi has shape {xi.shape}, field is {fld.s}-dimensional")
    dot = np.zeros(fld.extents)
    for j, e in enumerate(fld.extents):
        shape = [1] * fld.s
        shape[j] = e
        dot = dot + xi[j] * np.arange(e).reshape(shape)
    h = np.asarray(h, dtype=float)
    mult = np.exp(1j * h.reshape(h.shape + (1,) * fld.s) * (1.0 - dot)) - 1.0
    label = h.item() if h.ndim == 0 else f"{h.size} shifts"
    return CoefficientField(weights=mult * fld.weights,
                            tag=f"delta({label})|{fld.tag}")


def _origin_twist(k_sum) -> np.ndarray:
    """(-1)^{k_sum}: the factor the grid origin -pi gives mode k."""
    return 1.0 - 2.0 * (np.asarray(k_sum) & 1)


def _runs(rows: slice, b: int) -> list:
    """The rows ``rows`` of a sequence of runs of b rows each, in up to
    three parts: the last rows of the first run they reach, whole runs, and
    the first rows of the last run.  Each part is (runs, within, o), slices
    of the runs, of the rows of a run and of ``rows``: out[o] of a block
    holds the part, run by run."""
    n, (f, first) = rows.stop - rows.start, divmod(rows.start, b)
    head = min(-first % b, n)
    (whole, tail), g = divmod(n - head, b), f + (head > 0)
    parts = ((slice(f, f + 1), slice(first, first + head), slice(0, head)),
             (slice(g, g + whole), slice(0, b), slice(head, n - tail)),
             (slice(g + whole, g + whole + 1), slice(0, tail),
              slice(n - tail, n)))
    return [part for part, size in zip(parts, (head, whole, tail)) if size]


def _grid_phases(mu, m: int, t: range):
    """e^{i mu x_t} at the nodes t of x_t = -pi + 2 pi t / m, as a writer
    ``phases(rows, out=None)`` of the rows ``rows`` (a slice of
    range(len(t))), shape (len(rows), len(mu)), into ``out`` if given.
    With t = t.start + (q a + b) t.step, q = isqrt(len(t)), a row is the
    product of the np.exp rows of a and of b: the q rows of b are made here
    once, those of a by each write for its runs (:func:`_runs`) of q rows
    alone, so every row has the same bits whatever the rows written."""
    q, step = max(1, math.isqrt(len(t))), t.step
    coarse = -np.pi + 2.0 * np.pi * np.arange(t.start, t.stop, q * step) / m
    low = np.exp(1j * np.multiply.outer(
        2.0 * np.pi * np.arange(0, q * step, step) / m, mu))

    def phases(rows: slice, out=None) -> np.ndarray:
        out = np.empty((rows.stop - rows.start, len(mu)), complex) \
            if out is None else out
        for groups, b, o in _runs(rows, q):
            high = np.exp(1j * np.multiply.outer(coarse[groups], mu))
            np.multiply(high[:, None], low[b],
                        out=out[o].reshape(len(high), -1, len(mu)))
        return out
    return phases


def slice_weight_matrix(kind: str, lam: LambdaParts, xs) -> np.ndarray:
    """Closed-form x_d-slice weights of every mode k' (P' of them) at the
    points ``xs``, shape (len(xs), P'), one np.exp per phase.

    With L = L_d(k') (``lam`` from :attr:`SimplexLattice.lambda_parts`) and
    x = x_d:

        D           sum_{j=0}^{[L]} e^{i j x}   (geometric sum)
        S           (e^{i L x} - 1) / (i x)     (limit branch near x = 0)
        Fcomposite  {L} e^{i L x}
        R           w_D - w_S + w_Fcomposite

    On grid nodes the engine writes them with :func:`_grid_weights`.
    """
    if kind not in ("D", "S", "Fcomposite", "R"):
        raise ValueError(f"unknown sliced kernel {kind!r}")
    xd = np.asarray(xs, dtype=float)[:, None]
    return _closed_form(kind, lam, xd, np.abs(xd) < SINGULARITY_THRESHOLD,
                        lambda rows, out=None: np.exp(
                            1j * lam.value * xd[rows], out=out),
                        lambda rows, out: _geometric_sum(
                            lam.floor + 1.0, xd[rows], out),
                        slice(0, len(xd)))


def _grid_weights(kind: str, lam: LambdaParts, nodes: range, m: int):
    """slice_weight_matrix's weights at the B nodes t of x_t = -pi + 2 pi t
    / m in ``nodes`` (a range, such as the odd t of m = 2 M_s: the grid M_s
    shifted by half a cell), as a writer ``write(rows, out=None)`` of the
    weights of the nodes nodes[rows] (a slice of range(B)), shape
    (len(rows), P'), into ``out`` if given.  Its phases come from
    :func:`_grid_phases` of the B nodes: a table of about sqrt(B) rows a
    phase, made here once, and a few rows a write, so each weight has the
    same bits whatever the rows."""
    t = np.arange(nodes.start, nodes.stop, nodes.step)[:, None]
    # x_t = 0 where 2 t = m, although its float may not be 0.0
    xd, small = -np.pi + 2.0 * np.pi * t / m, 2 * t == m
    value = None if kind == "D" else _grid_phases(lam.value, m, nodes)
    geometric = None
    if kind in ("D", "R"):
        m_d = lam.floor + 1.0
        top, num = (_grid_phases(mu, m, nodes) for mu in (0.5 * m_d,
                                                          0.5 * (m_d - 1.0)))
        denom = np.where(small, 1.0, np.sin(0.5 * xd))

        def geometric(rows, out):  # _geometric_sum from the tables
            sines = top(rows, out).imag.copy()
            sines /= denom[rows]
            np.copyto(sines, m_d, where=small[rows])
            w = num(rows, out)
            return np.multiply(w, sines, out=w)
    return lambda rows, out=None: _closed_form(kind, lam, xd, small, value,
                                               geometric, rows, out)


def _closed_form(kind, lam, xd, small, phase, geometric, rows, out=None):
    """The weights of the rows ``rows`` (a slice) of the column ``xd`` of
    x_d values, ``small`` marking x_d = 0, into ``out`` if given:
    ``phase(rows, out)`` writes e^{i L x_d} and ``geometric(rows, out)``
    D's geometric sum at the rows ``rows``.  D and R go half the rows at a
    time, so that the real sines and R's second phases hold half of them."""
    if kind in ("S", "Fcomposite"):
        e = phase(rows, out)
        if kind == "S":
            return _s_weights(lam, xd[rows], small[rows], e)
        return np.multiply(e, lam.frac, out=e)
    size = rows.stop - rows.start
    w = np.empty((size, len(lam.value)), complex) if out is None else out
    half = (size + 1) // 2
    second = np.empty((half, w.shape[1]), complex) if kind == "R" else None
    for part in (slice(0, half), slice(half, size)):
        at = slice(rows.start + part.start, rows.start + part.stop)
        weights = geometric(at, w[part])
        if kind == "R":  # w_D + {L} e^{i L x}, then e^{i L x} again for w_S
            e = phase(at, second[:part.stop - part.start])
            weights += np.multiply(e, lam.frac, out=e)
            weights -= _s_weights(lam, xd[at], small[at], phase(at, e))
    return w


def _s_weights(lam, xd, small, e) -> np.ndarray:
    """w_S = (e - 1) / (i x_d) in place of e = e^{i L x_d}, and its limit
    L + i L^2 x_d / 2 where ``small`` marks x_d = 0."""
    e -= 1.0
    e /= 1j * np.where(small, 1.0, xd)
    rows = small[:, 0]
    if rows.any():
        e[rows] = lam.value + 0.5j * lam.value**2 * xd[rows]
    return e
