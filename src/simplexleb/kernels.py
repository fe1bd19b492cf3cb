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
(:func:`slice_weight_matrix`).  R's weight is w_D - w_S + w_Fcomposite,
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

Tail bound derivation (truncation of the nu-series in R): for |x_d| <= pi and
nu >= 1, |2 pi nu +- x_d| >= 2 pi nu - pi >= pi nu, and each difference term
is bounded by 2 sup|D'| <= 2 P', so the discarded +-nu pair is at most
2 * 2 P' |x_d| / (2 pi nu (2 pi nu - pi)) <= 2 P' |x_d| / (pi^2 nu^2).
Summing over nu > nu_max with sum 1/nu^2 <= 1/nu_max gives

    tail(nu_max) = 2 P' |x_d| / (pi^2 nu_max).
"""

from __future__ import annotations

import math
from functools import partial

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
# (a smaller budget shrinks them).  Batches of 8 MiB ran D(256, 256) and
# S(48.5, 3000.7) as fast as 128 MiB ones at a quarter of the peak memory.
_CHUNK_BYTES = 1 << 23


def reduce_torus(x) -> np.ndarray:
    """Reduce coordinates mod 2 pi into (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return np.pi - (np.pi - x) % (2.0 * np.pi)


def _geometric_sum(m, t, phase=None, zero=None, out=None):
    """sum_{j=0}^{m-1} e^{i j t} = e^{i (m-1) t / 2} sin(m t / 2) / sin(t / 2).

    ``m`` integer array, ``t`` scalar or broadcastable array.  At t == 0
    (mod 2 pi) the value is m.  Given ``phase(mu, out)`` = e^{i mu t} for t
    in [-pi, pi), both phases come from it into ``out`` (the sines into one
    real table), and ``zero`` marks t = 0.
    """
    m = np.asarray(m, dtype=float)
    half = 0.5 * (t if phase else reduce_torus(t))
    denom = np.sin(half)
    if phase:
        top = phase(0.5 * m, out=out).imag.copy()
        num = phase(0.5 * (m - 1.0), out=out)
    else:
        zero = np.abs(denom) <= 1e-300
        num, top = np.exp(1j * (m - 1.0) * half), np.asarray(np.sin(m * half))
    top /= np.where(zero, 1.0, denom)
    np.copyto(top, m, where=zero)
    num *= top
    return num


def _r_series(lam, phases, xd, nu_max, budget) -> np.ndarray:
    """R truncated at nu_max at N points, shape (N,).

    ``lam`` holds L_d(k') (P',), ``phases`` e^{i (k', x')} (N, P') and
    ``xd`` the x_d of each point (N,).  Since e^{i (2 pi nu + x_d) L} =
    e^{i x_d L} e^{2 pi i nu L}, a chunk of nu (min(_CHUNK_BYTES, budget)
    of values in P' + N rows) is a product per block of (P' + N) / 8 >= 2
    points (numpy sums a one-row product in another order); its +-nu terms
    are summed before they are accumulated, which improves cancellation.
    """
    twisted = phases * np.exp(1j * np.outer(xd, lam))
    value = 0.5 * np.sum(twisted + phases, axis=1)
    base = phases.sum(axis=1)[:, None]
    chunk = max(1, min(_CHUNK_BYTES, budget) // (16 * (len(lam) + len(xd))))
    rows = max(2, (len(lam) + len(xd)) // 8)
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
            series[r] += pair.sum(axis=1)
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


def _grid_phases(mu, m: int, t: range, out=None) -> np.ndarray:
    """e^{i mu x_t} at the nodes t of x_t = -pi + 2 pi t / m, shape
    (len(t), len(mu)), into ``out`` if given: with t = t.start + (q a + b)
    t.step, the product of the np.exp tables of a and of b, about
    sqrt(len(t)) rows each."""
    q, step = max(1, math.isqrt(len(t))), t.step
    coarse = -np.pi + 2.0 * np.pi * np.arange(t.start, t.stop, q * step) / m
    fine = 2.0 * np.pi * np.arange(0, q * step, step) / m
    high, low = (np.exp(1j * np.multiply.outer(x, mu)) for x in (coarse, fine))
    out = np.empty((len(t), len(mu)), complex) if out is None else out
    whole = len(t) // q
    np.multiply(high[:whole, None], low,
                out=out[:whole * q].reshape(whole, q, len(mu)))
    np.multiply(high[whole:], low[:len(t) - whole * q], out=out[whole * q:])
    return out


def slice_weight_matrix(kind: str, lam: LambdaParts, xs,
                        m: int | None = None, out=None) -> np.ndarray:
    """Closed-form x_d-slice weights of every mode k', shape (len(xs), P').

    With L = L_d(k') (``lam`` from :attr:`SimplexLattice.lambda_parts`) and
    x = x_d:

        D           sum_{j=0}^{[L]} e^{i j x}   (geometric sum)
        S           (e^{i L x} - 1) / (i x)     (limit branch near x = 0)
        Fcomposite  {L} e^{i L x}
        R           w_D - w_S + w_Fcomposite

    ``xs`` holds the points x (one np.exp per phase), or given ``m`` a
    range of nodes t of x_t = -pi + 2 pi t / m (:func:`_grid_phases`), such
    as the odd t of m = 2 M_s: the grid M_s shifted by half a cell, and
    then written into ``out`` if given; one more array of P' values a node
    is held at a time: the real sines of D and R, then R's second phases.
    """
    if kind not in ("D", "S", "Fcomposite", "R"):
        raise ValueError(f"unknown sliced kernel {kind!r}")
    if m is None:
        xd = np.asarray(xs, dtype=float)[:, None]
        small, grid = np.abs(xd) < SINGULARITY_THRESHOLD, None

        def phase(mu, out=None):
            return np.exp(1j * mu * xd, out=out)
    else:
        # x_t = 0 where 2 t = m, although its float may not be 0.0
        t = np.arange(xs.start, xs.stop, xs.step)[:, None]
        xd, small = -np.pi + 2.0 * np.pi * t / m, 2 * t == m
        phase = grid = partial(_grid_phases, m=m, t=xs)
    if kind in ("D", "R"):
        w = _geometric_sum(lam.floor + 1.0, xd, grid, small, out)
        if kind == "D":
            return w
    e = phase(lam.value, out=None if kind == "R" else out)
    if kind == "Fcomposite":
        return np.multiply(e, lam.frac, out=e)
    if kind == "R":  # w_D + {L} e^{i L x}, then e^{i L x} again for w_S
        w += np.multiply(e, lam.frac, out=e)
        e = phase(lam.value, out=e)
    # w_S in place of e
    e -= 1.0
    e /= 1j * np.where(small, 1.0, xd)
    rows = small[:, 0]
    e[rows] = lam.value + 0.5j * lam.value**2 * xd[rows]
    if kind == "S":
        return e
    return np.subtract(w, e, out=w)
