"""Independent reference values for the benchmark's correctness checks.

Nothing here imports simplexleb.  Lattices are enumerated in exact rational
arithmetic: a float dilation entry is the dyadic rational it stores, so the
floors and fractional parts of L_d(k') = n_d (1 - sum_j k_j / n_j) are exact.
Kernel values on a grid come from the closed-form per-x_d slice weights

    D:          sum_{j=0}^{[L]} e^{i j x_d}   (geometric sum)
    S:          (e^{i L x_d} - 1) / (i x_d)   (L at x_d = 0)
    Fcomposite: {L} e^{i L x_d}
    R:          w_D - w_S + w_Fcomposite      (exact, no nu-series)

followed by one numpy FFT over the first d-1 axes per x_d node.  The golden
fractional parts {k phi} come from integer square roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Nodes per FFT batch when a grid is synthesized slice by slice.
_BATCH_NODES = 1 << 22


def modes(n):
    """The (d-1)-lattice points k' (int array, shape (P', d-1)) and the exact
    L_d(k') as Fractions, in lexicographic order."""
    q = [Fraction(v) for v in n]
    level = [((), Fraction(0))]           # (point, sum_j k_j / n_j)
    for qj in q[:-1]:
        level = [(p + (k,), used + Fraction(k) / qj)
                 for p, used in level
                 for k in range(math.floor(qj * (1 - used)) + 1)]
    points = np.array([p for p, _ in level], dtype=np.int64)
    points = points.reshape(len(level), len(q) - 1)
    return points, [q[-1] * (1 - used) for _, used in level]


def lattice_count(n) -> int:
    """Exact number of integer points k >= 0 with sum_j k_j / n_j <= 1."""
    _, lam = modes(n)
    return sum(math.floor(v) + 1 for v in lam)


def extents(n) -> tuple:
    """Per-axis extent (max k_j) + 1 of the full lattice."""
    points, lam = modes(n)
    head = tuple(int(c) + 1 for c in points.max(axis=0)) if points.size else ()
    return head + (max(math.floor(v) for v in lam) + 1,)


def slice_weights(kind: str, lam, x: np.ndarray) -> np.ndarray:
    """Weights of every mode k' at every x_d node, shape (len(x), P')."""
    L = np.array([float(v) for v in lam])
    floor = np.array([math.floor(v) for v in lam], dtype=float)
    frac = np.array([float(v - math.floor(v)) for v in lam])
    x = np.asarray(x, dtype=float)[:, None]
    zero = x == 0.0
    xs = np.where(zero, 1.0, x)
    e = np.exp(1j * L * x)
    w_d = w_s = w_f = 0.0
    if kind in ("D", "R"):
        m = floor + 1.0
        half = 0.5 * xs
        w_d = np.where(zero, m,
                       np.exp(1j * (m - 1.0) * half) * np.sin(m * half)
                       / np.sin(half))
    if kind in ("S", "R"):
        w_s = np.where(zero, L, (e - 1.0) / (1j * xs))
    if kind in ("Fcomposite", "R"):
        w_f = frac * e
    if kind == "D":
        return w_d
    if kind == "S":
        return w_s
    if kind == "Fcomposite":
        return w_f
    if kind == "R":
        return w_d - w_s + w_f
    raise ValueError(f"unknown kernel {kind!r}")


def grid_norm(kind: str, n, M) -> float:
    """Riemann sum (2 pi)^d / prod M * sum_t |f(x_t)| on the nodes
    x_t = -pi + 2 pi t / M_j, the plain L1 norm's quadrature at grid M."""
    d = len(n)
    M = tuple(int(m) for m in M)
    if len(M) != d or d < 2:
        raise ValueError("grid and dilation vector must both have d >= 2 axes")
    points, lam = modes(n)
    m_prime = M[:-1]
    if np.any(points.max(axis=0) >= np.array(m_prime)):
        raise ValueError(f"grid {M} is smaller than the lattice box")
    size = math.prod(m_prime)
    flat = np.ravel_multi_index(tuple(points.T), m_prime)
    # Node origin at -pi: e^{i k (-pi)} = (-1)^k per axis.
    sign = 1.0 - 2.0 * (points.sum(axis=1) % 2)
    xd = -np.pi + 2.0 * np.pi * np.arange(M[-1]) / M[-1]
    batch = max(1, _BATCH_NODES // size)
    total = 0.0
    for start in range(0, M[-1], batch):
        w = slice_weights(kind, lam, xd[start:start + batch]) * sign
        buf = np.zeros((w.shape[0], size), dtype=np.complex128)
        buf[:, flat] = w
        buf = buf.reshape((w.shape[0],) + m_prime)
        vals = np.fft.ifftn(buf, axes=tuple(range(1, d))) * size
        total += float(np.abs(vals).sum())
    return (2.0 * np.pi) ** d * total / math.prod(M)


def r_tail_bound(n, M, nu_max: int) -> float:
    """Bound on |norm(R truncated at nu_max) - norm(R)| at grid M.

    Each of the P' modes loses at most 2 |x_d| / (pi^2 nu_max) per node
    (the per-mode tail bound of the nu-series), so the Riemann sum moves by
    at most (2 pi)^d P' 2 mean_t |x_d(t)| / (pi^2 nu_max).
    """
    points, _ = modes(n)
    xd = -np.pi + 2.0 * np.pi * np.arange(M[-1]) / M[-1]
    per_node = 2.0 * points.shape[0] * float(np.abs(xd).mean()) \
        / (np.pi ** 2 * nu_max)
    return (2.0 * np.pi) ** len(n) * per_node


def golden_fractional_parts(n: int, bits: int = 80) -> np.ndarray:
    """{k phi} for k = 0..n, phi = (1 + sqrt 5) / 2, accurate to 2^-bits.

    [k phi] = (k + isqrt(5 k^2)) // 2 exactly, and k sqrt 5 is taken in
    fixed point with ``bits`` fractional bits.
    """
    out = np.empty(n + 1)
    one = 1 << bits
    for k in range(n + 1):
        fl = (k + math.isqrt(5 * k * k)) // 2
        fixed = k * one + math.isqrt(5 * k * k << (2 * bits)) - 2 * fl * one
        out[k] = fixed / (2 * one)
    return out


def _smooth_len(target: int) -> int:
    """Smallest 5-smooth integer >= target."""
    best = 1 << max(0, (target - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            v = p35
            while v < target:
                v *= 2
            best = min(best, v)
            p35 *= 3
        p5 *= 5
    return best


def oversampled_norm_1d(coef: np.ndarray, factor: int = 64) -> float:
    """int_{-pi}^{pi} |sum_k c_k e^{i k x}| dx on a grid of at least
    factor * len(coef) nodes (the 1-D study's I_n at near-exact quadrature)."""
    m = _smooth_len(factor * len(coef))
    vals = np.fft.ifft(np.asarray(coef, dtype=np.complex128), n=m) * m
    return 2.0 * np.pi * float(np.abs(vals).sum()) / m


def fibonacci_upto(limit: int) -> set:
    """Fibonacci numbers 2..limit: the convergent denominators of phi."""
    out, a, b = set(), 1, 2
    while b <= limit:
        out.add(b)
        a, b = b, a + b
    return out


def main_term(n) -> float:
    """The paper's leading term for ascending n with n_1 > 3:
    (2^{d+1} / pi) (1 + sum_j ln n_1 / ln n_j) prod_j ln n_j, which is
    2^{d+1} (d + 1) / pi ln^d n for isotropic n."""
    logs = [math.log(v) for v in n]
    return (2.0 ** (len(n) + 1) / math.pi) \
        * (1.0 + sum(logs[0] / lj for lj in logs)) * math.prod(logs)
