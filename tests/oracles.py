"""Independent oracles the tests compare the program against.

eval_D, eval_F, eval_S and eval_R evaluate the kernels at one point from
the (d-1)-lattice, R through its nu-series truncated at nu_max with a
rigorous bound on the discarded tail (the derivation is in
simplexleb.kernels); I_n is the plain L1 norm of the 1-D kernel with
weights {alpha k}, k = 0..n, whose study simplexleb.irrational runs;
grid_eval is the dense synthesis of a coefficient field on every node of a
grid at once, the reference for the norm engine's slice-by-slice synthesis,
and axis_nodes the nodes of one grid axis;
s_via_delta is the second closed form of the kernel S, through the twisted
difference of the (d-1)-dimensional kernel; double_integral_ld2 is the
shifted-kernel double integral of the 1-D D, which acceptance criterion 7
compares with 4 pi ||D_n||; t_integral and frak_f_two_sided are the
correction functional with both halves +mu and -mu of its mu-sum computed,
the reference for simplexleb.norms.frak_f, which computes the +mu half
alone; stack_results gives the NormResult of each field of a stack that
simplexleb.norms._field_norms refines together; frak_f_dense is the
correction functional with neither the norm engine nor apply_delta, its
norms dense Riemann sums on fixed grids; r_series_unblocked is the nu-series
of simplexleb.kernels._r_series with each nu chunk's product over all N
points at once, the reference for its blocks of points;
rational_riemann_sum is the Riemann sum of D or F of n = (m, p m / q) on a
grid from their closed forms at a rational slope, with its own geometric
sum and nothing from simplexleb.kernels or simplexleb.norms;
exact_form_parts is the floor and fractional part of an integer linear form
over a denominator in Python integers, the reference for
simplexleb.core._form_parts, and golden_floor the floor of k phi 2^b by an
integer square root.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.fft

from simplexleb.core import (
    DEFAULT_BUDGET_BYTES,
    CoefficientField,
    DilationVector,
    build_lattice,
    fractional_coefficients,
)
from simplexleb.irrational import AlphaSpec, _kernel_norm, fractional_parts
from simplexleb.kernels import (
    _CHUNK_BYTES,
    DEFAULT_NU_MAX,
    _geometric_sum,
    _origin_twist,
    _r_series,
    apply_delta,
    reduce_torus,
    slice_weight_matrix,
)
from simplexleb.norms import (
    DEFAULT_RHO,
    DEFAULT_TOL,
    NormResult,
    _field_norms,
    _refine,
    _result,
    first_grid,
    l1_norm,
    l1_norm_field,
)


def _lattice_with_lambda(n: DilationVector):
    lat = build_lattice(n, n.d - 1)
    return lat.points, lat.lambda_parts


def eval_D(n: DilationVector, x) -> complex:
    """Exact nested lattice sum, innermost axis aggregated geometrically."""
    x = reduce_torus(np.atleast_1d(x))
    if x.shape[-1] != n.d:
        raise ValueError(f"point has {x.shape[-1]} coordinates, kernel needs {n.d}")
    if n.d == 1:
        return complex(_geometric_sum(int(n.entries[0]) + 1, x[0]))
    points, lam = _lattice_with_lambda(n)
    phases = np.exp(1j * (points @ x[:-1]))
    inner = _geometric_sum(lam.floor + 1.0, x[-1])
    return complex(phases @ inner)


def eval_F(n: DilationVector, x_prime) -> complex:
    """Fractional-part-weighted kernel over the (d-1)-lattice."""
    if n.d == 1:
        return complex(n.entries[0] % 1.0)
    x_prime = reduce_torus(np.atleast_1d(x_prime))
    if x_prime.shape[-1] != n.d - 1:
        raise ValueError(f"expected {n.d - 1} coordinates, got {x_prime.shape[-1]}")
    points, lam = _lattice_with_lambda(n)
    return complex(np.exp(1j * (points @ x_prime)) @ lam.frac)


def eval_S(n: DilationVector, x) -> complex:
    """Continuous-spectrum component through its closed-form slice weights."""
    if n.d < 2:
        raise ValueError("S requires d >= 2")
    x = reduce_torus(np.atleast_1d(x))
    points, lam = _lattice_with_lambda(n)
    w = slice_weight_matrix("S", lam, [float(x[-1])])[0]
    return complex(np.exp(1j * (points @ x[:-1])) @ w)


def eval_R(n: DilationVector, x, nu_max: int = DEFAULT_NU_MAX) -> tuple:
    """Truncated correction term and a rigorous bound on the discarded tail.

    Returns (value, tail_bound); the value is the nu-series of
    :func:`_r_series`.
    """
    if n.d < 2:
        raise ValueError("R requires d >= 2")
    if nu_max < 1:
        raise ValueError("nu_max must be >= 1")
    x = reduce_torus(np.atleast_1d(x))
    points, parts = _lattice_with_lambda(n)
    phases = np.exp(1j * (points @ x[:-1]))
    value = complex(_r_series(parts.value, phases[None, :],
                              np.array([x[-1]]), nu_max, _CHUNK_BYTES)[0])
    tail = 2.0 * points.shape[0] * abs(x[-1]) / (np.pi**2 * nu_max)
    return value, tail


def r_series_unblocked(lam, phases, xd, nu_max, budget) -> np.ndarray:
    """The nu-series of _r_series, its chunks of nu as _r_series takes them,
    each one N x chunk product over every point, whose +-nu pairs are added
    to the series one nu at a time."""
    twisted = phases * np.exp(1j * np.outer(xd, lam))
    value = 0.5 * np.sum(twisted + phases, axis=1)
    base = phases.sum(axis=1)[:, None]
    chunk = 8 * max(1, min(_CHUNK_BYTES, budget)
                    // (128 * (len(lam) + len(xd))))
    series = np.zeros(len(xd), dtype=np.complex128)

    def term(snu):
        diff = twisted @ np.exp(1j * np.outer(lam, 2.0 * np.pi * snu))
        diff -= base
        divisor = np.add.outer(xd, 2.0 * np.pi * snu)
        divisor *= snu
        diff /= divisor
        return diff

    for start in range(1, nu_max + 1, chunk):
        nu = np.arange(start, min(start + chunk, nu_max + 1), dtype=float)
        pair = term(nu)
        pair += term(-nu)
        for column in pair.T:
            series += column
    return value - xd / (2.0 * np.pi * 1j) * series


def I_n(alpha: AlphaSpec, n: int, tol: float = DEFAULT_TOL,
        rho: float = DEFAULT_RHO) -> NormResult:
    """Plain L1 norm of the 1-D kernel with weights {alpha k}, k = 0..n."""
    return _kernel_norm(alpha, fractional_parts(alpha, n), tol, rho)


def axis_nodes(m: int) -> np.ndarray:
    """The nodes x_t = -pi + 2 pi t / m, t = 0..m-1, of a grid axis."""
    return -np.pi + 2.0 * np.pi * np.arange(m) / m


@dataclass(frozen=True)
class GridField:
    """Kernel values sampled on the grid M, with provenance."""

    M: tuple
    values: np.ndarray = field(repr=False)
    tag: str = ""


def grid_eval(fld: CoefficientField, M: tuple) -> GridField:
    """Exact synthesis on every node of the grid M: one inverse FFT over all
    axes of the zero-padded, origin-twisted coefficients, scaled by
    prod M_j."""
    if len(M) != fld.s:
        raise ValueError("grid and field dimensions differ")
    for m, e in zip(M, fld.extents):
        if m < e:
            raise ValueError(f"grid size {m} below box extent {e}")
    padded = np.zeros(M, dtype=np.complex128)
    box = tuple(slice(0, e) for e in fld.extents)
    padded[box] = fld.weights * _origin_twist(sum(np.ogrid[box]))
    vals = scipy.fft.ifftn(padded, overwrite_x=True)
    vals *= math.prod(M)
    return GridField(M=M, values=vals, tag=f"grid|{fld.tag}")


def s_via_delta(n: DilationVector, x) -> complex:
    """S(x) = delta_{h, 1/n'} D'(x') / (i x_d) with h = n_d x_d, x_d != 0:
    the difference acts on the (d-1)-lattice's weights as
    e^{i h L_d(k') / n_d} - 1."""
    x = reduce_torus(np.atleast_1d(x))
    lat = build_lattice(n, n.d - 1)
    h = n.entries[-1] * x[-1]
    phases = np.exp(1j * (lat.points @ x[:-1]))
    delta = phases @ (np.exp(1j * lat.lambda_parts.value
                             * (h / n.entries[-1])) - 1.0)
    return complex(delta / (1j * x[-1]))


def double_integral_ld2(n: float, alpha: float, beta: float,
                        tol: float = DEFAULT_TOL,
                        rho: float = DEFAULT_RHO) -> float:
    """Tensor-grid quadrature of int int |e^{i(a y + b)} D_n(x - y) - D_n(x)|.

    On the uniform grid both x_t - y_u and x_t live on the same circulant set
    of nodes, so a single table of 1-D kernel values serves every pair.
    """
    if n <= 3:
        raise ValueError("requires n > 3")
    m_modes = int(n) + 1

    def abs_sums(M, live, half):
        m = M[0]
        circ = _geometric_sum(m_modes, 2.0 * np.pi * np.arange(m) / m)
        nodes = axis_nodes(m)
        dx = _geometric_sum(m_modes, nodes)
        total = 0.0
        for u in range(m):
            c_u = np.exp(1j * (alpha * nodes[u] + beta))
            row = np.abs(c_u * np.roll(circ, u) - dx)
            if half and u % 2 == 0:
                # the grid M / 2 holds the nodes (x_t, y_u) of even t and u
                row = row[1::2]
            total += float(row.sum())
        return np.array([total]), np.zeros(1)  # no grid power to check

    # the Riemann sum over the m x m grid of (x, y)
    M0 = first_grid((m_modes,) * 2, rho, tol, DEFAULT_BUDGET_BYTES)
    values, level = _refine(abs_sums, M0, None, tol, lambda i: f"ld2:{n}")
    return float(values[level[0], 0])


def t_integral(fld: CoefficientField, xi, n1: float, mu: int, base: float,
               t_nodes: int, kw: dict) -> tuple:
    """(fine, fine - coarse, norms) of the t-integral of frak_f at any
    integer mu: int_{-pi}^{pi} (||delta_{n1 (t + 2 pi mu)} F|| - 2 ||F||) dt
    on 2 t_nodes - 1 trapezoid nodes, with the NormResult of each twisted
    difference, in the order of the nodes t."""
    fine_t = np.linspace(-np.pi, np.pi, 2 * t_nodes - 1)
    h = n1 * (fine_t + 2.0 * np.pi * mu)
    norms = stack_results(apply_delta(fld, h, xi).weights,
                          lambda i: f"delta({h[i]})|{fld.tag}", **kw)
    vals = np.array([r.value for r in norms]) - 2.0 * base
    fine = np.trapezoid(vals, fine_t)
    return float(fine), float(fine - np.trapezoid(vals[::2], fine_t[::2])), \
        norms


def stack_results(weights: np.ndarray, name, tol: float = DEFAULT_TOL,
                  rho: float = DEFAULT_RHO,
                  budget_bytes: int = DEFAULT_BUDGET_BYTES) -> list:
    """The NormResult of each field of the stack ``weights``, which
    simplexleb.norms._field_norms refines together."""
    out = _field_norms(weights, name, tol, rho, budget_bytes)
    return [_result(*out, i) for i in range(len(weights))]


def frak_f_two_sided(k: int, n: DilationVector, t_nodes: int = 64,
                     tol: float = DEFAULT_TOL,
                     rho: float = DEFAULT_RHO) -> tuple:
    """(value, error estimate) of the correction functional k at n, its
    mu-sum over mu = +|mu| and -|mu| for 1 <= |mu| <= [n_{k-l} / n_1]."""
    ent, kw = n.entries[:k], dict(tol=tol, rho=rho)
    n1, total, err = ent[0], 0.0, 0.0

    def f_norm(entries):
        return l1_norm("F", DilationVector(entries), **kw).value
    for l in range(k - 1):
        total += f_norm((n1,) * l + ent[:k - l]) - \
            f_norm((n1,) * l + ent[:k - l - 1] + (n1,))
        tilde = (n1,) * l + ent[1:k - l - 1]
        fld = fractional_coefficients(DilationVector(tilde + (n1,)))
        base = l1_norm_field(fld, **kw).value
        for mu_abs in range(1, Fraction(ent[k - l - 1]) // Fraction(n1) + 1):
            term = 0.0
            for mu in (mu_abs, -mu_abs):
                val, e, _ = t_integral(fld, 1.0 / np.array(tilde), n1, mu,
                                       base, t_nodes, kw)
                term += val / mu_abs
                err += abs(e) / mu_abs
            total += term
    return 2.0 * np.pi * total, 2.0 * np.pi * err


def frak_f_dense(k: int, n: DilationVector, t_nodes: int = 64,
                 rho: int = 64) -> float:
    """The correction functional k at n straight from its definition,
    2 pi sum_l (||F(n_1^l, n_1..n_{k-l})|| - ||F(n_1^l, n_1..n_{k-l-1},
    n_1)|| + sum_{1 <= |mu| <= [n_{k-l}/n_1]} (1 / |mu|) int_{-pi}^{pi}
    (||delta_{n_1 (t + 2 pi mu)} F|| - 2 ||F||) dt), F the field of tilde +
    (n_1,) with tilde = (n_1^l, n_2..n_{k-l-1}), with no part of the norm
    engine: each norm the Riemann sum of grid_eval's values on the fixed
    grid of rho times the field's box, the twisted differences' weights
    (e^{i h (1 - sum_j k_j / tilde_j)} - 1) c_k written out, both halves
    +mu and -mu, and the t-trapezoid on 2 t_nodes - 1 nodes."""
    ent = n.entries[:k]
    n1, total = ent[0], 0.0
    t = np.linspace(-np.pi, np.pi, 2 * t_nodes - 1)

    def norm(weights):
        if weights.ndim == 0:  # a 0-dimensional kernel: its modulus
            return abs(complex(weights))
        M = tuple(rho * e for e in weights.shape)
        values = grid_eval(CoefficientField(weights), M).values
        return (2 * np.pi) ** len(M) * float(np.abs(values).sum()) \
            / math.prod(M)

    def f_weights(entries):
        return fractional_coefficients(DilationVector(entries)).weights
    for l in range(k - 1):
        total += norm(f_weights((n1,) * l + ent[:k - l])) - \
            norm(f_weights((n1,) * l + ent[:k - l - 1] + (n1,)))
        tilde = (n1,) * l + ent[1:k - l - 1]
        c = f_weights(tilde + (n1,))
        dot = sum(kj / v for kj, v in zip(
            np.meshgrid(*map(np.arange, c.shape), indexing="ij"), tilde))
        base = norm(c)
        for mu_abs in range(1, Fraction(ent[k - l - 1]) // Fraction(n1) + 1):
            for mu in (mu_abs, -mu_abs):
                vals = [norm((np.exp(1j * n1 * (v + 2 * np.pi * mu)
                                     * (1.0 - dot)) - 1.0) * c) - 2.0 * base
                        for v in t.tolist()]
                total += np.trapezoid(vals, t) / mu_abs
    return 2.0 * np.pi * total


def _geometric(J, y):
    """sum_{j<J} e^{i j y} = e^{i (J-1) y / 2} sin(J y / 2) / sin(y / 2),
    with y reduced into [-pi, pi) first and the value J where y is 0."""
    half = 0.5 * (np.remainder(y + np.pi, 2.0 * np.pi) - np.pi)
    s = np.sin(half)
    ratio = np.sin(J * half) / np.where(s == 0.0, 1.0, s)
    return np.exp(1j * (J - 1) * half) * np.where(s == 0.0, J, ratio)


def rational_riemann_sum(kernel: str, m: int, p: int, q: int, M: tuple):
    """(2 pi)^s / prod M sum_t |f(x_t)| of D (s = 2) or F (s = 1) of
    n = (m, p m / q), m an integer, on the grid M, from their closed forms
    at the rational slope p / q, with no lattice and no FFT.

    L_2(k_1) = p u / q with u = m - k_1 = r + j q, 0 <= r < q, so
    [p u / q] = p j + c_r, c_r = [p r / q], and the k_2-sum is geometric:

        D(x) = e^{i m x_1} / (e^{i x_2} - 1) sum_{r<q} e^{-i r x_1}
               [e^{i (c_r + 1) x_2} G_r(p x_2 - q x_1) - G_r(-q x_1)],
        F(x_1) = e^{i m x_1} sum_{r<q} {p r / q} e^{-i r x_1} G_r(-q x_1),

    G_r = sum_{j < J_r} e^{i j y}, J_r = [(m - r) / q] + 1 (arXiv
    2004.12236 splits the norms into these rational parts).  At x_2 = 0,
    found by index as 2 t = M_2, D is sum_u ([p u / q] + 1) e^{i (m - u)
    x_1}.  A node costs O(q)."""
    x1 = (-np.pi + 2.0 * np.pi * np.arange(M[0]) / M[0])[:, None]
    r = np.arange(q)
    J = (m - r) // q + 1
    if kernel == "F":
        f = np.exp(1j * m * x1) * sum(
            p * k % q / q * np.exp(-1j * k * x1) * _geometric(j, -q * x1)
            for k, j in zip(r, J))
        return 2.0 * np.pi * float(np.abs(f).sum()) / M[0]
    t = np.arange(M[1])
    x2, zero = -np.pi + 2.0 * np.pi * t / M[1], 2 * t == M[1]
    total = sum(np.exp(-1j * k * x1) * (
        np.exp(1j * (p * k // q + 1) * x2) * _geometric(j, p * x2 - q * x1)
        - _geometric(j, -q * x1)) for k, j in zip(r, J))
    # e^{i x_2} - 1 = 2 i sin(x_2 / 2) e^{i x_2 / 2}
    f = np.exp(1j * m * x1) * total / np.where(
        zero, 1.0, 2j * np.sin(0.5 * x2) * np.exp(0.5j * x2))
    u = np.arange(m + 1)
    f[:, zero] = (np.exp(1j * np.multiply.outer(x1[:, 0], m - u))
                  @ (p * u // q + 1.0))[:, None]
    return (2.0 * np.pi) ** 2 * float(np.abs(f).sum()) / math.prod(M)


def exact_form_parts(c0: int, coeffs, points, den: int) -> tuple:
    """[num / den] and {num / den} of num = c0 + points @ coeffs, row by row
    in Python integers: divmod, then rem / den (correctly rounded) kept
    below 1."""
    floor, frac = [], []
    for row in np.asarray(points).tolist():
        whole, rem = divmod(c0 + sum(c * k for c, k in zip(coeffs, row)), den)
        floor.append(whole)
        frac.append(min(rem / den, 1.0 - 2.0**-53))
    return floor, frac


def golden_floor(k: int, bits: int) -> int:
    """floor(k phi 2^bits), exact: sqrt(5 k^2) is irrational for k >= 1."""
    return ((k << bits) + math.isqrt((5 * k * k) << (2 * bits))) >> 1
