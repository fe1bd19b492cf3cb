"""Simplex lattice core: dilation vectors, nested summation bounds, lattices,
and the coefficient fields consumed by the kernel evaluators.

The lattice of a dilation vector n = (n_1, ..., n_d) consists of the integer
points k >= 0 with sum_j k_j / n_j <= 1, enumerated through the nested bounds
k_1 <= [L_1], k_2 <= [L_2(k_1)], ... where L_1 = n_1 and
L_s(xi) = n_s - (m^(s-1), xi) with m^(s) = (n_{s+1}/n_1, ..., n_{s+1}/n_s).
Floats are read as the dyadic rationals they store, so L_s times a common
denominator is an integer linear form in k: [L_s] and {L_s} are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "DilationVector",
    "LambdaParts",
    "SimplexLattice",
    "CoefficientField",
    "ResourceLimitError",
    "build_lattice",
    "lambda_parts_at",
    "indicator_coefficients",
    "fractional_coefficients",
    "DEFAULT_BUDGET_BYTES",
]

# The one memory cap, in bytes, on each array a run builds: lattice points,
# coefficient boxes, grid slices, slice weights and verify's phase matrix.
# The CLI's --budget-mb defaults to it.
DEFAULT_BUDGET_BYTES = 1536 << 20


class ResourceLimitError(RuntimeError):
    """An array would exceed the configured memory budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def check_budget(nbytes, budget_bytes: int, what: str):
    """Refuse, with the estimate attached, an array of ``nbytes`` bytes."""
    if nbytes > budget_bytes:
        raise ResourceLimitError(
            f"{what} needs {int(nbytes)} bytes, over the budget of "
            f"{budget_bytes} bytes", estimate=int(nbytes))


def simplex_volume(entries) -> float:
    """prod n_j / s!, a lower bound on the lattice point count: the unit
    cubes k + [0, 1)^s at the lattice points cover the simplex."""
    return math.prod(entries) / math.factorial(len(entries))


@dataclass(frozen=True)
class DilationVector:
    """Positive real dilation parameters (n_1, ..., n_d) of the simplex."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(float(v) for v in self.entries)
        if not ent:
            raise ValueError("dilation vector must have at least one entry")
        for v in ent:
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"dilation entries must be finite and positive, got {v}")
        object.__setattr__(self, "entries", ent)

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def sorted_ascending(self) -> bool:
        """n_1 <= ... <= n_d; required by the asymptotic predictors only."""
        return all(a <= b for a, b in zip(self.entries, self.entries[1:]))


# _form_parts takes a block of _ROWS rows at a time.  Forms that int64
# cannot hold take fixed-point fractions of 192 bits, summed in 32-bit limbs
# of uint64 arrays: k x + limb + carry < 2^64 for k < _LIMB_K.  The low
# _GUARD_BITS bits of the sum absorb the truncation of each fraction.
_ROWS, _GUARD_BITS, _LIMB_K = 1 << 13, 64, 1 << 32


def _form_parts(c0: int, coeffs, points: np.ndarray, den: int):
    """[num / den] (int64) and {num / den}, correctly rounded and below 1, of
    the integer linear form num = c0 + points @ coeffs at nonnegative integer
    points (P, len(coeffs)).  int64 holds num where |c0| + sum_j |c_j|
    max(1, max k) < 2^63 and den <= 2^53 (rem / den is one correctly rounded
    division); other forms take _limb_parts.  Refused where floors can reach
    2^63: |c0| + sum |c_j| max k >= 2^63 den."""
    points = np.asarray(points, dtype=np.int64)
    top, scale = int(np.max(points, initial=0)), sum(map(abs, coeffs))
    reach = (abs(c0) + scale * top) // den
    if reach >> 63:
        raise ValueError(f"L_s can reach 2^{reach.bit_length() - 1} in "
                         "magnitude, but its floors are int64 (< 2^63)")
    if abs(c0) + scale * max(1, top) < 1 << 63 and den <= 1 << 53:
        c = np.array(coeffs, dtype=np.int64)

        def parts(k):
            whole, rem = np.divmod(c0 + k @ c, den)
            return whole, rem / den
    else:
        parts = _limb_parts(c0, coeffs, den)
    floor, frac = np.empty(len(points), np.int64), np.empty(len(points))
    for i in range(0, len(points), _ROWS):
        floor[i:i + _ROWS], frac[i:i + _ROWS] = parts(points[i:i + _ROWS])
    # rem / den rounds to 1.0 only where den > 2^53
    return floor, np.minimum(frac, 1 - 2**-53, out=frac)


def _limb_parts(c0: int, coeffs, den: int):
    """The parts of (c0 + k @ coeffs) / den at a block of rows k, for any
    den.  With c_j = den a_j + r_j and phi_j = [r_j 2^192 / den], 2^192 num /
    den = 2^192 (a_0 + sum a_j k_j) + S + E: S = phi_0 + sum phi_j k_j is
    exact in the limbs, and 0 <= E < 1 + sum k_j.  Where the low _GUARD_BITS
    bits g of S have room for E, g + s max k < 2^_GUARD_BITS, the floor is
    a_0 + sum a_j k_j + [S / 2^192] (in uint64, which wraps to the int64
    floor), and the fraction's top 64 bits H are S's.  H rounded to odd,
    with the bits below it as sticky bit, rounds to the float of {num / den}
    where H >= 2^54 and a bit below H is set.  Other rows take Python ints,
    as does a block with a k >= _LIMB_K."""
    a, r = zip(*(divmod(c, den) for c in (c0, *coeffs)))
    limbs = [[np.uint64((x << 192) // den >> b & 0xFFFFFFFF)
              for b in range(0, 192, 32)] for x in r]
    a = [np.uint64(x & 0xFFFFFFFFFFFFFFFF) for x in a]
    room = (1 << _GUARD_BITS) - 1

    def parts(k):
        ku, top = k.view(np.uint64), int(k.max(initial=0))
        whole = np.full(len(k), a[0])
        # None stands for a zero limb or carry, which costs no pass; with
        # no column to add them to, phi_0's limbs are arrays all the same
        acc = [np.full(len(k), x) if x or not k.shape[1] else None
               for x in limbs[0]]
        for j in range(k.shape[1]):
            kj, carry = ku[:, j], None
            if a[j + 1]:
                whole += kj * a[j + 1]
            for i, x in enumerate(limbs[j + 1]):
                p = kj * x
                for y in (carry, acc[i]):
                    if y is not None:
                        p += y
                carry, acc[i] = p >> 32, p & 0xFFFFFFFF
            whole += carry
        low, mid, high = (acc[i] | acc[i + 1] << 32 for i in (0, 2, 4))
        rest, slack = (low | mid) != 0, room - top * k.shape[1]
        sure = (low & room <= slack) & rest & (high >= 1 << 54) \
            if top < _LIMB_K and slack >= 0 else np.zeros(len(k), bool)
        floor, frac = whole.view(np.int64), (high | rest) * 2.0**-64
        for j in np.flatnonzero(~sure):
            floor[j], frac[j] = _exact_parts(c0, coeffs, k[j].tolist(), den)
        return floor, frac
    return parts


def _exact_parts(c0: int, coeffs, row, den: int):
    """[num / den] and rem / den, correctly rounded, at one row, in ints."""
    whole, rem = divmod(c0 + sum(c * k for c, k in zip(coeffs, row)), den)
    return whole, rem / den


class LambdaParts(NamedTuple):
    """L_s at integer points, from its exact floor and fractional part."""

    value: np.ndarray   # floor + frac in floats, within an ulp of L_s
    floor: np.ndarray   # [L_s], exact (int64)
    frac: np.ndarray    # {L_s}, correctly rounded, below 1


def lambda_parts_at(n: DilationVector, s: int,
                    points: np.ndarray) -> LambdaParts:
    """The nested affine bound L_s of n, L_1 = n_1 and L_s(k) = n_s -
    sum_j (n_s / n_j) k_j, exactly, at integer points with s-1 columns:
    den L_s is an integer linear form, den the common denominator of n_s
    and the ratios n_s / n_j."""
    q = [Fraction(v) for v in n.entries[:s]]
    ratios = [q[-1] / qj for qj in q[:-1]]
    den = math.lcm(*(r.denominator for r in [q[-1], *ratios]))
    floor, frac = _form_parts(int(q[-1] * den),
                              [-int(r * den) for r in ratios], points, den)
    return LambdaParts(floor + frac, floor, frac)


@dataclass(frozen=True)
class SimplexLattice:
    """Integer points of the nested-bound lattice, in lexicographic order.

    ``points`` has shape (P, s).  When ``s < d`` the values L_{s+1}(k) and
    their exact floors and fractional parts are available through
    :attr:`lambda_parts`, which the kernels and the norm engine consume.
    """

    n: DilationVector
    s: int
    points: np.ndarray = field(repr=False)

    @cached_property
    def extents(self) -> tuple:
        """Per-axis box extents (max k_j) + 1."""
        return tuple(int(v) + 1 for v in self.points.max(axis=0))

    @cached_property
    def lambda_parts(self) -> LambdaParts:
        """L_{s+1} at every lattice point, with its exact parts (s < d)."""
        if self.s >= self.n.d:
            raise ValueError("lattice already spans the full dimension")
        return lambda_parts_at(self.n, self.s + 1, self.points)


@dataclass(frozen=True)
class CoefficientField:
    """Dense real or complex weights on an integer box, for FFT synthesis.

    A 0-dimensional field (shape ()) is the constant-kernel convention: the
    kernel is the complex number ``weights[()]`` and its norm is its modulus.
    """

    weights: np.ndarray = field(repr=False)
    tag: str = ""

    @property
    def s(self) -> int:
        return self.weights.ndim

    @property
    def extents(self) -> tuple:
        return self.weights.shape


def build_lattice(n: DilationVector, s: int | None = None,
                  budget_bytes: int = DEFAULT_BUDGET_BYTES) -> SimplexLattice:
    """Enumerate the nested-bound lattice over the first s coordinates.

    Enumeration is lexicographic and fully vectorized: axis by axis, every
    existing point is extended by k_s = 0 .. [L_s(point)].  The (P, s) int64
    points must fit ``budget_bytes``; the simplex volume bounds P from below
    before anything is enumerated.
    """
    if s is None:
        s = n.d
    if not 1 <= s <= n.d:
        raise ValueError(f"need 1 <= s <= d={n.d}, got s={s}")
    check_budget(8 * s * simplex_volume(n.entries[:s]), budget_bytes,
                 "lattice")
    points = np.zeros((1, 0), dtype=np.int64)
    for axis in range(1, s + 1):
        bounds = lambda_parts_at(n, axis, points).floor
        # bounds >= 0 along the lattice: L_axis >= 0 whenever the previous
        # coordinates satisfy the membership inequality.
        reps = bounds + 1
        total = int(reps.sum())
        check_budget(8 * axis * total, budget_bytes, "lattice")
        base = np.repeat(points, reps, axis=0)
        offsets = np.repeat(np.cumsum(reps) - reps, reps)
        new_col = np.arange(total, dtype=np.int64) - offsets
        points = np.column_stack([base, new_col])
    return SimplexLattice(n=n, s=s, points=points)


def indicator_coefficients(lattice: SimplexLattice) -> CoefficientField:
    """Weight 1 at every lattice point, 0 elsewhere in the bounding box."""
    return _scatter(lattice, 1.0, f"indicator:{lattice.n.entries}")


def _scatter(lattice: SimplexLattice, values, tag: str) -> CoefficientField:
    extents = lattice.extents
    w = np.zeros(extents, dtype=np.complex128)
    flat = np.ravel_multi_index(tuple(lattice.points.T), extents)
    w.ravel()[flat] = values
    return CoefficientField(weights=w, tag=tag)


def fractional_coefficients(n: DilationVector,
                            budget_bytes: int = DEFAULT_BUDGET_BYTES
                            ) -> CoefficientField:
    """The (d-1)-dimensional field with weight {L_d(k')} at each lattice point.

    For d = 1 the empty index set convention applies: the field is the
    0-dimensional constant {n_1}.  Its box, K_j = [n_j] + 1, must fit
    ``budget_bytes``, as must the lattice.
    """
    if n.d == 1:
        return CoefficientField(
            weights=np.array(n.entries[0] % 1.0, dtype=np.complex128),
            tag=f"fractional:{n.entries}",
        )
    check_budget(16 * math.prod(int(v) + 1 for v in n.entries[:-1]),
                 budget_bytes, "coefficient box")
    lat = build_lattice(n, n.d - 1, budget_bytes)
    return _scatter(lat, lat.lambda_parts.frac, f"fractional:{n.entries}")
