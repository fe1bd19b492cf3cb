"""Simplex lattice core: dilation vectors, nested summation bounds, lattices,
and the coefficient fields consumed by the kernel evaluators.

The lattice of a dilation vector n = (n_1, ..., n_d) consists of the integer
points k >= 0 with sum_j k_j / n_j <= 1, enumerated through the nested bounds
k_1 <= [L_1], k_2 <= [L_2(k_1)], ... where L_1 = n_1 and
L_s(xi) = n_s - (m^(s-1), xi) with m^(s) = (n_{s+1}/n_1, ..., n_{s+1}/n_s).
Entries of n need not be integers; floors enter only through the bounds,
and LambdaEvaluator.parts certifies them at integer boundaries.
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
    "LambdaEvaluator",
    "LambdaParts",
    "SimplexLattice",
    "CoefficientField",
    "ResourceLimitError",
    "build_lattice",
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

    def ratios(self, s: int) -> tuple:
        """The tuple m^(s) = (n_{s+1}/n_1, ..., n_{s+1}/n_s)."""
        if not 1 <= s < self.d:
            raise ValueError(f"ratios defined for 1 <= s < d, got s={s}")
        nxt = self.entries[s]
        return tuple(nxt / self.entries[j] for j in range(s))


class LambdaParts(NamedTuple):
    """L_s at integer points: the float value and its certified parts."""

    value: np.ndarray   # float L_s as LambdaEvaluator.values computes it
    floor: np.ndarray   # [L_s], exact (int64)
    frac: np.ndarray    # {L_s}, the exact value rounded to float


@dataclass(frozen=True)
class LambdaEvaluator:
    """Evaluates the nested affine bounds L_s of a dilation vector."""

    n: DilationVector

    def values(self, s: int, points: np.ndarray) -> np.ndarray:
        """L_1 = n_1 and L_s(xi) = n_s - (m^(s-1), xi) at an array of points
        with s-1 columns."""
        ent = self.n.entries
        points = np.asarray(points, dtype=float)
        if s == 1:
            return np.full(points.shape[0], ent[0])
        m = np.array(self.n.ratios(s - 1))
        return ent[s - 1] - points[:, : s - 1] @ m

    def parts(self, s: int, points: np.ndarray) -> LambdaParts:
        """L_s at integer points with certified floors and fractional parts.

        The float value is off by less than (s + 2) 2^-52 (n_s + (m, xi));
        points whose value lies that close to an integer are recomputed
        exactly, reading every float entry as the dyadic rational it stores.
        """
        points = np.asarray(points, dtype=np.int64)
        value = self.values(s, points)
        floor = np.floor(value).astype(np.int64)
        frac = value - floor
        n_s = self.n.entries[s - 1]
        err = (s + 2) * 2.0**-52 * (2.0 * n_s - value)  # n_s + (m, xi)
        near = np.flatnonzero(np.abs(value - np.rint(value)) <= err)
        if near.size:
            q = [Fraction(v) for v in self.n.entries[:s]]
            ratios = [q[-1] / qj for qj in q[:-1]]
            for i in near:
                exact = q[-1] - sum(int(k) * r
                                    for k, r in zip(points[i], ratios))
                floor[i] = fl = math.floor(exact)
                # {L} < 1 even where its float rounding would reach 1.0
                frac[i] = min(float(exact - fl), 1.0 - 2.0**-53)
        return LambdaParts(value, floor, frac)


@dataclass(frozen=True)
class SimplexLattice:
    """Integer points of the nested-bound lattice, in lexicographic order.

    ``points`` has shape (P, s).  When ``s < d`` the values L_{s+1}(k) and
    their certified floors and fractional parts are available through
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
        """L_{s+1} at every lattice point, with certified parts (s < d)."""
        if self.s >= self.n.d:
            raise ValueError("lattice already spans the full dimension")
        return LambdaEvaluator(self.n).parts(self.s + 1, self.points)


@dataclass(frozen=True)
class CoefficientField:
    """Dense complex weights on an integer box, feeding FFT synthesis.

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
    lam = LambdaEvaluator(n)
    points = np.zeros((1, 0), dtype=np.int64)
    for axis in range(1, s + 1):
        bounds = lam.parts(axis, points).floor
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
