"""Number-theoretic study of the 1-D fractional-part kernel.

For a real alpha the quantity of interest is the plain L1 norm

    I_n(alpha) = int_{-pi}^{pi} | sum_{0 <= k <= n} {alpha k} e^{i k x} | dx,

whose normalized trajectory I_n / ln^2 n is tracked across an n-grid.  The
apparatus: certified continued-fraction expansions, convergents in exact
integer arithmetic, and arbitrary-precision fractional parts (Liouville-type
numbers make alpha*k pass extremely close to integers, so {alpha k} is
computed at high precision and only then rounded to a machine float).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from .core import CoefficientField
from .norms import NormResult, l1_norm_field

__all__ = [
    "AlphaSpec",
    "ContinuedFraction",
    "RatioRecord",
    "DipReport",
    "cf_expand",
    "fractional_parts",
    "I_n",
    "study_ratio",
    "liouville_dip_scan",
]

DEFAULT_PREC_BITS = 256
FRAC_CERT_TOL = 2.0 ** -40
_MAX_PREC_BITS = 1 << 14


@dataclass(frozen=True)
class AlphaSpec:
    """A real number given exactly enough to certify all derived quantities.

    kind 'rational':  exact Fraction.
    kind 'golden':    (1 + sqrt 5) / 2, evaluated at working precision.
    kind 'liouville': the truncation sum_{k<=depth} base^{-k!} (a rational;
                      only its convergent structure mimics Liouville growth).
    kind 'decimal':   a decimal literal, treated as the exact rational it
                      denotes.
    """

    kind: str
    rational: Fraction | None = None
    base: int | None = None
    depth: int | None = None
    literal: str | None = None
    prec_bits: int = DEFAULT_PREC_BITS

    @classmethod
    def from_rational(cls, p: int, q: int) -> "AlphaSpec":
        return cls(kind="rational", rational=Fraction(p, q))

    @classmethod
    def golden(cls, prec_bits: int = DEFAULT_PREC_BITS) -> "AlphaSpec":
        return cls(kind="golden", prec_bits=prec_bits)

    @classmethod
    def liouville(cls, base: int, depth: int) -> "AlphaSpec":
        if base < 2 or depth < 1:
            raise ValueError("need base >= 2 and depth >= 1")
        frac = sum(Fraction(1, base ** math.factorial(k))
                   for k in range(1, depth + 1))
        return cls(kind="liouville", base=base, depth=depth, rational=frac)

    @classmethod
    def from_decimal(cls, literal: str) -> "AlphaSpec":
        return cls(kind="decimal", literal=literal,
                   rational=Fraction(literal))

    @property
    def is_exact_rational(self) -> bool:
        return self.rational is not None

    def mpf(self, prec_bits: int | None = None) -> mpmath.mpf:
        prec = prec_bits or self.prec_bits
        with mpmath.workprec(prec):
            if self.is_exact_rational:
                return mpmath.mpf(self.rational.numerator) / self.rational.denominator
            if self.kind == "golden":
                return (1 + mpmath.sqrt(5)) / 2
        raise ValueError(f"cannot evaluate alpha of kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "rational":
            return f"rational:{self.rational.numerator}/{self.rational.denominator}"
        if self.kind == "golden":
            return "golden"
        if self.kind == "liouville":
            return f"liouville:{self.base},{self.depth}"
        return f"dec:{self.literal}"


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients [a0; a1, a2, ...] and exact integer convergents."""

    quotients: tuple
    convergents: tuple          # ((p_k, q_k), ...) aligned with quotients
    exact: bool                 # True when the expansion terminated
    certified: bool = True

    def determinant_identity_holds(self) -> bool:
        """p_k q_{k-1} - p_{k-1} q_k = (-1)^{k-1}, exact integers."""
        pq = ((1, 0),) + self.convergents
        for k in range(1, len(pq)):
            p1, q1 = pq[k]
            p0, q0 = pq[k - 1]
            if p1 * q0 - p0 * q1 != (-1) ** k:
                return False
        return True


def _convergents(quotients) -> tuple:
    out = []
    p0, q0 = 1, 0
    p1, q1 = quotients[0], 1
    out.append((p1, q1))
    for a in quotients[1:]:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return tuple(out)


def cf_expand(alpha: AlphaSpec, max_terms: int = 64) -> ContinuedFraction:
    """Continued-fraction expansion; exact for rationals, certified otherwise.

    Irrational expansions are computed twice at increasing precision and
    truncated to the agreeing prefix; if fewer than ``max_terms`` quotients
    can be certified the result carries ``certified=False``.
    """
    if alpha.is_exact_rational:
        quots = []
        num, den = alpha.rational.numerator, alpha.rational.denominator
        while den != 0 and len(quots) < max_terms:
            a, rem = divmod(num, den)
            quots.append(int(a))
            num, den = den, rem
        return ContinuedFraction(quotients=tuple(quots),
                                 convergents=_convergents(quots),
                                 exact=(den == 0))
    prec = max(alpha.prec_bits, 64)
    while prec <= _MAX_PREC_BITS:
        a = _float_quotients(alpha, max_terms, prec)
        b = _float_quotients(alpha, max_terms, 2 * prec)
        common = []
        for x, y in zip(a, b):
            if x != y:
                break
            common.append(x)
        if len(common) >= max_terms:
            quots = common[:max_terms]
            return ContinuedFraction(quotients=tuple(quots),
                                     convergents=_convergents(quots),
                                     exact=False)
        prec *= 2
    quots = tuple(common)
    return ContinuedFraction(quotients=quots, convergents=_convergents(quots),
                             exact=False, certified=False)


def _float_quotients(alpha: AlphaSpec, max_terms: int, prec: int) -> list:
    with mpmath.workprec(prec):
        x = alpha.mpf(prec)
        quots = []
        for _ in range(max_terms):
            a = mpmath.floor(x)
            quots.append(int(a))
            frac = x - a
            if frac == 0:
                break
            x = 1 / frac
        return quots


def fractional_parts(alpha: AlphaSpec, n: int) -> np.ndarray:
    """{alpha k} for k = 0..n as machine floats, certified to 2^-40.

    Exact rationals use modular integer arithmetic; irrational specs raise
    the working precision until every value is provably within tolerance of
    the float returned.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha.is_exact_rational:
        p, q = alpha.rational.numerator, alpha.rational.denominator
        ks = np.arange(n + 1, dtype=object)
        return np.array([float(Fraction((p * int(k)) % q, q)) for k in ks],
                        dtype=float)
    prec = max(alpha.prec_bits, 64)
    while True:
        with mpmath.workprec(prec):
            a = alpha.mpf(prec)
            # absolute error of {a k} from the precision of a: k * 2^-prec * a
            worst = mpmath.mpf(n) * a * mpmath.mpf(2) ** (-prec + 2)
            if worst < FRAC_CERT_TOL / 4:
                vals = np.empty(n + 1)
                vals[0] = 0.0  # {0} is exact; the straddle test is for k >= 1
                ok = True
                for k in range(1, n + 1):
                    f = mpmath.frac(a * k)
                    # certify the value is not straddling an integer
                    if min(f, 1 - f) < worst:
                        ok = False
                        break
                    vals[k] = float(f)
                if ok:
                    return vals
        prec *= 2
        if prec > _MAX_PREC_BITS:
            raise RuntimeError("precision exhausted certifying {alpha k}")


def I_n(alpha: AlphaSpec, n: int, tol: float = 1e-3, rho: float = 4.0,
        workers: int = 1) -> NormResult:
    """Plain L1 norm of the 1-D kernel with weights {alpha k}, k = 0..n."""
    w = fractional_parts(alpha, n).astype(np.complex128)
    fld = CoefficientField(weights=w, tag=f"I:{alpha.describe()}@{n}")
    return l1_norm_field(fld, tol=tol, rho=rho, workers=workers)


@dataclass(frozen=True)
class RatioRecord:
    n: int
    value: float
    ratio: float                # I_n / ln^2 n
    running_min: float
    running_max: float
    is_convergent_denominator: bool = False


def study_ratio(alpha: AlphaSpec, n_grid, tol: float = 1e-3,
                workers: int = 1, rho: float = 4.0, min_n: int = 16) -> list:
    """Per-n normalized values with running min/max finite-n estimators.

    The running extrema are estimators over the computed grid only, never
    claims about limits.  Grid entries below ``min_n`` are refused; keep
    min_n >= 2, since the ratio divides by ln^2 n.
    """
    n_grid = [int(v) for v in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n grid must be increasing")
    if any(v < min_n for v in n_grid):
        raise ValueError(f"grid entries must be >= {min_n}")
    qset = _convergent_denominators(alpha, max(n_grid))
    out = []
    lo = math.inf
    hi = -math.inf
    for n in n_grid:
        v = I_n(alpha, n, tol=tol, rho=rho, workers=workers).value
        ratio = v / math.log(n) ** 2
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        out.append(RatioRecord(n=n, value=v, ratio=ratio, running_min=lo,
                               running_max=hi,
                               is_convergent_denominator=n in qset))
    return out


def _convergent_denominators(alpha: AlphaSpec, n_max: int) -> set:
    try:
        cf = cf_expand(alpha, max_terms=64)
    except ValueError:
        return set()
    return {q for _, q in cf.convergents if 2 <= q <= n_max}


@dataclass(frozen=True)
class DipReport:
    alpha: str
    generic_median: float
    dips: tuple                 # ((q, ratio, dip_factor), ...)

    @property
    def max_dip_factor(self) -> float:
        return max((d for _, _, d in self.dips), default=float("nan"))


def liouville_dip_scan(alpha: AlphaSpec, n_max: int = 2**14, n_min: int = 16,
                       generic_points: int = 9, tol: float = 1e-3,
                       workers: int = 1) -> DipReport:
    """Compare the normalized value at convergent denominators against the
    median over a generic geometric grid; the dip factor is median / value.

    Plain rationals have no designated convergent tail and yield an empty
    dip set.
    """
    if alpha.kind == "rational":
        return DipReport(alpha=alpha.describe(), generic_median=float("nan"),
                         dips=())
    qs = sorted(q for q in _convergent_denominators(alpha, n_max)
                if q >= n_min)
    grid = sorted({int(round(v)) for v in
                   np.geomspace(n_min, n_max, generic_points)} - set(qs))
    generic = [I_n(alpha, n, tol=tol, workers=workers).value /
               math.log(n) ** 2 for n in grid]
    med = float(np.median(generic)) if generic else float("nan")
    dips = []
    for q in qs:
        r = I_n(alpha, q, tol=tol, workers=workers).value / math.log(q) ** 2
        dips.append((q, r, med / r if r > 0 else math.inf))
    return DipReport(alpha=alpha.describe(), generic_median=med,
                     dips=tuple(dips))
