"""Number-theoretic study of the 1-D fractional-part kernel.

For a real alpha the quantity of interest is the plain L1 norm

    I_n(alpha) = int_{-pi}^{pi} | sum_{0 <= k <= n} {alpha k} e^{i k x} | dx,

whose normalized trajectory I_n / ln^2 n is tracked across an n-grid.  Every
alpha-dependent quantity is computed with Python integers.  Rational alphas
(plain, decimal and truncated Liouville) are exact Fractions; the golden
ratio phi enters only through floor(k phi 2^b), a product with a guarded
fixed-point phi, exact by an integer square root where the guard cannot
decide.  So {alpha k} is correctly rounded for rationals and truncated at
2^-128 before its one rounding for golden; each value depends on k alone,
and a study computes them once for its largest n.  Continued fractions of
rationals come from Euclid's algorithm; golden's is phi = [1; 1, 1, ...],
since phi = 1 + 1/phi.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DEFAULT_BUDGET_BYTES, CoefficientField, _form_parts
from .norms import (
    DEFAULT_RHO,
    DEFAULT_TOL,
    NormResult,
    first_grid,
    l1_norm_field,
)

__all__ = [
    "AlphaSpec",
    "ContinuedFraction",
    "RatioRecord",
    "cf_expand",
    "fractional_parts",
    "study_ratio",
]

_FRAC_BITS = 128
_GUARD_BITS = 64  # guard bits of the fixed-point phi in fractional_parts
_LIMB_K = 1 << 32  # golden k below it take the uint64 limbs
# The most bits of the power base^{depth!} of a Liouville alpha, or 10^|e|
# of a decimal alpha with exponent e: building it, the Fraction sum and
# Euclid's algorithm take time that grows steeply with them (liouville:2,10,
# 3.6 M bits: 6.9 s; liouville:2,11, 40 M bits: over 60 s;
# dec:1e-10000000, 33 M bits: 13 s).
_ALPHA_BITS = 1 << 22


@dataclass(frozen=True)
class AlphaSpec:
    """A real number given exactly enough to certify all derived quantities:
    its canonical --alpha text ``name``, which :meth:`parse` reads back, and
    its exact value ``rational``, None for golden (1 + sqrt 5) / 2 alone.
    rational:P/Q is P/Q in lowest terms, liouville:B,M the truncation
    sum_{k<=M} B^{-k!} (only its convergents mimic Liouville growth), and
    dec:LITERAL the exact rational a decimal literal denotes."""

    name: str
    rational: Fraction | None = None

    def __post_init__(self):
        if self.rational is None and self.name != "golden":
            raise ValueError(f"alpha {self.name!r} needs an exact rational")

    @classmethod
    def parse(cls, text: str) -> "AlphaSpec":
        """The alpha of an --alpha text; rational:P stands for P/1."""
        text = text.strip()
        kind, colon, body = text.partition(":")
        if text == "golden":
            return cls.golden()
        if colon and kind == "dec":
            return cls.from_decimal(body)
        if not colon or kind not in ("rational", "liouville"):
            raise ValueError(f"unrecognized alpha spec {text!r}")
        m = re.fullmatch(r"(-?\d+)(?:\s*/\s*(\d+))?" if kind == "rational"
                         else r"(\d+)\s*,\s*(\d+)", body)
        if not m:
            raise ValueError(f"malformed {kind} alpha {text!r}")
        if kind == "liouville":
            return cls.liouville(int(m[1]), int(m[2]))
        return cls.from_rational(int(m[1]), int(m[2] or 1))

    @classmethod
    def from_rational(cls, p: int, q: int) -> "AlphaSpec":
        if q == 0:
            raise ValueError("rational alpha needs a nonzero denominator")
        r = Fraction(p, q)
        return cls(f"rational:{r.numerator}/{r.denominator}", r)

    @classmethod
    def golden(cls) -> "AlphaSpec":
        return cls("golden")

    @classmethod
    def liouville(cls, base: int, depth: int) -> "AlphaSpec":
        if base < 2 or depth < 1:
            raise ValueError("need base >= 2 and depth >= 1")
        # base^{m!} has at least m! (bitlen(base) - 1) + 1 bits: a depth
        # over the bound is refused from that count before any power is built
        fact = 1
        for m in range(2, depth + 1):
            fact *= m
            if fact * (base.bit_length() - 1) >= _ALPHA_BITS:
                break
        if fact * (base.bit_length() - 1) >= _ALPHA_BITS or \
                (base ** fact).bit_length() > _ALPHA_BITS:
            raise ValueError(f"liouville:{base},{depth} has a denominator "
                             f"of more than {_ALPHA_BITS} bits")
        frac = sum(Fraction(1, base ** math.factorial(k))
                   for k in range(1, depth + 1))
        return cls(f"liouville:{base},{depth}", frac)

    @classmethod
    def from_decimal(cls, literal: str) -> "AlphaSpec":
        # Fraction builds 10^|e| in full, past Python's limit on int digits
        exp = re.search(r"e([-+]?[\d_]+)\s*$", literal, re.IGNORECASE)
        if exp and abs(int(exp[1])) * math.log2(10) >= _ALPHA_BITS:
            raise ValueError(f"decimal alpha {literal!r} has a power of ten "
                             f"of more than {_ALPHA_BITS} bits")
        try:
            rational = Fraction(literal)
        except ZeroDivisionError:
            raise ValueError(f"decimal alpha {literal!r} has a zero "
                             "denominator") from None
        return cls(f"dec:{literal}", rational)


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients [a0; a1, a2, ...] and exact integer convergents."""

    quotients: tuple
    convergents: tuple          # ((p_k, q_k), ...) aligned with quotients
    exact: bool                 # True when the expansion terminated


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


def _golden_floor(k: int, bits: int) -> int:
    """floor(k phi 2^bits), exact: sqrt(5 k^2) is irrational for k >= 1."""
    return ((k << bits) + math.isqrt((5 * k * k) << (2 * bits))) >> 1


def _euclid(num: int, den: int, max_terms: int) -> tuple:
    """At most max_terms partial quotients of num/den; True if it ended."""
    quots = []
    while den and len(quots) < max_terms:
        a, rem = divmod(num, den)
        quots.append(a)
        num, den = den, rem
    return quots, den == 0


def cf_expand(alpha: AlphaSpec, max_terms: int = 64) -> ContinuedFraction:
    """Continued-fraction expansion: Euclid's algorithm for rationals, and
    all ones for golden, since phi = 1 + 1/phi."""
    if alpha.rational is not None:
        quots, exact = _euclid(alpha.rational.numerator,
                               alpha.rational.denominator, max_terms)
    else:
        quots, exact = [1] * max_terms, False
    return ContinuedFraction(quotients=tuple(quots),
                             convergents=_convergents(quots), exact=exact)


def fractional_parts(alpha: AlphaSpec, n: int) -> np.ndarray:
    """{alpha k} for k = 0..n as machine floats, from integers only.

    Rationals are (p k mod q) / q, correctly rounded and below 1.  Golden is
    floor({k phi} 2^128) / 2^128 rounded once, so it lies within 2^-128 of
    {k phi} before that rounding.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if alpha.rational is not None:
        # {alpha k} = {(p mod q) k / q}: the floors stay below k
        p, q = alpha.rational.numerator, alpha.rational.denominator
        return _form_parts(0, [p % q], np.arange(n + 1)[:, None], q)[1]
    return _golden_parts(n)


def _golden_parts(n: int) -> np.ndarray:
    """{k phi} for k = 0..n, as fractional_parts gives them.

    k phi 2^(FRAC+GUARD) is in (k a, k a + k), a = floor(phi 2^(FRAC+GUARD)),
    so k a >> GUARD is the floor unless its low bits exceed 2^GUARD - k.
    For k < 2^32, k a is formed in 32-bit limbs of uint64 arrays (k a_i +
    carry < 2^64); Python integers take the rest: a guard that cannot
    decide, a fraction with fewer than 55 bits above 2^-64, and k >= 2^32.
    """
    guard, bits = _GUARD_BITS, _FRAC_BITS + _GUARD_BITS
    a, room, scale = _golden_floor(1, bits), 1 << guard, 1 << _FRAC_BITS
    top, out, slow = np.uint64(room - 1), np.empty(n + 1), []

    def window(limbs, b):  # bits b..b+63 of k a
        j, s = divmod(b, 32)
        return limbs[j] >> s | limbs[j + 1] << 32 - s | limbs[j + 2] << 64 - s

    for k0 in range(0, min(n + 1, _LIMB_K), 8192):  # about 1 MiB of limbs
        k = np.arange(k0, min(k0 + 8192, n + 1, _LIMB_K), dtype=np.uint64)
        limbs, carry = [], np.zeros_like(k)
        for i in range(0, 32 * ((guard + 64) // 32 + 3), 32):
            p = k * np.uint64(a >> i & 0xFFFFFFFF) + carry
            limbs.append(p & 0xFFFFFFFF)
            carry = p >> 32
        fits = (k <= top) & (window(limbs, 0) & top <= top - k + 1)
        # the fraction H 2^64 + L with H >= 2^54: H | (L != 0), rounded to
        # odd with >= 55 bits, rounds to the float the 128-bit fraction does
        low, high = window(limbs, guard), window(limbs, guard + 64)
        out[k0:k0 + len(k)] = (high | (low != 0)).astype(float) * 2.0**-64
        slow += k[~(fits & (high >= 1 << 54))].tolist()
    for j in slow + list(range(_LIMB_K, n + 1)):
        f = j * a >> guard if j * a % room <= room - j \
            else _golden_floor(j, _FRAC_BITS)
        out[j] = f % scale / scale
    return out


def _kernel_norm(alpha: AlphaSpec, w: np.ndarray, tol: float, rho: float,
                 budget_bytes: int = DEFAULT_BUDGET_BYTES) -> NormResult:
    """I_n for n = len(w) - 1, from the fractional parts w = {alpha k}."""
    fld = CoefficientField(weights=w, tag=f"I:{alpha.name}@{len(w) - 1}")
    return l1_norm_field(fld, tol=tol, rho=rho, budget_bytes=budget_bytes)


@dataclass(frozen=True)
class RatioRecord:
    n: int
    value: float
    ratio: float                # I_n / ln^2 n
    running_min: float
    running_max: float
    is_convergent_denominator: bool = False


def study_ratio(alpha: AlphaSpec, n_grid, tol: float = DEFAULT_TOL,
                rho: float = DEFAULT_RHO,
                budget_bytes: int = DEFAULT_BUDGET_BYTES) -> list:
    """Per-n normalized values with running min/max finite-n estimators.

    The running extrema are estimators over the computed grid only, never
    claims about limits.  Grid entries below 2 are refused, since the
    ratio divides by ln^2 n.  The first grid of the largest n must fit
    ``budget_bytes`` before any fractional part is computed.
    """
    n_grid = [int(v) for v in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n grid must be increasing")
    if any(v < 2 for v in n_grid):
        raise ValueError("grid entries must be >= 2")
    first_grid((max(n_grid) + 1,), rho, tol, budget_bytes)
    qset = _convergent_denominators(alpha, max(n_grid))
    w = fractional_parts(alpha, max(n_grid))
    out = []
    lo = math.inf
    hi = -math.inf
    for n in n_grid:
        v = _kernel_norm(alpha, w[:n + 1], tol, rho, budget_bytes).value
        ratio = v / math.log(n) ** 2
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        out.append(RatioRecord(n=n, value=v, ratio=ratio, running_min=lo,
                               running_max=hi,
                               is_convergent_denominator=n in qset))
    return out


def _convergent_denominators(alpha: AlphaSpec, n_max: int) -> set:
    cf = cf_expand(alpha, max_terms=64)
    return {q for _, q in cf.convergents if 2 <= q <= n_max}
