"""Number-theoretic study of the 1-D fractional-part kernel.

For a real alpha the quantity of interest is the plain L1 norm

    I_n(alpha) = int_{-pi}^{pi} | sum_{0 <= k <= n} {alpha k} e^{i k x} | dx,

whose normalized trajectory I_n / ln^2 n is tracked across an n-grid.  Every
alpha is an exact Fraction: plain, decimal and truncated Liouville alphas
are the rationals they denote, and the golden ratio phi is its Fibonacci
convergent F_{m+1} / F_m with F_m >= 2^160, within k 2^-320 of k phi.  So
{alpha k} is the correctly rounded fraction of an integer linear form
(core._form_parts); each value depends on k alone, and a study computes them
once for its largest n.  Continued fractions come from Euclid's algorithm;
golden's first 64 partial quotients are ones, as phi = 1 + 1/phi gives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _ROWS, DEFAULT_BUDGET_BYTES, CoefficientField, _form_parts
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
    its exact value ``rational``.  rational:P/Q is P/Q in lowest terms,
    golden the Fibonacci convergent F_{m+1} / F_m of (1 + sqrt 5) / 2 with
    F_m >= 2^160, liouville:B,M the truncation sum_{k<=M} B^{-k!} (only its
    convergents mimic Liouville growth), and dec:LITERAL the exact rational
    a decimal literal denotes."""

    name: str
    rational: Fraction | None = None

    def __post_init__(self):
        if self.rational is None:
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
        # |phi - F_{m+1} / F_m| < 1 / (F_m F_{m+1}) < 2^-320 (Khinchin)
        p, q = 1, 1
        while q < 1 << 160:
            p, q = p + q, p
        return cls("golden", Fraction(p, q))

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


def cf_expand(alpha: AlphaSpec, max_terms: int = 64) -> ContinuedFraction:
    """At most max_terms partial quotients a_k of alpha by Euclid's
    algorithm, with the convergents p_k = a_k p_{k-1} + p_{k-2} (q_k
    alike).  Golden's convergent F_{m+1} / F_m has 231 ones, then a 2."""
    num, den = alpha.rational.numerator, alpha.rational.denominator
    quots, convergents = [], []
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{-2}, q_{-2}, p_{-1}, q_{-1}
    while den and len(quots) < max_terms:
        a, rem = divmod(num, den)
        num, den = den, rem
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        quots.append(a)
        convergents.append((p1, q1))
    return ContinuedFraction(quotients=tuple(quots),
                             convergents=tuple(convergents), exact=den == 0)


def fractional_parts(alpha: AlphaSpec, n: int) -> np.ndarray:
    """{alpha k} for k = 0..n as machine floats, correctly rounded and below
    1, from integers only: {alpha k} = {(p mod q) k / q} for alpha = p / q,
    so the floors stay below k.  The k come a block at a time, so that
    beside the result only a block's points and floors are held."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p, q = alpha.rational.numerator, alpha.rational.denominator
    out = np.empty(n + 1)
    for k0 in range(0, n + 1, _ROWS):
        k = np.arange(k0, min(k0 + _ROWS, n + 1))[:, None]
        out[k0:k0 + len(k)] = _form_parts(0, [p % q], k, q)[1]
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
