"""Closed-form growth predictors for the simplex Lebesgue constants and the
residual/fit machinery that compares them with computed norms.

Natural logarithms throughout.  The main term for an ascending dilation
vector n with n_1 > 3 is

    (2^{d+1} / pi) (1 + sum_j ln n_1 / ln n_j) prod_i ln n_i,

and the correction functionals enter weighted by sums over binary vectors
eta with |eta| = d - k of prod_{i: eta_i = 1} ln(n_{d-i+1} / n_1); the index
is kept literal, so terms containing a ln(n_1/n_1) factor contribute 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DilationVector

__all__ = [
    "PredictorValue",
    "RegimeError",
    "main_term",
    "eta_weights",
    "full_predictor",
    "remainder_envelope",
    "corollary1_check",
    "corollary2_regime",
    "fit_envelope",
    "bilateral_fit",
]


class RegimeError(ValueError):
    """The input does not satisfy the hypothesis of the requested regime."""


@dataclass(frozen=True)
class PredictorValue:
    main: float
    correction_terms: tuple            # ((k, frak_value, eta_weight_sum), ...)
    envelope: float

    @property
    def total(self) -> float:
        return self.main + sum(f * w for _, f, w in self.correction_terms)


def _check_ascending_gt3(n: DilationVector):
    if not n.sorted_ascending:
        raise ValueError("entries must be ascending")
    if n.entries[0] <= 3.0:
        raise ValueError("all entries must exceed 3")


def main_term(n: DilationVector) -> float:
    """Leading logarithmic term; reduces to 2^{d+1}(d+1)/pi ln^d n isotropically."""
    _check_ascending_gt3(n)
    logs = [math.log(v) for v in n.entries]
    d = n.d
    return (2.0 ** (d + 1) / math.pi) * (1.0 + sum(logs[0] / lj for lj in logs)) \
        * math.prod(logs)


def eta_weights(n: DilationVector, k: int) -> list:
    """All binary eta with |eta| = d - k and their log-ratio product weights."""
    _check_ascending_gt3(n)
    d = n.d
    if not 2 <= k <= d:
        raise ValueError(f"need 2 <= k <= d={d}")
    out = []
    for ones in itertools.combinations(range(d), d - k):
        eta = tuple(1 if i in ones else 0 for i in range(d))
        w = 1.0
        for i in ones:
            # literal indexing: position i (0-based) carries n_{d-i}/n_1
            w *= math.log(n.entries[d - 1 - i] / n.entries[0])
        out.append((eta, w))
    return out


def remainder_envelope(n: DilationVector) -> float:
    """ln ln n_1 times the product of ln n_j over j >= 2."""
    logs = [math.log(v) for v in n.entries]
    return math.log(logs[0]) * math.prod(logs[1:]) if n.d > 1 \
        else math.log(logs[0])


def full_predictor(n: DilationVector, frak_values: dict) -> PredictorValue:
    """Main term plus the correction functionals weighted by the eta sums.

    ``frak_values`` maps k in 2..d to the computed functional value for the
    first k entries of n.
    """
    _check_ascending_gt3(n)
    terms = []
    for k in range(2, n.d + 1):
        if k not in frak_values:
            raise KeyError(f"missing correction functional for k={k}")
        wsum = sum(w for _, w in eta_weights(n, k))
        terms.append((k, float(frak_values[k]), wsum))
    return PredictorValue(main=main_term(n), correction_terms=tuple(terms),
                          envelope=remainder_envelope(n))


@dataclass(frozen=True)
class Corollary1Report:
    n1: float
    p: int
    lam_grid: tuple
    f_norms: tuple
    f_max_over_min: float
    residuals: tuple            # empty unless D norms were computed
    envelope_ratios: tuple


def corollary1_check(n1: float, lam_grid, p: int, norm_fn=None,
                     f_norm_fn=None) -> Corollary1Report:
    """Arithmetic-progression regime n_2 = lam * n_1 + p (d = 2).

    Reports the fractional-kernel norms across lam (these must show no
    lam-growth: the fractional weights depend only on p) and, when a D-norm
    callable is supplied, the residual against the main term alone, scaled
    by the remainder envelope.
    """
    from .norms import l1_norm as _l1
    lam_grid = tuple(int(v) for v in lam_grid)
    if any(v < 1 for v in lam_grid):
        raise ValueError("lambda values must be positive integers")
    if not 0 <= p < n1:
        raise ValueError("need 0 <= p < n1")
    if f_norm_fn is None:
        f_norm_fn = lambda nv: _l1("F", nv).value
    f_norms = []
    residuals = []
    ratios = []
    for lam in lam_grid:
        nv = DilationVector((n1, lam * n1 + p))
        f_norms.append(f_norm_fn(nv))
        if norm_fn is not None:
            r = norm_fn(nv) - main_term(nv)
            residuals.append(r)
            ratios.append(r / remainder_envelope(nv))
    finite = [v for v in f_norms if v > 0.0]
    ratio = (max(finite) / min(finite)) if finite else 1.0
    return Corollary1Report(
        n1=n1, p=p, lam_grid=lam_grid, f_norms=tuple(f_norms),
        f_max_over_min=ratio, residuals=tuple(residuals),
        envelope_ratios=tuple(ratios),
    )


@dataclass(frozen=True)
class Corollary2Report:
    n: tuple
    predictor: float
    envelope: float
    norm: float | None
    residual: float | None
    ratio: float | None


def corollary2_regime(n: DilationVector, norm: float | None = None,
                      min_log_ratio: float = 2.0) -> Corollary2Report:
    """Dominant-last-entry regime: the last log-ratio term is dropped into
    the envelope.  Rejects inputs whose ln n_d / ln n_{d-1} ratio is too
    small for the hypothesis to be meaningful at finite scale."""
    _check_ascending_gt3(n)
    if n.d < 2:
        raise RegimeError("regime requires d >= 2")
    logs = [math.log(v) for v in n.entries]
    if logs[-1] / logs[-2] < min_log_ratio:
        raise RegimeError(
            f"ln n_d / ln n_(d-1) = {logs[-1] / logs[-2]:.3f} < "
            f"{min_log_ratio}: regime hypothesis not met"
        )
    d = n.d
    predictor = (2.0 ** (d + 1) / math.pi) * \
        (1.0 + sum(logs[0] / logs[j] for j in range(d - 1))) * math.prod(logs)
    envelope = (logs[-2] / logs[-1] + math.log(logs[0]) / logs[0]) * \
        math.prod(logs)
    residual = ratio = None
    if norm is not None:
        residual = norm - predictor
        ratio = residual / envelope
    return Corollary2Report(n=n.entries, predictor=predictor,
                            envelope=envelope, norm=norm, residual=residual,
                            ratio=ratio)


@dataclass(frozen=True)
class EnvelopeFit:
    c_hat: float
    ratios: tuple
    monotone_increasing: bool
    monotone_decreasing: bool


def fit_envelope(residuals, envelopes) -> EnvelopeFit:
    """Empirical O-constant: max |residual| / envelope, with monotonicity
    diagnostics of the ratio sequence."""
    residuals = list(residuals)
    envelopes = list(envelopes)
    if not residuals or len(residuals) != len(envelopes):
        raise ValueError("need matching non-empty residual/envelope sequences")
    ratios = tuple(abs(r) / e for r, e in zip(residuals, envelopes))
    inc = all(a <= b for a, b in zip(ratios, ratios[1:]))
    dec = all(a >= b for a, b in zip(ratios, ratios[1:]))
    return EnvelopeFit(c_hat=max(ratios), ratios=ratios,
                       monotone_increasing=inc, monotone_decreasing=dec)


def bilateral_fit(ns, norms, d: int) -> tuple:
    """Fitted constants (C1_hat, C2_hat) for the bilateral bounds
    C1 ln^d(n+1) <= L <= C2 ln^d(n+1) over an isotropic dilation sweep."""
    ratios = [v / math.log(n + 1.0) ** d for n, v in zip(ns, norms)]
    if not ratios:
        raise ValueError("empty sweep")
    return min(ratios), max(ratios)
