"""Closed-form growth predictors for the simplex Lebesgue constants.

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
from dataclasses import dataclass

from .core import DilationVector

__all__ = [
    "PredictorValue",
    "main_term",
    "eta_weights",
    "full_predictor",
    "remainder_envelope",
]


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
