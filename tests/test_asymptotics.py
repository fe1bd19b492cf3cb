"""Closed-form growth predictors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexleb.asymptotics import (
    eta_weights,
    full_predictor,
    main_term,
    remainder_envelope,
)
from simplexleb.core import DilationVector


class TestMainTerm:
    @given(st.floats(3.1, 1e6), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_isotropic_reduction(self, n, d):
        got = main_term(DilationVector((n,) * d))
        want = (2 ** (d + 1) * (d + 1) / math.pi) * math.log(n) ** d
        assert got == pytest.approx(want, rel=1e-12)

    def test_2d_hand_value(self):
        got = main_term(DilationVector((math.e**2, math.e**3)))
        assert got == pytest.approx(128 / math.pi, rel=1e-12)

    def test_2d_closed_form(self):
        n1, n2 = 7.0, 19.0
        got = main_term(DilationVector((n1, n2)))
        want = (16 / math.pi) * math.log(n1) * math.log(n2) \
            + (8 / math.pi) * math.log(n1) ** 2
        assert got == pytest.approx(want, rel=1e-12)

    def test_d3_expansion(self):
        n1, n2, n3 = 5.0, 11.0, 31.0
        got = main_term(DilationVector((n1, n2, n3)))
        l1, l2, l3 = (math.log(v) for v in (n1, n2, n3))
        want = (16 / math.pi) * (2 * l1 * l2 * l3 + l2 * l1**2 + l3 * l1**2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_small_entries(self):
        with pytest.raises(ValueError):
            main_term(DilationVector((2.0, 5.0)))

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            main_term(DilationVector((9.0, 5.0)))


class TestEtaWeights:
    def test_d2_k2_single_empty_product(self):
        got = eta_weights(DilationVector((5.0, 9.0)), 2)
        assert got == [((0, 0), 1.0)]

    def test_d3_k2_weights(self):
        n1, n2, n3 = 4.0, 9.0, 25.0
        got = eta_weights(DilationVector((n1, n2, n3)), 2)
        weights = sorted(w for _, w in got)
        want = sorted([math.log(n3 / n1), math.log(n2 / n1), 0.0])
        assert weights == pytest.approx(want, abs=1e-12)

    def test_isotropic_nontrivial_weights_vanish(self):
        got = eta_weights(DilationVector((7.0, 7.0, 7.0)), 2)
        assert all(w == 0.0 for _, w in got)

    def test_count_is_binomial(self):
        n = DilationVector((4.0, 5.0, 6.0, 7.0))
        assert len(eta_weights(n, 2)) == 6  # C(4, 2)
        assert len(eta_weights(n, 4)) == 1

    def test_nonnegative_for_ascending(self):
        got = eta_weights(DilationVector((4.0, 9.0, 25.0, 100.0)), 3)
        assert all(w >= 0 for _, w in got)


class TestFullPredictor:
    def test_d2_is_main_plus_single_correction(self):
        n = DilationVector((7.0, 19.0))
        pred = full_predictor(n, {2: 3.25})
        assert pred.total == pytest.approx(main_term(n) + 3.25, rel=1e-12)

    def test_missing_correction_rejected(self):
        with pytest.raises(KeyError):
            full_predictor(DilationVector((4.0, 5.0, 6.0)), {2: 0.0})

    def test_envelope_formula(self):
        n = DilationVector((7.0, 19.0, 40.0))
        want = math.log(math.log(7.0)) * math.log(19.0) * math.log(40.0)
        assert full_predictor(n, {2: 0.0, 3: 0.0}).envelope \
            == pytest.approx(want, rel=1e-12)

    def test_isotropic_reduces_to_top_correction(self):
        n = DilationVector((9.0, 9.0, 9.0))
        pred = full_predictor(n, {2: 5.0, 3: 7.0})
        # eta-weights multiplying the k=2 functional all contain ln(1) = 0
        assert pred.total == pytest.approx(main_term(n) + 7.0, rel=1e-12)


class TestRemainderEnvelope:
    def test_formula(self):
        got = remainder_envelope(DilationVector((7.0, 19.0)))
        assert got == pytest.approx(
            math.log(math.log(7.0)) * math.log(19.0), rel=1e-12)
