"""Lattice construction, Lambda recursion and coefficient-field builders."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexleb.core import (
    CoefficientField,
    DilationVector,
    LambdaEvaluator,
    ResourceLimitError,
    build_lattice,
    fractional_coefficients,
    indicator_coefficients,
)
from simplexleb.kernels import slice_weight_matrix


def brute_force_points(entries):
    """Membership oracle: all integer points of the bounding box with
    sum_j k_j / n_j <= 1."""
    axes = [range(int(v) + 1) for v in entries]
    return sorted(
        k for k in itertools.product(*axes)
        if sum(kj / nj for kj, nj in zip(k, entries)) <= 1.0 + 1e-12
    )


def exact_lambdas(entries):
    """L_d(k') over the exact (d-1)-lattice, in Fraction arithmetic (a float
    entry is the dyadic rational it stores), in lexicographic order."""
    q = [Fraction(v) for v in entries]
    level = [Fraction(0)]                 # sum_j k_j / n_j per point
    for qj in q[:-1]:
        level = [used + Fraction(k) / qj for used in level
                 for k in range(math.floor(qj * (1 - used)) + 1)]
    return [q[-1] * (1 - used) for used in level]


entry_values = st.sampled_from([1.5, 2.0, 3.7, 5.0])


class TestDilationVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DilationVector(())

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            DilationVector((2.0, bad))

    def test_sorted_ascending(self):
        assert DilationVector((2, 3, 3)).sorted_ascending
        assert not DilationVector((3, 2)).sorted_ascending

    def test_ratios_exact(self):
        n = DilationVector((2.0, 3.0, 7.5))
        assert n.ratios(1) == (1.5,)
        assert n.ratios(2) == (7.5 / 2.0, 2.5)
        with pytest.raises(ValueError):
            n.ratios(3)


def lambda_at(n, s, xi):
    """L_s at the one point xi (s - 1 coordinates)."""
    return LambdaEvaluator(n).values(s, np.reshape(xi, (1, s - 1)))[0]


class TestLambdaEvaluator:
    def test_lambda_at_origin_is_ns(self):
        n = DilationVector((2.0, 9.5, 23.0))
        assert lambda_at(n, 1, ()) == 2.0
        assert lambda_at(n, 2, [0.0]) == 9.5
        assert lambda_at(n, 3, [0.0, 0.0]) == 23.0

    def test_strictly_decreasing_in_each_coordinate(self):
        n = DilationVector((2.0, 9.5, 23.0))
        base = lambda_at(n, 3, [1.0, 1.0])
        assert lambda_at(n, 3, [2.0, 1.0]) < base
        assert lambda_at(n, 3, [1.0, 2.0]) < base

    @given(st.lists(st.floats(1.0, 50.0), min_size=2, max_size=4),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_algebraic_equivalence(self, entries, data):
        """n_s - (m^(s-1), xi) == n_s (1 - sum xi_j / n_j) to roundoff."""
        n = DilationVector(tuple(entries))
        s = n.d
        xi = [data.draw(st.floats(0.0, e)) for e in entries[: s - 1]]
        lam = lambda_at(n, s, xi)
        alt = entries[s - 1] * (1.0 - sum(x / v for x, v in
                                          zip(xi, entries[: s - 1])))
        assert lam == pytest.approx(alt, abs=1e-9 * max(1.0, abs(alt)))


class TestBuildLattice:
    def test_count_2_2(self):
        assert len(build_lattice(DilationVector((2, 2))).points) == 6

    def test_count_3_3(self):
        assert len(build_lattice(DilationVector((3, 3))).points) == 10

    def test_1d_count(self):
        assert len(build_lattice(DilationVector((5.7,))).points) == 6

    @pytest.mark.parametrize("entries", list(itertools.product(
        [1.5, 2.0, 3.7, 5.0], repeat=2)))
    def test_matches_brute_force_2d(self, entries):
        lat = build_lattice(DilationVector(entries))
        assert sorted(map(tuple, lat.points)) == brute_force_points(entries)

    @given(st.lists(entry_values, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_any_d(self, entries):
        lat = build_lattice(DilationVector(tuple(entries)))
        assert sorted(map(tuple, lat.points)) == brute_force_points(entries)

    def test_lexicographic_order(self):
        lat = build_lattice(DilationVector((3.7, 5.0)))
        pts = list(map(tuple, lat.points))
        assert pts == sorted(pts)

    def test_monotonicity_in_n(self):
        small = len(build_lattice(DilationVector((2.0, 3.0))).points)
        large = len(build_lattice(DilationVector((2.5, 3.0))).points)
        assert small <= large

    def test_resource_limit(self):
        # refused from the simplex volume, before any point is enumerated
        with pytest.raises(ResourceLimitError) as exc:
            build_lattice(DilationVector((1e6, 1e6, 1e6)),
                          budget_bytes=10**6)
        assert exc.value.estimate == pytest.approx(24 * 1e18 / 6)
        # (2, 2): 6 points of two int64 coordinates fit 96 bytes exactly
        n = DilationVector((2, 2))
        assert len(build_lattice(n, budget_bytes=96).points) == 6
        with pytest.raises(ResourceLimitError):
            build_lattice(n, budget_bytes=95)

    def test_partial_dimension_lambda_next(self):
        n = DilationVector((2.0, 3.0))
        lat = build_lattice(n, 1)
        np.testing.assert_allclose(lat.lambda_parts.value, [3.0, 1.5, 0.0])


class TestIndicatorCoefficients:
    def test_2_2_six_unit_weights(self):
        fld = indicator_coefficients(build_lattice(DilationVector((2, 2))))
        assert fld.weights.sum() == 6
        assert set(np.unique(fld.weights)) <= {0.0 + 0j, 1.0 + 0j}

    def test_degenerate_origin_only(self):
        fld = indicator_coefficients(
            build_lattice(DilationVector((0.5, 0.5))))
        assert fld.extents == (1, 1)
        assert fld.weights[0, 0] == 1.0

    def test_1d_n5(self):
        fld = indicator_coefficients(build_lattice(DilationVector((5.0,))))
        np.testing.assert_array_equal(fld.weights, np.ones(6))

    def test_box_extents_are_maxima_plus_one(self):
        lat = build_lattice(DilationVector((3.7, 5.0)))
        fld = indicator_coefficients(lat)
        assert fld.extents == tuple(lat.points.max(axis=0) + 1)


class TestFractionalCoefficients:
    def test_integral_lambdas_give_zero(self):
        fld = fractional_coefficients(DilationVector((2, 4)))
        assert not fld.weights.any()

    def test_2_3_single_half_weight(self):
        fld = fractional_coefficients(DilationVector((2, 3)))
        np.testing.assert_allclose(fld.weights, [0.0, 0.5, 0.0])

    def test_1d_constant_convention(self):
        fld = fractional_coefficients(DilationVector((7.25,)))
        assert fld.s == 0
        assert complex(fld.weights) == 0.25

    def test_weights_in_unit_interval(self):
        fld = fractional_coefficients(DilationVector((3.7, 9.5)))
        w = fld.weights.real.ravel()
        assert np.all((0.0 <= w) & (w < 1.0))


class TestCertifiedLambdaParts:
    """Floors and fractional parts of L_d against exact Fraction arithmetic."""

    @staticmethod
    def check(entries):
        n = DilationVector(entries)
        lam = exact_lambdas(n.entries)
        parts = build_lattice(n, n.d - 1).lambda_parts
        floors = [math.floor(v) for v in lam]
        assert parts.floor.tolist() == floors, entries
        fracs = np.array([float(v - f) for v, f in zip(lam, floors)])
        np.testing.assert_allclose(parts.frac, fracs, rtol=0, atol=1e-12,
                                   err_msg=str(entries))
        assert len(build_lattice(n).points) == sum(f + 1 for f in floors), \
            entries

    def test_integer_pairs(self):
        for n1 in range(2, 64):
            for n2 in range(n1, 64):
                self.check((n1, n2))

    def test_short_decimal_tuples(self):
        decimals = [a / 10 for a in range(11, 100, 7)]
        for a, b in itertools.product(decimals, repeat=2):
            self.check((a, b))
            self.check((a, 2.3 * a, 1.9 * (2.3 * a)))
        for entries in [(5, 9.5, 23), (0.7, 2.1, 6.3), (1.5, 4.5, 9.0),
                        (2.4, 3.6, 7.2, 14.4)]:
            self.check(entries)

    def test_7_29_keeps_the_boundary_point(self):
        # float L_2(7) = 29 - 7 (29 / 7) is -3.6e-15; the exact value is 0
        lat = build_lattice(DilationVector((7, 29)))
        assert len(lat.points) == 121
        assert (7, 0) in set(map(tuple, lat.points))
        assert fractional_coefficients(DilationVector((7, 29))).weights[7] == 0


class TestSliceCoefficients:
    """Closed-form slice weights of S and Fcomposite on the (d-1)-lattice."""

    @staticmethod
    def weights(entries, kind, x_d):
        lam = build_lattice(DilationVector(entries), len(entries) - 1)
        return slice_weight_matrix(kind, lam.lambda_parts, [x_d])[0]

    def test_s_slice_limit_at_zero(self):
        np.testing.assert_allclose(self.weights((2, 3), "S", 0.0),
                                   [3.0, 1.5, 0.0])

    def test_fcomposite_at_zero_equals_fractional(self):
        n = DilationVector((3.7, 9.5))
        np.testing.assert_allclose(self.weights(n.entries, "Fcomposite", 0.0),
                                   fractional_coefficients(n).weights)

    def test_s_slice_at_pi(self):
        # Lambda(1) = 1: (e^{i pi} - 1) / (i pi) = 2i / pi
        assert self.weights((2, 2), "S", math.pi)[1] \
            == pytest.approx(2j / math.pi, abs=1e-14)

    def test_continuity_at_removable_singularity(self):
        lim = self.weights((2.0, 9.5), "S", 0.0)
        near = self.weights((2.0, 9.5), "S", 1e-6)
        np.testing.assert_allclose(near, lim, rtol=1e-5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            self.weights((2, 3), "Rdelta", 0.5)


def test_zero_dim_field_shape():
    fld = CoefficientField(weights=np.asarray(0.5 + 0j))
    assert fld.s == 0 and fld.extents == ()
