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
    ResourceLimitError,
    _form_parts,
    build_lattice,
    fractional_coefficients,
    indicator_coefficients,
    lambda_parts_at,
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


def lambda_at(n, s, k):
    """The parts of L_s at the one integer point k (s - 1 coordinates)."""
    parts = lambda_parts_at(n, s, np.reshape(k, (1, s - 1)))
    return [float(a[0]) for a in parts]


class TestLambdaEvaluator:
    """L_s and its exact parts, from core.lambda_parts_at."""

    def test_lambda_at_origin_is_ns(self):
        n = DilationVector((2.0, 9.5, 23.0))
        assert lambda_at(n, 1, ()) == [2.0, 2.0, 0.0]
        assert lambda_at(n, 2, [0]) == [9.5, 9.0, 0.5]
        assert lambda_at(n, 3, [0, 0]) == [23.0, 23.0, 0.0]

    def test_strictly_decreasing_in_each_coordinate(self):
        n = DilationVector((2.0, 9.5, 23.0))
        base = lambda_at(n, 3, [1, 1])[0]
        assert lambda_at(n, 3, [2, 1])[0] < base
        assert lambda_at(n, 3, [1, 2])[0] < base

    @given(st.lists(st.floats(1.0, 50.0), min_size=2, max_size=4),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_algebraic_equivalence(self, entries, data):
        """n_s - (m^(s-1), k) == n_s (1 - sum k_j / n_j), exactly, at
        integer points inside and outside the lattice."""
        n = DilationVector(tuple(entries))
        s = n.d
        k = [data.draw(st.integers(0, 2 * int(e))) for e in entries[: s - 1]]
        q = [Fraction(v) for v in entries]
        exact = q[-1] * (1 - sum(kj / qj for kj, qj in zip(k, q)))
        floor = math.floor(exact)
        frac = min(float(exact - floor), 1.0 - 2.0**-53)
        assert lambda_at(n, s, k) == [floor + frac, floor, frac]


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
    """Floors, fractional parts and values of L_d against exact Fraction
    arithmetic: {L} correctly rounded (kept below 1), value = [L] + {L}."""

    @staticmethod
    def check(entries, count=True):
        n = DilationVector(entries)
        lam = exact_lambdas(n.entries)
        parts = build_lattice(n, n.d - 1).lambda_parts
        floors = [math.floor(v) for v in lam]
        fracs = [min(float(v - f), 1.0 - 2.0**-53)
                 for v, f in zip(lam, floors)]
        assert parts.floor.tolist() == floors, entries
        assert parts.frac.tolist() == fracs, entries
        assert parts.value.tolist() == [f + r for f, r in zip(floors, fracs)]
        assert not count or len(build_lattice(n).points) == \
            sum(f + 1 for f in floors), entries

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

    @pytest.mark.parametrize("big", [1537228672809128960,
                                     3074457345618258944])
    def test_either_side_of_the_int64_bound(self, big):
        """For (3, N), 3 L_2(k) = 3N - N k with k <= 3.  The first N is the
        largest float with 3N + 3N < 2^63 that 3 does not divide (int64); the
        second the least with 3N >= 2^63 (Python ints: int64 cannot even
        hold 3N)."""
        assert float(big) == big and big % 3
        self.check((3, big), count=False)  # the d-lattice has 2N points

    @pytest.mark.parametrize("entries", [(0.3, 5000), (0.3, 0.5, 5000),
                                         (1e-30, 1000)])
    def test_coefficients_past_int64_at_the_origin_alone(self, entries):
        """n_1 < 1 leaves only the origin below level d, so max k = 0, but
        den n_d / n_1 is about -1.8e19 and does not fit int64.  For (1e-30,
        1000) it is 1e33 den, and still the floors, at most 1000, fit."""
        self.check(entries)

    def test_floors_past_int64_are_refused(self):
        """A floor c0 / den fits int64 below 2^63 and is refused from 2^63
        on, before any chunk is computed; so is L_2(0) = 10^25 of (1e-20,
        1e25)."""
        origin = np.zeros((1, 0), dtype=np.int64)
        assert _form_parts((3 << 63) - 1, [], origin, 3)[0].tolist() == \
            [(1 << 63) - 1]
        with pytest.raises(ValueError, match="2\\^63"):
            _form_parts(3 << 63, [], origin, 3)
        with pytest.raises(ValueError, match="2\\^83 .* 2\\^63"):
            build_lattice(DilationVector((1e-20, 1e25)), 1).lambda_parts

    @pytest.mark.parametrize("e", [50, 52])
    def test_either_side_of_the_exact_division_bound(self, e):
        """For (7, x), x = 1 + 2^-e, den = 7 2^e: below 2^53 for e = 50
        (int64, one float division), above it for e = 52, where a float
        remainder would round two of the fractional parts wrongly."""
        self.check((7, 1.0 + 2.0**-e))

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
