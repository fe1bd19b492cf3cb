"""Continued fractions, certified fractional parts and the 1-D alpha study."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexleb
from simplexleb import core, irrational, norms
from simplexleb.core import DilationVector, fractional_coefficients
from simplexleb.irrational import (
    AlphaSpec,
    cf_expand,
    fractional_parts,
    study_ratio,
)
from simplexleb.kernels import _CHUNK_BYTES
from simplexleb.norms import l1_norm

from oracles import I_n, golden_floor


def determinant_identity_holds(cf) -> bool:
    """p_k q_{k-1} - p_{k-1} q_k = (-1)^{k-1}, exact integers."""
    pq = ((1, 0),) + cf.convergents
    return all(p1 * q0 - p0 * q1 == (-1) ** k
               for k, ((p0, q0), (p1, q1)) in enumerate(zip(pq, pq[1:]), 1))


class TestAlphaSpec:
    def test_rational_is_exact(self):
        a = AlphaSpec.from_rational(830, 186)
        assert a.rational == Fraction(415, 93)
        assert a.name == "rational:415/93"

    def test_liouville_truncation_value(self):
        a = AlphaSpec.liouville(10, 3)
        assert a.rational == Fraction(110001, 1000000)

    def test_liouville_validation(self):
        with pytest.raises(ValueError):
            AlphaSpec.liouville(1, 3)

    def test_liouville_depth_over_bit_bound_refused(self, monkeypatch):
        """base^{depth!} may have _ALPHA_BITS bits, not one more: 2^24
        has 25 bits."""
        monkeypatch.setattr(irrational, "_ALPHA_BITS", 25)
        assert AlphaSpec.liouville(2, 4).rational.denominator == 2 ** 24
        monkeypatch.setattr(irrational, "_ALPHA_BITS", 24)
        with pytest.raises(ValueError, match="more than 24 bits"):
            AlphaSpec.liouville(2, 4)
        with pytest.raises(ValueError, match="more than 24 bits"):
            AlphaSpec.liouville(1 << 30, 1)
        AlphaSpec.liouville(2, 3)

    def test_decimal_literal(self):
        a = AlphaSpec.from_decimal("0.7071")
        assert a.rational == Fraction(7071, 10000)

    def test_decimal_exponent_over_bit_bound_refused(self, monkeypatch):
        """10^|e| may have at most _ALPHA_BITS bits: at 24, 10^7 (24 bits)
        passes and 10^8 (27 bits) does not; the exponent is read before
        Fraction builds the power."""
        assert AlphaSpec.from_decimal("1e-1000").rational == \
            Fraction(1, 10 ** 1000)
        monkeypatch.setattr(irrational, "_ALPHA_BITS", 24)
        assert AlphaSpec.from_decimal("1e7").rational == 10 ** 7
        assert AlphaSpec.from_decimal("2.5E-7").rational == \
            Fraction(1, 4 * 10 ** 6)
        for literal in ("1e8", "1e-8", "0.5E+1_0 "):
            with pytest.raises(ValueError, match="more than 24 bits"):
                AlphaSpec.from_decimal(literal)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            AlphaSpec.from_rational(1, 0)

    def test_kind_without_value_rejected(self):
        # a name alone builds no alpha, golden's included: golden is the
        # convergent that AlphaSpec.golden() builds
        for name in ("pi", "golden"):
            with pytest.raises(ValueError, match="exact rational"):
                AlphaSpec(name)
        assert AlphaSpec.parse("golden") == AlphaSpec.golden()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.integers(-10**6, 10**6),
                  st.integers(-10**6, 10**6).filter(bool)).map(
            lambda pq: AlphaSpec.from_rational(*pq)),
        st.just(AlphaSpec.golden()),
        st.tuples(st.integers(2, 50), st.integers(1, 4)).map(
            lambda bd: AlphaSpec.liouville(*bd)),
        st.one_of(
            st.decimals(-10**6, 10**6, allow_nan=False).map(str),
            st.fractions(max_denominator=10**6).map(str),
            st.floats(-1e6, 1e6).map(repr)).map(AlphaSpec.from_decimal)))
    def test_parse_round_trips_name(self, alpha):
        assert AlphaSpec.parse(alpha.name) == alpha

    def test_parse_reads_the_spec_text(self):
        """Blanks around the text and inside rational:P / Q and
        liouville:B, M are allowed; rational:P stands for P/1."""
        assert AlphaSpec.parse(" rational:-6 / 4 ") == \
            AlphaSpec.from_rational(-3, 2)
        assert AlphaSpec.parse("rational:7").name == "rational:7/1"
        assert AlphaSpec.parse("liouville:2 ,4").name == "liouville:2,4"
        assert AlphaSpec.parse("dec:0.25").rational == Fraction(1, 4)


class TestContinuedFraction:
    def test_euclidean_oracle(self):
        cf = cf_expand(AlphaSpec.from_rational(415, 93))
        assert cf.quotients == (4, 2, 6, 7)
        assert cf.exact

    def test_golden_all_ones(self):
        cf = cf_expand(AlphaSpec.golden(), max_terms=20)
        assert cf.quotients == (1,) + (1,) * 19

    def test_liouville_factorial_denominators(self):
        cf = cf_expand(AlphaSpec.liouville(10, 3))
        denominators = {q for _, q in cf.convergents}
        assert {100, 10**6} <= denominators

    def test_determinant_identity(self):
        for spec in (AlphaSpec.from_rational(415, 93), AlphaSpec.golden(),
                     AlphaSpec.liouville(2, 4)):
            assert determinant_identity_holds(cf_expand(spec, max_terms=20))

    def test_denominators_increase(self):
        cf = cf_expand(AlphaSpec.golden(), max_terms=25)
        qs = [q for _, q in cf.convergents]
        assert all(a < b for a, b in zip(qs[1:], qs[2:]))

    def test_golden_is_a_convergent_within_2_to_the_minus_320(self):
        """golden is the Fibonacci convergent p / q with q >= 2^160: by an
        integer square root |p / q - phi| < 2^-320, and its first 64
        partial quotients, convergents and exact flag are phi's own, so
        the study flags the same convergent denominators."""
        alpha = AlphaSpec.golden()
        p, q = alpha.rational.numerator, alpha.rational.denominator
        assert q >= 1 << 160
        # |p 2^400 - q phi 2^400| <= |p 2^400 - [q phi 2^400]| + 1
        assert abs((p << 400) - golden_floor(q, 400)) + 1 <= q << 80
        fib = [1, 1]
        while len(fib) <= 64:
            fib.append(fib[-1] + fib[-2])
        cf = cf_expand(alpha, 64)
        assert cf.quotients == (1,) * 64
        assert cf.convergents == tuple(zip(fib[1:], fib[:-1]))
        assert not cf.exact

    def test_convergent_approximation_quality(self):
        cf = cf_expand(AlphaSpec.golden(), max_terms=20)
        alpha = (1 + math.sqrt(5)) / 2
        pq = cf.convergents
        for (p, q), (_, q_next) in zip(pq[1:], pq[2:]):
            assert abs(alpha - p / q) < 1.0 / (q * q_next)


class TestFractionalParts:
    def test_rational_exact_values(self):
        got = fractional_parts(AlphaSpec.from_rational(1, 2), 4)
        np.testing.assert_array_equal(got, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_certified_against_recomputation(self):
        a = AlphaSpec.golden()
        got = fractional_parts(a, 500)
        with mpmath.workprec(512):
            phi = (1 + mpmath.sqrt(5)) / 2
            for k in (1, 7, 123, 499, 500):
                exact = mpmath.frac(phi * k)
                assert abs(got[k] - float(exact)) <= 2.0**-40

    def test_golden_is_512_bit_value_rounded(self):
        # bit for bit the float nearest {phi k}, at small k and near 2^17
        got = fractional_parts(AlphaSpec.golden(), 131072)
        ks = list(range(2001)) + list(range(131072 - 500, 131073))
        with mpmath.workprec(512):
            phi = (1 + mpmath.sqrt(5)) / 2
            want = [float(mpmath.frac(phi * k)) for k in ks]
        np.testing.assert_array_equal(got[ks], want)

    @pytest.mark.parametrize("n", [8191, 8192, 3 * 8192 - 1, 3 * 8192])
    def test_golden_block_edges_are_512_bit_values(self, n):
        """k a is formed in blocks of 2^13 k: at each block's last and first
        k, and with n at a block edge, the value is the 512-bit one."""
        got = fractional_parts(AlphaSpec.golden(), n)
        ks = sorted({min(k, n) for b in range(1, n // 8192 + 2)
                     for k in (b * 8192 - 1, b * 8192)})
        with mpmath.workprec(512):
            phi = (1 + mpmath.sqrt(5)) / 2
            want = [float(mpmath.frac(phi * k)) for k in ks]
        np.testing.assert_array_equal(got[ks], want)

    def test_golden_peak_memory(self):
        """The k, their floors and the uint64 limbs of the sum come a block
        of 2^13 k at a time: beside the n + 1 floats returned,
        fractional_parts(golden, 2^17) holds under 1.5 MiB (tracemalloc:
        1.1 MiB; 14.3 MiB with the limbs of every k at once)."""
        golden = AlphaSpec.golden()
        tracemalloc.start()
        try:
            got = fractional_parts(golden, 1 << 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - got.nbytes <= 3 << 19

    @pytest.mark.parametrize("alpha", [AlphaSpec.golden(),
                                       AlphaSpec.from_rational(415, 93)],
                             ids=["golden", "rational"])
    def test_prefix_of_longer_run(self, alpha):
        full = fractional_parts(alpha, 4096)
        for n in (0, 1, 17, 1000, 4096):
            np.testing.assert_array_equal(full[:n + 1],
                                          fractional_parts(alpha, n))

    def test_golden_product_path_is_the_square_root_path(self):
        """Every k <= 2^17: the convergent's limbs give the floats of
        [k phi 2^128] mod 2^128 / 2^128, phi's own 128-bit fractions."""
        got = fractional_parts(AlphaSpec.golden(), 1 << 17)
        want = [(golden_floor(k, 128) & ((1 << 128) - 1)) / (1 << 128)
                for k in range(len(got))]
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def exact_rows(monkeypatch, guard):
        """golden's parts at k <= 2000 with the given guard bits, and the
        rows that took exact Python ints."""
        calls, exact = [], core._exact_parts

        def counted(*args):
            calls.append(args)
            return exact(*args)
        monkeypatch.setattr(core, "_GUARD_BITS", guard)
        monkeypatch.setattr(core, "_exact_parts", counted)
        return fractional_parts(AlphaSpec.golden(), 2000), calls

    def test_golden_fallback_keeps_values(self, monkeypatch):
        # with 4 guard bits the limbs cannot decide most floors
        want = fractional_parts(AlphaSpec.golden(), 2000)
        got, calls = self.exact_rows(monkeypatch, 4)
        np.testing.assert_array_equal(got, want)
        assert len(calls) > 1000

    def test_golden_guard_decides_row_by_row(self, monkeypatch):
        """With 12 guard bits the limbs decide a row whose guard has room
        for the block's k, and exact Python ints take the others, with the
        same floats."""
        want = fractional_parts(AlphaSpec.golden(), 2000)
        got, calls = self.exact_rows(monkeypatch, 12)
        np.testing.assert_array_equal(got, want)
        assert 0 < len(calls) < 2000

    def test_golden_python_tail_keeps_values(self, monkeypatch):
        """A block with a k at or past the limbs' bound (2^32, lowered to
        1000 here) takes Python integers, with the same floats."""
        want = fractional_parts(AlphaSpec.golden(), 2000)
        monkeypatch.setattr(core, "_LIMB_K", 1000)
        np.testing.assert_array_equal(
            fractional_parts(AlphaSpec.golden(), 2000), want)

    @pytest.mark.parametrize("alpha, wide", [
        (AlphaSpec.from_rational((1 << 50) + 1, (1 << 53) - 1), False),
        (AlphaSpec.from_rational(-(1 << 52) - 1, (1 << 53) - 1), True),
        (AlphaSpec.liouville(3, 5), True)], ids=["int64", "wide", "liouville"])
    def test_wide_rationals_are_the_python_int_values(self, alpha, wide):
        """(p mod q) n >= 2^62 at n = 4096: under int64's bound 2^63, then
        over it, and a Liouville alpha whose denominator 3^120 is over 2^53;
        each value is the Python integers' p k % q / q."""
        p, q = alpha.rational.numerator, alpha.rational.denominator
        assert p % q * 4096 >= 1 << 62
        assert (p % q * 4096 >= 1 << 63 or q > 1 << 53) == wide
        assert fractional_parts(alpha, 4096).tolist() == \
            [p * k % q / q for k in range(4097)]

    def test_huge_denominator_is_taken_in_chunks(self):
        """liouville:2,9 has a 362 880-bit denominator: its 1025 remainders
        alone would take 47 MiB at once, and with the numerators 94 MiB.
        The limbs hold 192-bit fractions, and only the rows they cannot
        decide form such remainders, one at a time (tracemalloc: 0.4 MiB;
        30 MiB in chunks of about 8 MiB of Python ints)."""
        alpha = AlphaSpec.liouville(2, 9)
        tracemalloc.start()
        try:
            fractional_parts(alpha, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 << 20

    def test_values_in_unit_interval(self):
        got = fractional_parts(AlphaSpec.liouville(2, 4), 200)
        assert np.all((got >= 0.0) & (got < 1.0))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            fractional_parts(AlphaSpec.golden(), -1)


class TestIn:
    def test_integer_alpha_vanishes(self):
        assert I_n(AlphaSpec.from_rational(3, 1), 16).value == 0.0

    def test_half_n4_closed_form(self):
        # weights 0, .5, 0, .5, 0 give kernel 0.5(e^{ix} + e^{3ix}), whose
        # modulus is |cos x|; the integral is exactly 4
        got = I_n(AlphaSpec.from_rational(1, 2), 4, tol=1e-7, rho=2048.0)
        assert got.value == pytest.approx(4.0, abs=1e-6)

    def test_golden_brute_force_oracle(self):
        n = 64
        w = fractional_parts(AlphaSpec.golden(), n)
        xs = np.linspace(-math.pi, math.pi, 200001)[:-1]
        vals = np.abs(np.exp(1j * np.outer(xs, np.arange(n + 1))) @ w)
        oracle = vals.mean() * 2 * math.pi
        got = I_n(AlphaSpec.golden(), n).value
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_golden_norm_peak_memory(self, monkeypatch):
        """At n = 2^17 the fold (131220, r) has slices of 2.1 MB complex,
        over _CHUNK_BYTES / 8: each is a batch of its own.  Beside the real
        weights the norm holds that buffer, the |v| scratch and the modes'
        indices, under two slices' bytes (tracemalloc: 3.5 MiB; 12.1 MiB
        with batches of 3 slices, complex weights and a twist array)."""
        golden = AlphaSpec.golden()
        w = fractional_parts(golden, 1 << 17)
        engine, shapes = norms.slice_batches, set()

        def recorded(*args):
            for fs, p, ns, w_sq, rows, v in engine(*args):
                shapes.add((w_sq.shape, (rows.start, rows.stop), v.shape))
                yield fs, p, ns, w_sq, rows, v
        monkeypatch.setattr(norms, "slice_batches", recorded)
        tracemalloc.start()
        try:
            irrational._kernel_norm(golden, w, 1e-3, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (F,) = {shape[1] for *_, shape in shapes}
        assert 16 * F >= _CHUNK_BYTES // 8
        assert {(batch, rows, shape[0]) for batch, rows, shape in shapes} == \
            {((1, 1), (0, 1), 1)}
        assert peak <= 2 * 16 * F

    @pytest.mark.parametrize("spec, m", [
        ("rational:355/113", 113), ("rational:7/3", 30),
        ("rational:22/7", 70), ("rational:5/2", 64), ("rational:5/2", 12),
        ("liouville:2,3", 64)])
    def test_equals_F_of_m_and_alpha_m(self, spec, m):
        """For alpha = p/q and m a multiple of q, {L_2(m - j)} = {alpha j}
        at n = (m, alpha m): F's coefficients are those of I_m(alpha) in
        reverse order, on the same grids, so ||F(m, alpha m)|| = I_m(alpha),
        one value from the rational part and one from the irrational study
        (arXiv 2004.12236).  liouville:2,3 is 49/64."""
        alpha = AlphaSpec.parse(spec)
        assert (alpha.rational * m).denominator == 1
        n = DilationVector((m, float(alpha.rational * m)))
        assert np.array_equal(fractional_coefficients(n).weights[::-1],
                              fractional_parts(alpha, m))
        got, want = l1_norm("F", n), I_n(alpha, m)
        assert got.grid == want.grid
        assert got.value == pytest.approx(want.value, rel=1e-13, abs=0)

    def test_shift_by_one_invariance(self):
        a = AlphaSpec.from_rational(5, 7)
        b = AlphaSpec.from_rational(12, 7)
        assert I_n(a, 32).value == pytest.approx(I_n(b, 32).value, rel=1e-12)


class TestStudyRatio:
    def test_single_entry_grid(self):
        recs = study_ratio(AlphaSpec.golden(), [64])
        assert len(recs) == 1
        assert recs[0].running_min == recs[0].running_max == recs[0].ratio

    def test_requires_increasing_grid(self):
        with pytest.raises(ValueError):
            study_ratio(AlphaSpec.golden(), [64, 32])

    def test_requires_n_at_least_2(self):
        # the ratio divides by ln^2 n
        with pytest.raises(ValueError, match=">= 2"):
            study_ratio(AlphaSpec.golden(), [1, 64])

    def test_rational_ratio_decays(self):
        recs = study_ratio(AlphaSpec.from_rational(415, 93),
                           [2**e for e in range(6, 12)])
        ratios = [r.ratio for r in recs]
        assert ratios[-1] < ratios[0]

    @pytest.mark.parametrize("alpha", [AlphaSpec.golden(),
                                       AlphaSpec.liouville(2, 4)],
                             ids=["golden", "liouville"])
    def test_values_equal_I_n(self, alpha):
        grid = [16, 47, 64, 300]
        recs = study_ratio(alpha, grid)
        assert [r.value for r in recs] == [I_n(alpha, n).value for n in grid]

    def test_convergent_denominators_flagged(self):
        recs = study_ratio(AlphaSpec.liouville(2, 4), [47, 64, 100])
        flags = {r.n: r.is_convergent_denominator for r in recs}
        assert flags[47] and flags[64] and not flags[100]


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh `import simplexleb` loads ``module``."""
    src = os.path.dirname(os.path.dirname(simplexleb.__file__))
    code = f"import sys, simplexleb; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=os.environ | {"PYTHONPATH": src}).stdout
    return out.strip() == "True"


def test_integer_path_bits_without_avx2():
    """The limbs, the int64 path and their one float conversion give the
    same bytes under numpy's X86_V2 loops (a host without AVX2) as here."""
    specs = ["golden", "liouville:3,5", "rational:355/113"]
    here = b"".join(fractional_parts(AlphaSpec.parse(spec), 4096).tobytes()
                    for spec in specs)
    src = os.path.dirname(os.path.dirname(simplexleb.__file__))
    code = ("import sys; from simplexleb.irrational import AlphaSpec, "
            "fractional_parts as f; sys.stdout.write(b''.join(f(AlphaSpec."
            f"parse(s), 4096).tobytes() for s in {specs!r}).hex())")
    env = os.environ | {"PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES":
                        "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert bytes.fromhex(out) == here


def test_import_leaves_mpmath_unloaded():
    # mpmath is only the test oracle; the package computes with integers
    assert not _loaded_by_import("mpmath")


def test_import_leaves_scipy_unloaded():
    # every transform is numpy's; scipy is only a test oracle
    assert not _loaded_by_import("scipy")
