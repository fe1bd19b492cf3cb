"""Pointwise kernel evaluation, grid synthesis and the difference operator."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexleb.core import (
    CoefficientField,
    DilationVector,
    ResourceLimitError,
    build_lattice,
    fractional_coefficients,
    indicator_coefficients,
)
from simplexleb.kernels import (
    _grid_phases,
    _grid_weights,
    _runs,
    apply_delta,
    reduce_torus,
    slice_weight_matrix,
)
from simplexleb.norms import (
    MAX_DOUBLINGS,
    NormConvergenceError,
    _fast_len,
    _field_source,
    _fold,
    _folded_source,
    _kernel_source,
    _passes,
    first_grid,
    l1_norm,
    l1_norm_field,
    slice_batches,
)

from simplexleb import norms

from oracles import (
    axis_nodes,
    eval_D,
    eval_F,
    eval_R,
    eval_S,
    grid_eval,
    s_via_delta,
)


def engine_values(points, weights, M, budget_bytes=1 << 30):
    """The slice engine's values of a one-field stack on the grid M: its
    blocks' rows are the x_s slices in order; each block is copied, since
    the engine reuses its buffer for the next."""
    blocks = slice_batches(points, weights, _passes(M),
                           budget_bytes=budget_bytes)
    v = np.concatenate([v.copy() for *_, v in blocks])
    v = v.reshape((M[-1],) + tuple(M[:-1]))
    return np.moveaxis(v, 0, -1) * math.prod(M[:-1])


def folded_values(weights, m, budget_bytes=1 << 30):
    """The slice engine's values of a stack of 1-D fields (H, K) on the grid
    m, shape (H, m), from their fold (F, m / F): node t = q + r u is node u
    of the x_s slice q; row r of a batch is field fs.start + r // len(ns) at
    the node ns[r % len(ns)]."""
    F = _fold(weights.shape[1], m)
    M = (F, m // F)
    points, source, _ = _folded_source(weights, M, budget_bytes)
    values = np.empty((len(weights),) + M, dtype=complex)
    for fs, _, ns, _, rows, v in slice_batches(points, source, _passes(M),
                                               budget_bytes, len(weights)):
        r = np.arange(rows.start, rows.stop)
        values[fs.start + r // len(ns), :,
               np.array(ns)[r % len(ns)]] = v * F
    return values.reshape(len(weights), m)


def grid_weights(kind, lam, t, m, out=None):
    """_grid_weights' weights of every node of the range t of the grid m:
    its writer's rows 0..len(t) - 1, into ``out`` if given."""
    return _grid_weights(kind, lam, t, m)(slice(0, len(t)), out)


def engine_grid(kernel, n, M):
    """The slice engine's values of a d-kernel on the grid M, shape M."""
    points, weights, _ = _kernel_source(kernel, build_lattice(n, n.d - 1), M)
    return engine_values(points, weights, M)


def brute_force_D(entries, x):
    """Box sum over the exact lattice: membership in Fraction arithmetic (a
    float entry is the dyadic rational it stores)."""
    total = 0.0 + 0.0j
    q = [Fraction(v) for v in entries]
    axes = [range(int(v) + 1) for v in entries]
    for k in itertools.product(*axes):
        if sum(Fraction(kj) / qj for kj, qj in zip(k, q)) <= 1:
            total += np.exp(1j * np.dot(k, x))
    return total


class TestReduceTorus:
    def test_range(self):
        xs = reduce_torus(np.array([-math.pi, math.pi, 3 * math.pi, -7.0]))
        assert np.all((-math.pi < xs) & (xs <= math.pi))

    def test_periodicity(self):
        x = np.array([0.3, -2.9])
        np.testing.assert_allclose(reduce_torus(x + 2 * math.pi),
                                   reduce_torus(x), atol=1e-12)


class TestEvalD:
    def test_value_at_origin_is_count(self):
        assert eval_D(DilationVector((2, 2)), [0.0, 0.0]) == pytest.approx(6)

    def test_1d_alternating_sum(self):
        assert eval_D(DilationVector((5.0,)), [math.pi]) \
            == pytest.approx(0.0, abs=1e-12)

    def test_2_3_against_brute_force(self):
        x = [math.pi, math.pi / 2]
        got = eval_D(DilationVector((2, 3)), x)
        assert got == pytest.approx(brute_force_D((2.0, 3.0), x), abs=1e-12)

    @given(st.lists(st.floats(0.5, 9.0), min_size=1, max_size=3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_against_brute_force(self, entries, data):
        x = [data.draw(st.floats(-math.pi, math.pi)) for _ in entries]
        got = eval_D(DilationVector(tuple(entries)), x)
        want = brute_force_D(entries, x)
        assert got == pytest.approx(want, abs=1e-9)

    def test_near_integer_entry_against_brute_force(self):
        # 1/2 + 1/1.9999999999999982 exceeds 1, so (1, 1) is not a point;
        # a float membership test with slack 1e-12 counted it
        entries = [2.0, 1.9999999999999982]
        assert brute_force_D(entries, [0.0, 0.0]) == 4
        assert eval_D(DilationVector(tuple(entries)), [0.0, 0.0]) \
            == pytest.approx(4, abs=1e-9)

    def test_conjugate_symmetry(self):
        n = DilationVector((3.7, 9.5))
        x = np.array([0.7, -1.3])
        assert eval_D(n, -x) == pytest.approx(np.conj(eval_D(n, x)),
                                              abs=1e-12)

    def test_periodicity_all_axes(self):
        n = DilationVector((2, 3))
        x = np.array([0.4, 1.1])
        shifted = x + 2 * math.pi
        assert eval_D(n, shifted) == pytest.approx(eval_D(n, x), abs=1e-10)


class TestEvalF:
    def test_integral_lambdas_vanish(self):
        assert eval_F(DilationVector((2, 4)), [0.8]) == 0.0

    def test_2_3_at_zero(self):
        assert eval_F(DilationVector((2, 3)), [0.0]) == pytest.approx(0.5)

    def test_2_3_at_pi(self):
        assert eval_F(DilationVector((2, 3)), [math.pi]) \
            == pytest.approx(-0.5, abs=1e-12)

    def test_conjugate_symmetry(self):
        n = DilationVector((3.7, 9.5))
        assert eval_F(n, [-0.9]) == pytest.approx(
            np.conj(eval_F(n, [0.9])), abs=1e-12)


class TestEvalS:
    def test_requires_d2(self):
        with pytest.raises(ValueError):
            eval_S(DilationVector((5.0,)), [0.1])

    def test_limit_at_zero(self):
        assert eval_S(DilationVector((2, 2)), [0.0, 0.0]) == pytest.approx(3)

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(3)
        n = DilationVector((3.7, 9.5))
        for x in rng.uniform(-math.pi, math.pi, size=(100, 2)):
            value = eval_S(n, x)
            assert abs(value - s_via_delta(n, x)) <= \
                1e-10 * max(abs(value), 1.0)


class TestEvalR:
    def test_rejects_bad_nu_max(self):
        with pytest.raises(ValueError):
            eval_R(DilationVector((2, 3)), [0.1, 0.1], nu_max=0)

    def test_zero_slice_reduces_to_head_kernel(self):
        """At x_d = 0 the truncated series vanishes and the value equals the
        (d-1)-dimensional kernel of the leading entries, with zero tail."""
        n = DilationVector((2, 3))
        x_prime = [0.7]
        value, tail = eval_R(n, x_prime + [0.0], nu_max=16)
        assert tail == 0.0
        assert value == pytest.approx(eval_D(DilationVector(n.entries[:1]), x_prime), abs=1e-12)

    def test_tail_decreases_with_nu_max(self):
        n = DilationVector((2, 3))
        x = [1.0, 1.0]
        _, t1 = eval_R(n, x, nu_max=100)
        _, t2 = eval_R(n, x, nu_max=200)
        assert t2 < t1

    def test_series_matches_term_by_term_sum(self):
        """The chunked nu-series against R's definition summed one nu and
        one mode at a time, across several nu chunks."""
        n = DilationVector((3.7, 9.5, 23.0))
        x = np.array([0.4, -1.3, 2.1])
        nu_max = 2**16   # four chunks for 24 modes and one point
        lat = build_lattice(n, 2)
        lam = lat.lambda_parts.value
        ph = np.exp(1j * (lat.points @ x[:-1]))
        want = 0.5 * np.sum(ph * (np.exp(1j * lam * x[-1]) + 1.0))
        nu = np.arange(1.0, nu_max + 1)
        nu = np.concatenate([nu, -nu])
        h = 2 * math.pi * nu + x[-1]
        series = sum(np.sum((np.exp(1j * h * lk) - 1.0) / (nu * h)) * pk
                     for lk, pk in zip(lam, ph))
        want -= x[-1] / (2j * math.pi) * series
        got, _ = eval_R(n, x, nu_max=nu_max)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_truncation_stabilizes_within_tail(self):
        n = DilationVector((2, 3))
        x = [1.0, 1.0]
        v1, tail = eval_R(n, x, nu_max=10**4)
        v2, _ = eval_R(n, x, nu_max=2 * 10**4)
        assert abs(v1 - v2) <= tail


class TestApplyDelta:
    def test_zero_shift_gives_zero_field(self):
        fld = indicator_coefficients(build_lattice(DilationVector((2, 3))))
        out = apply_delta(fld, 0.0, [0.5, 1.0 / 3.0])
        assert not out.weights.any()

    def test_unit_dot_mode_annihilated(self):
        fld = CoefficientField(weights=np.array([0.0, 1.0 + 0j]))
        out = apply_delta(fld, 1.7, [1.0])
        assert out.weights[1] == pytest.approx(0.0, abs=1e-15)

    def test_pointwise_oracle(self):
        """Synthesis of the output equals e^{ih} f(x - h xi) - f(x)."""
        rng = np.random.default_rng(11)
        w = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        fld = CoefficientField(weights=w)
        h, xi = 0.83, np.array([0.4, -0.25])
        out = apply_delta(fld, h, xi)
        ks = np.indices(w.shape).reshape(2, -1).T
        for x in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            def synth(weights, point):
                return np.sum(weights.ravel() * np.exp(1j * ks @ point))
            want = np.exp(1j * h) * synth(w, x - h * xi) - synth(w, x)
            assert synth(out.weights, x) == pytest.approx(want, abs=1e-10)


class TestGridSpec:
    """The grids of the norms: the first grid, its nodes and its doublings."""

    def test_oversampling_floor(self):
        M = first_grid((6, 10), 4.0, 1e-3, 1 << 30)
        for m, e in zip(M, (6, 10)):
            assert m >= 4 * e

    def test_axis_nodes(self):
        np.testing.assert_allclose(axis_nodes(4),
                                   [-math.pi, -math.pi / 2, 0, math.pi / 2])

    def test_doubled(self):
        n = DilationVector((7.3, 19.6))
        with pytest.raises(NormConvergenceError) as exc:
            l1_norm("D", n, tol=1e-16)
        grids = [M for M, _ in exc.value.history]
        assert grids[0] == first_grid((8, 20), 4.0, 1e-16, 1 << 30, False)
        assert grids == [tuple(m << j for m in grids[0])
                         for j in range(MAX_DOUBLINGS + 1)]

    def test_fast_len_is_scipys_next_fast_len(self):
        ns = range(1, (1 << 20) + 1)
        bad = [n for n in ns if _fast_len(n) != scipy.fft.next_fast_len(n)]
        assert bad == []

    def test_fast_len_refuses_2_63_before_any_search(self, monkeypatch):
        # the lengths up to 2^1000 alone would not fit any memory
        monkeypatch.setattr(norms, "_smooth_lengths", None)
        for n in (1 << 63, 1 << 1000):
            with pytest.raises(ValueError, match="2\\^63"):
                _fast_len(n)


class TestGridEval:
    def test_matches_pointwise_everywhere(self):
        n = DilationVector((2, 2))
        fld = indicator_coefficients(build_lattice(n))
        gf = grid_eval(fld, (16, 16))
        nodes = axis_nodes(16)
        for t0 in range(16):
            for t1 in range(16):
                x = [nodes[t0], nodes[t1]]
                assert gf.values[t0, t1] == pytest.approx(eval_D(n, x),
                                                          abs=1e-10)

    def test_constant_field_all_ones(self):
        fld = CoefficientField(weights=np.array([1.0 + 0j, 0.0]))
        gf = grid_eval(fld, (8,))
        np.testing.assert_allclose(gf.values, np.ones(8), atol=1e-12)

    def test_parseval_exact(self):
        n = DilationVector((3.7, 5.0))
        fld = indicator_coefficients(build_lattice(n))
        gf = grid_eval(fld, (32, 32))
        discrete = np.sum(np.abs(gf.values) ** 2) / 32**2
        exact = np.sum(np.abs(fld.weights) ** 2)
        assert discrete == pytest.approx(exact, rel=1e-10)

    def test_rejects_undersized_grid(self):
        fld = indicator_coefficients(build_lattice(DilationVector((9.0,))))
        with pytest.raises(ValueError):
            grid_eval(fld, (8,))


class TestGridEvalSliced:
    """The norm engine's x_d-slice batches against pointwise evaluation."""

    def test_fcomposite_zero_for_integral_lambdas(self):
        vals = engine_grid("Fcomposite", DilationVector((2, 4)), (12, 12))
        assert np.abs(vals).max() == pytest.approx(0.0, abs=1e-14)

    def test_s_row_at_zero_matches_limit(self):
        n = DilationVector((2, 3))
        vals = engine_grid("S", n, (16, 16))
        t0 = 8  # node x_d = 0
        assert axis_nodes(16)[t0] == 0.0
        for t, x1 in enumerate(axis_nodes(16)):
            want = eval_S(n, [x1, 0.0])
            assert vals[t, t0] == pytest.approx(want, abs=1e-10)

    def test_identity_on_grid(self):
        """The closed-form R weights equal eval_R's nu-series at every node,
        within its truncation tail."""
        n = DilationVector((2.0, 3.5))
        nu_max = 2**10
        vals = engine_grid("R", n, (12, 12))
        slack = 1e-9 * len(build_lattice(n).points)
        for t0, x0 in enumerate(axis_nodes(12)):
            for t1, x1 in enumerate(axis_nodes(12)):
                if x1 > -math.pi:
                    want, tail = eval_R(n, [x0, x1], nu_max=nu_max)
                else:
                    # eval_R reduces x_d = -pi to +pi, where R (like S) has
                    # another value; R(-x) = conj R(x) reaches the node
                    want, tail = eval_R(n, [-x0, math.pi], nu_max=nu_max)
                    want = want.conjugate()
                assert abs(vals[t0, t1] - want) <= tail + slack

    def test_engine_d_matches_dense_grid(self):
        for entries, M in [((3.7, 9.5), (24, 48)), ((2.0, 3.5, 7.0), (12, 20, 32))]:
            n = DilationVector(entries)
            dense = grid_eval(indicator_coefficients(build_lattice(n)),
                              M).values
            vals = engine_grid("D", n, M)
            assert np.abs(vals - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("extents, M", [
        ((7,), (37,)),
        ((5, 9), (23, 29)),
        ((3, 5, 7), (17, 19, 31)),
    ])
    def test_engine_field_matches_dense_grid(self, extents, M):
        """Coefficient fields: odd extents, grid lengths that are not
        FFT-fast, and batches of three x_s nodes."""
        rng = np.random.default_rng(len(extents))
        fld = CoefficientField(weights=rng.standard_normal(extents)
                               + 1j * rng.standard_normal(extents))
        dense = grid_eval(fld, M).values
        if len(M) == 1:  # a 1-D field runs on its fold (37, 1)
            for budget in (1 << 30, 3 * 16 * M[0]):
                vals = folded_values(fld.weights[None], M[0], budget)[0]
                assert np.abs(vals - dense).max() <= \
                    1e-12 * np.abs(dense).max()
            return
        points, weights, _ = _field_source(fld.weights[None], M, 1 << 30)
        for budget in (1 << 30, 3 * 16 * math.prod(M[:-1])):
            vals = engine_values(points, weights, M, budget)
            assert np.abs(vals - dense).max() <= \
                1e-12 * np.abs(dense).max()

    def test_engine_field_rejects_undersized_grid(self):
        fld = CoefficientField(weights=np.ones((3, 9), dtype=complex))
        with pytest.raises(ValueError, match="below box extent 9"):
            _field_source(fld.weights[None], (4, 8), 1 << 30)


class TestGridSliceWeights:
    """Slice weights at a batch of grid nodes t, whose phases come from
    tables, against np.exp at the same nodes x_t = -pi + 2 pi t / M_s."""

    LAM = build_lattice(DilationVector((3.7, 9.5, 23.0)), 2).lambda_parts

    @staticmethod
    def batches(m):
        """From 0; across M_s/2; up to [M_s/2], from 0 and from below."""
        half = m // 2
        return [range(0, 5), range(half - 3, half + 4), range(0, half + 1),
                range(half - 4, half + 1)]

    def pointwise(self, kind, t, m):
        nodes = axis_nodes(m)[t.start:t.stop]
        return slice_weight_matrix(kind, self.LAM, nodes)

    @pytest.mark.parametrize("m", [45, 16, 1540])
    @pytest.mark.parametrize("kind", ["D", "S", "Fcomposite"])
    def test_tables_match_exp(self, kind, m):
        for t in self.batches(m):
            want = self.pointwise(kind, t, m)
            got = grid_weights(kind, self.LAM, t, m)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("m", [45, 16, 1540])
    def test_r_tables_within_its_parts_bound(self, m):
        """w_R = w_D - w_S + w_Fcomposite cancels near x = 0, so its error
        is bounded absolutely: by 1e-12 times the sum of its parts' largest
        weights, the bound each part meets above."""
        for t in self.batches(m):
            bound = 1e-12 * sum(np.abs(self.pointwise(k, t, m)).max()
                                for k in ("D", "S", "Fcomposite"))
            got = grid_weights("R", self.LAM, t, m)
            assert np.abs(got - self.pointwise("R", t, m)).max() <= bound

    def test_zero_node_found_by_index(self):
        """x_770 of M_s = 1540 is 0 but its float is not: the tables find
        it as 2 t = M_s and give D and S their limits [L] + 1 and L."""
        assert axis_nodes(1540)[770] != 0.0
        t = range(770, 771)
        np.testing.assert_allclose(
            grid_weights("D", self.LAM, t, 1540)[0],
            self.LAM.floor + 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            grid_weights("S", self.LAM, t, 1540)[0], self.LAM.value,
            rtol=1e-12)


    @pytest.mark.parametrize("kind", ["D", "S", "Fcomposite", "R"])
    def test_written_into_out(self, kind):
        """Given ``out``, here the first P' columns of a wider buffer as the
        engine passes it, the weights are written there, equal to the
        allocated ones.  For its batch the writer keeps one np.exp table of
        q = isqrt(len(t)) rows a phase (two phases for D, three for R, one
        for S and Fcomposite), with its mu and a column a node within a
        tenth more.  From before the writer is made to the end of the write
        the peak, beside ``out``, is at most one P'-wide array, D's real
        sines (half of ``out``) or R's second phase table (one), and the
        tables and numpy's buffers, within a quarter of ``out`` for these
        400 nodes of 441 modes."""
        lam = build_lattice(DilationVector((20.5, 40.5, 80.0)), 2).lambda_parts
        m, t = 1540, range(1, 1540, 2)[:400]
        want = grid_weights(kind, lam, t, m)
        modes = len(lam.value)
        buf = np.zeros((len(t), 4 * modes), complex)
        tracemalloc.start()
        try:
            write = _grid_weights(kind, lam, t, m)
            kept = tracemalloc.get_traced_memory()[0]
            got = write(slice(0, len(t)), buf[:, :modes])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, buf)
        assert np.array_equal(buf[:, :modes], want)
        assert not buf[:, modes:].any()
        tables = {"D": 2, "R": 3}.get(kind, 1) * math.isqrt(len(t))
        assert kept <= 1.1 * tables * modes * 16
        held = {"D": 0.5, "R": 1.0}.get(kind, 0.0)
        assert peak <= (held + 1 / 4) * want.nbytes

    @pytest.mark.parametrize("kind", ["D", "S", "Fcomposite", "R"])
    def test_blocks_keep_the_bits_of_the_batch(self, kind):
        """A batch written in blocks, each starting or ending anywhere in a
        group of q = isqrt(B) rows, has the bits of the batch written at
        once: its tables are the batch's, whatever the rows."""
        rng = np.random.default_rng(3)
        for m, t in ((1540, range(1, 1540, 2)[:400]), (45, range(0, 23)),
                     (3080, range(0, 3080, 2)[17:340])):
            write = _grid_weights(kind, self.LAM, t, m)
            want = write(slice(0, len(t)))
            for _ in range(10):
                edges = [0, *sorted(rng.choice(np.arange(1, len(t)), 5,
                                               replace=False)), len(t)]
                got = np.concatenate([write(slice(a, b))
                                      for a, b in zip(edges, edges[1:])])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [90, 32, 3080])
    def test_step_two_phases_match_exp(self, m):
        """Odd and even nodes of the grid m: the phases of mu agree with one
        np.exp each to 1e-15 per unit of pi |mu|, the largest argument,
        whose rounding both sides share."""
        mu = self.LAM.value
        for t in (range(1, m, 2), range(1, m, 2)[3:40], range(0, m, 2)[5:9]):
            arg = np.multiply.outer(axis_nodes(m)[t.start:t.stop:t.step], mu)
            got = _grid_phases(mu, m, t)(slice(0, len(t)))
            assert got.shape == arg.shape
            assert (np.abs(got - np.exp(1j * arg))
                    <= 1e-15 * (1.0 + np.pi * np.abs(mu))).all()

    @pytest.mark.parametrize("kind", ["D", "S", "Fcomposite", "R"])
    def test_odd_nodes_are_the_half_shifted_grid(self, kind):
        """Odd t on m = 2 M_s are the nodes of M_s shifted by half a cell;
        for M_s = 771, t = 771 is x_t = 0, found as 2 t = m."""
        m = 1542
        x = -np.pi + np.pi * (2 * np.arange(771) + 1) / 771
        want = slice_weight_matrix(kind, self.LAM, x)
        got = grid_weights(kind, self.LAM, range(1, m, 2), m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if kind in ("D", "S"):
            limit = self.LAM.floor + 1.0 if kind == "D" else self.LAM.value
            np.testing.assert_allclose(
                grid_weights(kind, self.LAM, range(771, 772, 2), m)[0],
                limit, rtol=1e-12)


def dense_kernel(kind, n, M):
    """A d-kernel on every node of the grid M: at each x_s node, grid_eval
    over M' of the slice's x' weights, each from one np.exp."""
    lat = build_lattice(n, n.d - 1)
    weights = slice_weight_matrix(kind, lat.lambda_parts, axis_nodes(M[-1]))
    values = np.empty(M, dtype=complex)
    box = np.zeros(lat.extents, dtype=complex)
    for t, w in enumerate(weights):
        box[tuple(lat.points.T)] = w
        values[..., t] = grid_eval(CoefficientField(weights=box),
                                   M[:-1]).values
    return values


class TestNestedPasses:
    """A nested level's passes synthesize each node of the doubled grid M
    that M / 2 lacks exactly once: (a) the odd x_s nodes on all of M', (b)
    the even ones on the shifted copies of M' / 2."""

    # M / 2 with odd and with even lengths, in 2-D and 3-D
    GRIDS = [(9, 11), (8, 12), (5, 7, 9), (6, 8, 10)]

    @staticmethod
    def check(points, weights, hermitian, M, dense):
        """A Hermitian source gives the nodes x_s <= 0 alone."""
        passes = _passes(M, tuple(m // 2 for m in M))
        assert len(passes) == 2 ** (len(M) - 1)
        if hermitian:
            passes = [(m_prime, shift, range(ns.start, M[-1] // 2 + 1, 2))
                      for m_prime, shift, ns in passes]
            dense = dense[..., :M[-1] // 2 + 1]
        old = np.zeros(dense.shape, dtype=bool)
        old[(slice(None, None, 2),) * len(M)] = True
        # one batch, then batches of three x_s nodes
        for budget in (1 << 30, 3 * 16 * math.prod(M[:-1])):
            count = np.zeros(dense.shape, dtype=int)
            for _, p, ns, _, rows, v in slice_batches(
                    points, weights, passes, budget_bytes=budget):
                m_prime, shift, _ = passes[p]
                nodes = tuple(slice(None) if k == full else slice(a, None, 2)
                              for k, full, a in zip(m_prime, M, shift))
                nodes += (list(ns[rows]),)
                want = np.moveaxis(dense[nodes], -1, 0)
                got = v * math.prod(m_prime)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(dense).max()
                count[nodes] += 1
            assert (count == ~old).all()

    @pytest.mark.parametrize("half", GRIDS)
    @pytest.mark.parametrize("kernel", ["D", "S", "Fcomposite", "R"])
    def test_kernels(self, kernel, half):
        n = DilationVector((2.0, 3.5, 7.0) if len(half) == 3 else (3.7, 9.5))
        M = tuple(2 * m for m in half)
        points, weights, _ = _kernel_source(kernel,
                                            build_lattice(n, n.d - 1), M)
        self.check(points, weights, False, M, dense_kernel(kernel, n, M))

    @pytest.mark.parametrize("half", GRIDS)
    @pytest.mark.parametrize("real", [True, False])
    def test_fields(self, real, half):
        entries = (2.5, 3.7, 9.5, 23.0)[3 - len(half):]
        fld = fractional_coefficients(DilationVector(entries))
        if not real:
            rng = np.random.default_rng(len(half))
            fld = CoefficientField(
                weights=rng.standard_normal(fld.extents)
                + 1j * rng.standard_normal(fld.extents))
        M = tuple(2 * m for m in half)
        points, weights, hermitian = _field_source(fld.weights[None], M,
                                                   1 << 30)
        assert hermitian == real
        self.check(points, weights, hermitian, M, grid_eval(fld, M).values)


class TestFold:
    """A 1-D field on the grid m = r F is r F-point transforms: node
    t = q + r u is node u of the x_s slice q, with weights c_k e^{2 pi i k q
    / m}.  At equal grids the folded engine is the dense synthesis."""

    @staticmethod
    def golden_like(n):
        """Real weights {k phi}, k = 0..n, as I_n takes them."""
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        return (np.arange(n + 1) * phi % 1.0).astype(complex)[None]

    @staticmethod
    def check(monkeypatch, weights, m, batch):
        """One batch, then batches of ``batch`` slices, split by the chunk
        size."""
        F = _fold(weights.shape[1], m)
        dense = np.array([grid_eval(CoefficientField(weights=c), (m,)).values
                          for c in weights])
        for chunk in (1 << 30, batch * 16 * F):
            monkeypatch.setattr(norms, "_CHUNK_BYTES", chunk)
            got = folded_values(weights, m)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_fold_lengths(self):
        """F is the least divisor of the first grid with F >= K: D(18) has
        K = 19 modes on M0 = 77, which has no divisor in [19, 77)."""
        assert first_grid((19,), 4.0, 1e-3, 1 << 30) == (77,)
        assert _fold(19, 77) == 77
        assert _fold(131073, 524880) == 131220
        assert _fold(201, 810) == 270

    def test_budget_counts_one_slice(self):
        """A fold holds F values and K weights a slice and takes its slices
        a batch at a time, so a budget below its K r slice weights splits
        it into batches that fit; one slice over the budget is refused."""
        weights, m = self.golden_like(200), 6480
        F = _fold(201, m)
        M, budget = (F, m // F), 2 * 16 * F
        assert 16 * 201 * M[1] > budget
        points, source, _ = _folded_source(weights, M, budget)
        for *_, w, _, v in slice_batches(points, source, _passes(M),
                                         budget):
            assert max(w.nbytes, v.nbytes) <= budget
        dense = grid_eval(CoefficientField(weights=weights[0]), (m,)).values
        got = folded_values(weights, m, budget)[0]
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
        with pytest.raises(ResourceLimitError, match="one x_s slice"):
            _folded_source(weights, M, 16 * F - 1)
        # golden n = 100 refines its fold (135, 3) to (135, 6)
        fld = CoefficientField(weights=self.golden_like(100)[0])
        assert l1_norm_field(fld, budget_bytes=16 * 405).value == \
            l1_norm_field(fld).value

    @pytest.mark.parametrize("m", [810, 1620, 6480])
    def test_real_field(self, monkeypatch, m):
        """K = 201 on F = 270, r = 3, 6 and 24."""
        self.check(monkeypatch, self.golden_like(200), m, 2)

    @pytest.mark.parametrize("m", [45, 90, 720])
    def test_complex_delta_stack(self, monkeypatch, m):
        fld = fractional_coefficients(DilationVector((3.7, 9.5)))
        stack = apply_delta(fld, np.array([0.7, 6.4, 20.3]),
                            [1.0 / 3.7]).weights
        assert stack.shape == (3, 4) and stack.imag.any()
        self.check(monkeypatch, stack, m, 3)

    @pytest.mark.parametrize("m", [77, 154, 1232])
    def test_d18_single_slice_first_grid(self, monkeypatch, m):
        """r = 1 on its first grid, then 2 and 16 slices of F = 77."""
        fld = indicator_coefficients(build_lattice(DilationVector((18,)), 1))
        self.check(monkeypatch, fld.weights[None], m, 1)

    def test_nested_pass_is_the_odd_slices(self):
        """F does not double: a nested level is the one pass of odd q, with
        no shifted copies, and together with the half grid's slices they
        are every slice once."""
        F, r = 270, 12
        assert _passes((F, r), (F, r // 2)) == [((F,), (0,),
                                                 range(1, r, 2))]
        assert _passes((F, r)) == [((F,), (0,), range(r))]
        weights = self.golden_like(200)
        points, source, _ = _folded_source(weights, (F, r), 1 << 30)
        dense = grid_eval(CoefficientField(weights=weights[0]),
                          (F * r,)).values.reshape(F, r)
        seen = []
        for fs, p, ns, w, rows, v in slice_batches(
                points, source, _passes((F, r), (F, r // 2))):
            assert p == 0 and list(ns) == list(range(1, r, 2))
            got = np.moveaxis(v, 0, 1) * F
            assert np.abs(got - dense[:, 1::2][:, rows]).max() <= \
                1e-12 * np.abs(dense).max()
            seen.extend(ns[rows])
        assert seen == list(range(1, r, 2))

    @pytest.mark.parametrize("real", [True, False])
    def test_blocks_keep_the_bits_of_the_batch(self, real):
        """A batch of 5 fields of 3 slices (a fold) or 4 (a 2-D field):
        every block of its rows, among them blocks that start inside a
        field and span whole fields, written into the first P' columns of a
        wider buffer as the engine passes them, has the bits of the batch
        written at once, and leaves the other columns alone."""
        rng = np.random.default_rng(5)
        folded = self.golden_like(40)[0] * (1.0 + np.arange(5))[:, None]
        field = rng.standard_normal((5, 6, 7))
        if not real:
            folded, field = folded * np.exp(1j * np.arange(5))[:, None], \
                field + 1j * rng.standard_normal((5, 6, 7))
        for source, weights, M, ns in (
                (_folded_source, folded, (45, 8), range(1, 7, 2)),
                (_field_source, field, (12, 16), range(0, 8, 2))):
            points, group_weights, _ = source(weights, M, 1 << 30)
            write, rows = group_weights(slice(0, 5))(ns), 5 * len(ns)
            modes = len(points)
            want = np.empty((rows, modes), complex)
            write(slice(0, rows), want)
            spans = 0
            for a, b in itertools.combinations(range(rows + 1), 2):
                buf = np.zeros((b - a, 3 * modes), complex)
                write(slice(a, b), buf[:, :modes])
                assert buf[:, :modes].tobytes() == want[a:b].tobytes()
                assert not buf[:, modes:].any()
                spans += a % len(ns) > 0 and b - a >= 2 * len(ns)
            assert spans

    def test_fold_refuses_undersized_slice(self):
        with pytest.raises(ValueError, match="below box extent 201"):
            _folded_source(self.golden_like(200), (200, 4), 1 << 30)


def test_runs_cut_every_slice_of_rows():
    """_runs cuts any rows of G runs of b rows into parts in order that
    hold each row once: at most one of whole runs, between the last rows
    of the first run and the first rows of the last."""
    for b, G in itertools.product((1, 2, 3, 7), range(1, 5)):
        for a, c in itertools.combinations(range(G * b + 1), 2):
            parts, seen = _runs(slice(a, c), b), []
            for runs, within, o in parts:
                assert runs.stop - runs.start >= 1 and within.stop <= b
                assert within.stop > within.start
                assert o.start == len(seen)
                seen += [r * b + w for r in range(runs.start, runs.stop)
                         for w in range(within.start, within.stop)]
                assert o.stop == len(seen)
            assert seen == list(range(a, c))
            whole = [p for p in parts if p[1] == slice(0, b)]
            assert len(whole) <= 1 and len(parts) <= 3


def test_first_axes_periodicity_of_sliced_kernels():
    n = DilationVector((2.0, 3.5))
    x = np.array([0.9, 0.3])
    shift = np.array([2 * math.pi, 0.0])
    assert eval_S(n, x + shift) == pytest.approx(eval_S(n, x), abs=1e-10)
    v1, _ = eval_R(n, x + shift, nu_max=64)
    v2, _ = eval_R(n, x, nu_max=64)
    assert v1 == pytest.approx(v2, abs=1e-10)
