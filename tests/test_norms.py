"""L1 quadrature engine, identity verification and the correction functional."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from simplexleb.core import (
    DEFAULT_BUDGET_BYTES,
    DilationVector,
    ResourceLimitError,
    build_lattice,
    fractional_coefficients,
    indicator_coefficients,
)
from simplexleb.irrational import AlphaSpec, fractional_parts, study_ratio
from simplexleb.kernels import _CHUNK_BYTES, _r_series, apply_delta
from simplexleb import norms
from simplexleb.norms import (
    _BATCH_SLICES,
    MAX_DOUBLINGS,
    NormConvergenceError,
    _field_norms,
    _field_source,
    _fold,
    _folded_source,
    _kernel_source,
    _slice_abs_sums,
    frak_f,
    identity_residuals,
    l1_norm,
    l1_norm_field,
    verify_identity,
)
from simplexleb.cli import main as cli_main
from simplexleb.core import CoefficientField
from oracles import I_n, double_integral_ld2, frak_f_dense, \
    frak_f_two_sided, grid_eval, r_series_unblocked, rational_riemann_sum, \
    stack_results, t_integral
from test_kernels import engine_values


class TestL1Norm:
    def test_1d_against_adaptive_quadrature(self):
        """D for n=5 is sin(3x)/sin(x/2) in modulus."""

        def integrand(x):
            return abs(math.sin(3 * x) / math.sin(x / 2)) if x != 0 else 6.0

        want = sum(
            scipy.integrate.quad(integrand, a, b, limit=200)[0]
            for a, b in [(-math.pi, 0), (0, math.pi)]
        )
        got = l1_norm("D", DilationVector((5.0,)), tol=1e-7, rho=1024.0)
        assert got.value == pytest.approx(want, abs=1e-6)

    def test_zero_kernel(self):
        res = l1_norm("F", DilationVector((2, 4)))
        assert res.value == 0.0

    def test_single_mode_hand_value(self):
        # F for (2,3) is 0.5 e^{ix}; the integral of its modulus is pi
        res = l1_norm("F", DilationVector((2, 3)), tol=1e-6)
        assert res.value == pytest.approx(math.pi, rel=1e-6)

    def test_parseval_field_equals_point_count(self):
        # indicator weights make the coefficient square sum the lattice count
        res = l1_norm("D", DilationVector((3, 3)))
        assert res.parseval == 10

    def test_refinement_history_monotone_grids(self):
        res = l1_norm("D", DilationVector((2, 3)))
        sizes = [np.prod(m) for m, _ in res.history]
        assert sizes == sorted(sizes)

    def test_last_delta_within_tol(self):
        tol = 1e-3
        res = l1_norm("D", DilationVector((3.7, 5.0)), tol=tol)
        assert res.error_estimate <= tol * max(abs(res.value), 1e-9)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            l1_norm("Q", DilationVector((2, 3)))

    def test_nonconvergence_carries_history(self):
        with pytest.raises(NormConvergenceError) as exc:
            l1_norm("D", DilationVector((5.0,)), tol=1e-16)
        assert len(exc.value.history) == MAX_DOUBLINGS + 1

    def test_cache_keys_on_exact_n(self):
        # (2, 3.9999999999999) agrees with (2, 4) to 12 digits, but
        # L_2(1) = 1.99999999999995 leaves it 7 lattice points, not 9
        assert l1_norm("D", DilationVector((2, 4))).parseval == 9.0
        assert l1_norm("D", DilationVector((2, 3.9999999999999))).parseval \
            == 7.0

    def test_cache_keys_on_budget(self):
        # a default-budget norm computed first must not let a call whose
        # budget holds no grid slice through
        n = DilationVector((7.3, 19.6))
        l1_norm("D", n)
        with pytest.raises(ResourceLimitError):
            l1_norm("D", n, budget_bytes=0)

    def test_d_grid_below_its_last_extent_refused(self, monkeypatch):
        """D's grid power is its lattice count only on a grid that holds
        its modes on every axis: at rho 1e-300, n = (1e-21, 1) gets M =
        (1, 1) for the modes (1, 2), refused before any lattice point."""
        monkeypatch.setattr(norms, "build_lattice", _never)
        with pytest.raises(ValueError, match="grid size 1 below box extent "
                                             "2$"):
            l1_norm("D", DilationVector((1e-21, 1.0)), rho=1e-300)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_refused(self, tol):
        fld = CoefficientField(weights=np.asarray(0.25 + 0j))
        with pytest.raises(ValueError, match="tol"):
            l1_norm_field(fld, tol=tol)

    def test_zero_dim_field_norm_is_modulus(self):
        fld = CoefficientField(weights=np.asarray(0.25 + 0j))
        res = l1_norm_field(fld)
        assert res.value == 0.25 and res.grid is None

    def test_sliced_norms_finite(self):
        n = DilationVector((2.0, 3.5))
        for kernel in ("S", "Fcomposite", "R"):
            res = l1_norm(kernel, n)
            assert res.value >= 0 and math.isfinite(res.value)


class TestBudget:
    """The byte budget caps grid memory without changing any value."""

    def test_slice_batches_do_not_change_values(self):
        n = DilationVector((7.3, 19.6, 31.0))
        for kernel in ("D", "S", "R"):
            want = l1_norm(kernel, n)
            one_slice = 16 * np.prod(want.history[-1][0][:-1])
            got = l1_norm(kernel, n, budget_bytes=3 * int(one_slice))
            assert got.history == want.history
            assert got.value == want.value

    def test_values_do_not_depend_on_the_budget(self):
        """The budget sizes memory and no sum: the float hex of every value
        and history entry is the same at 1536, 16, 4, 2 and 1 MiB, for a 2-D
        and a 3-D d-kernel, S(24.5, 1500.7) (whose passes span several
        batches at the default budget), an s = 2 field, the fold of the
        golden I_n at n = 2^15, one frak F^3 and verify's residuals."""
        golden = CoefficientField(weights=fractional_parts(AlphaSpec.golden(),
                                                           1 << 15))
        runs = {
            "D(64, 64)": lambda b: l1_norm("D", DilationVector((64, 64)),
                                           budget_bytes=b),
            "D(12, 20, 40)": lambda b: l1_norm(
                "D", DilationVector((12, 20, 40)), budget_bytes=b),
            "S(24.5, 1500.7)": lambda b: l1_norm(
                "S", DilationVector((24.5, 1500.7)), budget_bytes=b),
            "F(7.3, 16.79, 31.901)": lambda b: l1_norm(
                "F", DilationVector((7.3, 16.79, 31.901)), budget_bytes=b),
            "I_32768": lambda b: l1_norm_field(golden, budget_bytes=b),
            "frak F^3(5, 9.5, 23)": lambda b: frak_f(
                3, DilationVector((5, 9.5, 23)), budget_bytes=b),
            "verify (5, 9.5, 23)": lambda b: verify_identity(
                DilationVector((5, 9.5, 23)), num_points=200, seed=7,
                budget_bytes=b),
        }

        def bits(res):
            if isinstance(res, norms.IdentityReport):
                return [r.hex() for r in res.residuals.tolist()]
            if isinstance(res, norms.FrakFValue):
                return [res.value.hex(), res.error_estimate.hex()]
            return [res.value.hex()] + [v.hex() for _, v in res.history]
        for name, run in runs.items():
            want = bits(run(DEFAULT_BUDGET_BYTES))
            for mib in (16, 4, 2, 1):
                assert bits(run(mib << 20)) == want, (name, mib)

    @pytest.mark.parametrize("budget", [1 << 20, 2 << 20])
    def test_thin_grid_peak_within_the_budget(self, budget):
        """D(0.5, 2e4) has one x' mode on M' = 4 to 32, where 8 MiB of
        values are 2^17 to 2^14 slices: a batch holds at most _BATCH_SLICES,
        so its per-slice arrays stay small.  A whole norm peaks at <= 1
        budget under tracemalloc (0.77 and 1.14 MiB; 1.68 and 2.83 MiB
        with batches of min(8 MiB, budget) alone)."""
        n = DilationVector((0.5, 2e4))
        l1_norm("D", n, budget_bytes=budget)  # its FFT lengths are cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            l1_norm("D", n, budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_slice_over_budget_raises(self):
        with pytest.raises(ResourceLimitError):
            l1_norm("D", DilationVector((7.3, 19.6)), budget_bytes=0)

    def test_chunked_field_path_matches_full_grid(self):
        fld = fractional_coefficients(DilationVector((3.7, 9.5, 23.0)))
        want = l1_norm_field(fld)
        size = np.prod(want.history[-1][0])
        # below the full grid: the last level's x_s slices go through the
        # transform buffer in more than one block
        got = l1_norm_field(fld, budget_bytes=int(16 * size) - 1)
        assert got.history == want.history
        assert got.value == want.value

    def test_chunked_field_path_over_budget_raises(self):
        fld = fractional_coefficients(DilationVector((3.7, 9.5, 23.0)))
        with pytest.raises(ResourceLimitError):
            l1_norm_field(fld, budget_bytes=16)

    def test_folded_batch_holds_its_buffer_and_moduli(self, monkeypatch):
        """A folded batch writes each block's weights into the block's first
        columns of its transform buffer, which holds a quarter of the batch:
        above the field's weights a norm holds that buffer and the |v|
        scratch (_CHUNK_BYTES / 32), not a buffer of the whole batch, a |v|
        buffer of half the batch, a weight array or its twisted copy as
        well.  The slack, a quarter of the batch's bytes, covers the phase
        tables of about sqrt(K) columns with their integer arguments, the
        per-mode index and twist arrays, and numpy's buffers."""
        chunk = 1 << 21
        monkeypatch.setattr(norms, "_CHUNK_BYTES", chunk)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        fld = CoefficientField(weights=(np.arange(2001) * phi % 1.0)
                               .astype(complex))
        homes = _weight_homes(monkeypatch)
        engine, block, batch = norms.slice_batches, [0], [0]

        def sized(*args):
            end = 0
            for fs, p, ns, w_sq, rows, v in engine(*args):
                # a batch's blocks in order, a quarter of the batch each
                assert rows.start == (end if rows.start else 0)
                end = rows.stop
                block[0] = max(block[0], v.nbytes)
                batch[0] = max(batch[0], w_sq.size * v[0].nbytes)
                yield fs, p, ns, w_sq, rows, v
        monkeypatch.setattr(norms, "slice_batches", sized)
        l1_norm_field(fld, rho=128.0)  # its FFT lengths are cached
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            l1_norm_field(fld, rho=128.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert homes and all(shared for shared, *_ in homes)
        assert block[0] <= batch[0] / 4
        assert block[0] > 3 * fld.weights.nbytes
        assert peak - fld.weights.nbytes <= (1 / 4 + 1 / 32 + 1 / 4) * batch[0]

    @pytest.mark.parametrize("entries", [(7.0, 29.0), (64.0, 4096.0),
                                         (16.0, 32.0, 64.0)])
    def test_d_kernel_weights_take_one_block(self, monkeypatch, entries):
        """No weight array holds more rows than one transform block: the
        source writes each block's rows, in 2-D (the modes 0..P'-1 of one
        axis) into the block's first P' columns of the transform buffer, in
        3-D into a P'-wide array of the largest block's rows, which is
        scattered into the buffer."""
        homes = _weight_homes(monkeypatch)
        lat = build_lattice(DilationVector(entries), len(entries) - 1)
        l1_norm("D", DilationVector(entries))
        most = max(rows for *_, rows, _ in homes)
        assert homes
        for shared, written, rows, viewed in homes:
            assert written == rows
            assert shared == (len(entries) == 2)
            if not shared:
                assert viewed <= most * len(lat.points)

    def test_box_with_trailing_grid_extents_keeps_its_bits(self):
        """F(2.5, 3.7, 4.2, 23) at rho = 1: on the first grid (3, 4, 5) the
        x' modes fill the box (3, 4), whose trailing extent is M'_2; they
        are scattered like any other box's, with the bits of a copy of
        their flat indices 0..P'-1."""
        res = l1_norm("F", DilationVector((2.5, 3.7, 4.2, 23.0)), rho=1.0)
        assert res.grid == (12, 16, 20)
        assert res.value.hex() == "0x1.bb77129c01984p+8"
        assert [(m, v.hex()) for m, v in res.history] == [
            ((3, 4, 5), "0x1.c2d5da9c7d4f6p+8"),
            ((6, 8, 10), "0x1.bba30b41e17b1p+8"),
            ((12, 16, 20), "0x1.bb77129c01984p+8")]

    @pytest.mark.parametrize("kernel, entries", [
        ("D", (64.0, 64.0)), ("D", (16.0, 32.0, 64.0)),
        ("S", (24.5, 1500.7)), ("Fcomposite", (24.5, 1500.7))])
    def test_engine_peak_within_one_budget(self, kernel, entries):
        """At a 2 MiB budget a batch of these kernels, whose modes are at
        most a quarter of a slice, goes through a transform buffer of at
        most a quarter of the budget, and each block writes its own
        weights; the |v| scratch is _CHUNK_BYTES / 32.  A whole norm peaks
        at <= 1 budget under tracemalloc (0.46-0.65; 0.46-0.81 with a
        P'-wide weight array of a whole batch, 1.26-1.38 with a buffer of
        the whole batch)."""
        budget = 2 << 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            l1_norm(kernel, DilationVector(entries), budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= budget

    @pytest.mark.parametrize("budget", [DEFAULT_BUDGET_BYTES, 4 << 20])
    def test_d_kernel_buffer_is_a_quarter_batch(self, monkeypatch, budget):
        """D(64, 4096), whose modes fill a quarter of its slices or less:
        each batch keeps its rows, _CHUNK_BYTES / (16 prod M') on the
        largest M' of a call and at most _BATCH_SLICES, whatever the
        budget, and the buffer transforms them in blocks of at most a
        quarter of min(_CHUNK_BYTES, budget), whose weights the source
        writes a block at a time, with the golden norm-D-64-4096's value
        at every budget."""
        engine, calls = norms.slice_batches, []

        def spied(points, weights, passes, *args):
            spy, _, shapes = _spied(weights)
            blocks = []
            calls.append((passes, shapes, blocks))
            for fs, p, ns, w_sq, rows, v in engine(points, spy, passes,
                                                   *args):
                blocks.append((rows, v.nbytes, len(ns)))
                yield fs, p, ns, w_sq, rows, v
        monkeypatch.setattr(norms, "slice_batches", spied)
        n = DilationVector((64.0, 4096.0))
        res = l1_norm("D", n, budget_bytes=budget)
        chunk, split = min(_CHUNK_BYTES, budget), 0
        for passes, shapes, blocks in calls:
            top = max(math.prod(m_prime) for m_prime, *_ in passes)
            assert [shape[0] for shape in shapes] == \
                [rows.stop - rows.start for rows, *_ in blocks]
            assert max(b for *_, b in blocks) == min(
                _BATCH_SLICES, _CHUNK_BYTES // (16 * top),
                max(len(ns) for *_, ns in passes))
            for rows, nbytes, _ in blocks:
                assert nbytes <= chunk // 4
                split += rows.start > 0
        assert split
        assert res.value == 537.6620503763718

    @pytest.mark.parametrize("kernel, entries", [
        ("D", (384.0, 384.0)), ("D", (64.0, 4096.0)), ("S", (48.5, 3000.7))])
    def test_default_budget_peak(self, kernel, entries):
        """At the default budget a batch holds _CHUNK_BYTES (8 MiB) of
        values, which a buffer of a quarter of them transforms, and no array
        of the batch's weights: each block writes its own.  A whole norm
        peaks at <= 3.5 MiB under tracemalloc (2.8-3.0 MiB; 4.7-5.7 MiB
        with a P'-wide weight array of a whole batch)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            l1_norm(kernel, DilationVector(entries))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    @pytest.mark.parametrize("width", [1029, 1056, 1540, 4116, 6160, 8232,
                                       12320, 16896, 32768])
    def test_row_sums_do_not_depend_on_the_block(self, width):
        """What keeps values from depending on the transform blocks: each
        row of np.abs(v).sum(1), at the slice widths of the benchmark's
        norms, is that row summed alone, bit for bit, for 1, 2, 3 and 10
        rows, contiguous and as a column part of a wider array."""
        rng = np.random.default_rng(width)
        wide = np.abs(rng.standard_normal((10, width + 5))
                      + 1j * rng.standard_normal((10, width + 5)))
        for rows in (1, 2, 3, 10):
            for av in (np.ascontiguousarray(wide[:rows, :width]),
                       wide[:rows, 3:3 + width]):
                assert av.sum(1).tolist() == [row.sum() for row in av]

    @pytest.mark.parametrize("budget", [1 << 20, 4 << 20])
    @pytest.mark.parametrize("entries", [(5.5, 30.25, 199.65),
                                         (5.5, 12.65, 24.035)])
    def test_frak_f_peak_within_the_budget(self, entries, budget):
        """frak_f's stacks of twisted differences, sized with the engine's
        buffer of their fields to half a batch, and the engine's batches
        under them peak at <= 1 budget under tracemalloc (measured
        0.24-0.85; 0.24-0.97 with stacks of a quarter batch alone)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            frak_f(3, DilationVector(entries), budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_frak_f_mu_term_at_and_over_the_budget(self, monkeypatch):
        """One mu term's 2 T - 1 fields count 32 bytes a mode and 64 a
        field: at T = 4, 7 x (32 x 17 + 64) bytes for the 1-D F of (16, 8)
        of (8, 16, 32); one byte less is refused before any norm."""
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(norms, "l1_norm", reached)
        n, need = DilationVector((8.0, 16.0, 32.0)), 7 * (32 * 17 + 64)
        with pytest.raises(Reached):
            frak_f(3, n, t_nodes=4, budget_bytes=need)
        with pytest.raises(ResourceLimitError, match="one mu term"):
            frak_f(3, n, t_nodes=4, budget_bytes=need - 1)

    def test_blocks_of_part_slices_keep_values(self, monkeypatch):
        """A scratch shorter than one x' slice takes |v| in parts of rows,
        whose sums are added per slice: same grids, same values to
        roundoff, every Parseval check passed."""
        n = DilationVector((7.3, 19.6))
        want = l1_norm("D", n)
        monkeypatch.setattr(norms, "_CHUNK_BYTES", 1 << 12)  # 16 values
        assert math.prod(want.history[0][0][:-1]) > 16
        got = l1_norm("D", n)
        assert [m for m, _ in got.history] == [m for m, _ in want.history]
        assert got.value == pytest.approx(want.value, rel=1e-13)
        assert got.parseval == want.parseval


class TestWorkBound:
    """One bound on the work of a call, checked before any synthesis: the
    nodes of a norm's grids over every level, and those of frak_f's fields,
    at least 2^9 a field."""

    def test_first_grid_at_and_over_the_bound(self, monkeypatch):
        M0 = norms.first_grid((17, 33), 4.0, 1e-3, 1 << 30)
        nodes = math.prod(M0) << 2 * MAX_DOUBLINGS
        monkeypatch.setattr(norms, "MAX_WORK", nodes)
        assert norms.first_grid((17, 33), 4.0, 1e-3, 1 << 30) == M0
        monkeypatch.setattr(norms, "MAX_WORK", nodes - 1)
        with pytest.raises(ValueError, match="work bound"):
            norms.first_grid((17, 33), 4.0, 1e-3, 1 << 30)

    # (8, 16, 32) at k = 3, T = 4: 7 fields a mu term; [32/8] = 4 mu terms
    # twist the 1-D F of (16, 8), whose last level has 70 x 16 nodes, and
    # [16/8] = 2 that of (8, 8), 36 x 16 nodes
    K3_WORK = 7 * (4 * 70 * 16 + 2 * 36 * 16)

    def test_frak_f_refused_before_any_norm(self, monkeypatch):
        n = DilationVector((8.0, 16.0, 32.0))
        monkeypatch.setattr(norms, "MAX_WORK", self.K3_WORK - 1)
        calls = []
        monkeypatch.setattr(norms, "l1_norm",
                            lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="work bound"):
            frak_f(3, n, t_nodes=4)
        assert calls == []

    @pytest.mark.parametrize("k, entries, work", [
        (3, (8.0, 16.0, 32.0), K3_WORK),
        # [12.65/5.5] = 2 mu terms of a 0-dimensional field, 2^9 nodes each
        (2, (5.5, 12.65), 7 * 2 * 2**9)])
    def test_frak_f_at_and_over_the_bound(self, monkeypatch, k, entries,
                                          work):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(norms, "l1_norm", reached)
        monkeypatch.setattr(norms, "MAX_WORK", work)
        with pytest.raises(Reached):
            frak_f(k, DilationVector(entries), t_nodes=4)
        monkeypatch.setattr(norms, "MAX_WORK", work - 1)
        with pytest.raises(ValueError, match="work bound"):
            frak_f(k, DilationVector(entries), t_nodes=4)


def _weight_homes(monkeypatch) -> list:
    """Patch the engine to record, for each block it yields, whether the
    array its weight source last wrote shares memory with the block, its
    rows, the block's rows, and the values of the array it views."""
    engine, homes = norms.slice_batches, []

    def spied(points, weights, *args):
        out = [None]

        def spy(fs):
            group_weights = weights(fs)

            def batch(ns):
                write = group_weights(ns)

                def rows(block, w):
                    out[0] = w
                    write(block, w)
                return rows
            return batch
        for block in engine(points, spy, *args):
            w, rows = out[0], block[-2]
            homes.append((np.shares_memory(w, block[-1]), len(w),
                          rows.stop - rows.start, w.base.size))
            yield block
    monkeypatch.setattr(norms, "slice_batches", spied)
    return homes


def _spied(weights):
    """The weight source, the x_s nodes it is asked for (a batch at a
    time) and the shapes (rows, P') of the arrays it writes (a block at a
    time)."""
    asked, shapes = [], []

    def spy(fs):
        group_weights = weights(fs)

        def batch(ns):
            asked.extend(ns)
            write = group_weights(ns)

            def rows(block, out):
                shapes.append(out.shape)
                write(block, out)
            return rows
        return batch
    return spy, asked, shapes


def test_x_prime_transforms_skip_zero_columns(monkeypatch):
    """On a 3-D grid the first x' axis is transformed only on the K'_2
    columns that hold modes, the last one in full."""
    n = DilationVector((4.5, 7.3, 13.1))
    K = tuple(int(v) + 1 for v in n.entries[:-1])
    ifft, shapes = np.fft.ifft, {1: set(), 2: set()}

    def spy(a, *args, axis=-1, **kwargs):  # a block's rows, then x'
        shapes[axis].add(a.shape[1:])
        return ifft(a, *args, axis=axis, **kwargs)
    monkeypatch.setattr(np.fft, "ifft", spy)
    res = l1_norm("D", n)
    grids = {M[:-1] for M, _ in res.history}
    grids |= {tuple(m // 2 for m in M) for M in grids}  # shifted passes
    assert shapes[1] and {(m1, K[1]) for m1, _ in grids} >= shapes[1]
    assert shapes[2] and grids >= shapes[2]


# the name and the live fields of a stack of one field
ONE = (lambda i: "one field", np.arange(1))


class TestHalfSlices:
    """Hermitian sources are synthesized on the x_s slices 0..[M_s/2] only;
    the weighted sums equal the full grid's."""

    # odd and even M_s; batches of three slices make the last one partial
    GRIDS = [(16, 45), (16, 48), (12, 10, 33), (12, 10, 34)]

    def _check(self, points, weights, hermitian, M, full):
        want_abs = np.abs(full).sum()
        want_sq = (np.abs(full) ** 2).sum()
        for budget in (1 << 30, 3 * 16 * math.prod(M[:-1])):
            spy, asked, _ = _spied(weights)
            (got_abs,), (got_sq,) = _slice_abs_sums(points, spy, hermitian,
                                                    M, budget, *ONE)
            assert got_abs == pytest.approx(want_abs, rel=1e-12)
            assert got_sq == pytest.approx(want_sq, rel=1e-12)
            top = M[-1] // 2 if hermitian else M[-1] - 1
            assert sorted(asked) == list(range(top + 1))

    @pytest.mark.parametrize("M", GRIDS)
    @pytest.mark.parametrize("kernel", ["D", "S", "Fcomposite", "R"])
    def test_kernels_match_full_grid(self, kernel, M):
        n = DilationVector((3.7, 9.5, 7.0)[:len(M)])
        points, weights, hermitian = _kernel_source(
            kernel, build_lattice(n, n.d - 1), M)
        assert hermitian
        self._check(points, weights, hermitian, M,
                    engine_values(points, weights, M))

    @pytest.mark.parametrize("entries, M", [
        ((3.7, 9.5), (45,)),
        ((3.7, 9.5, 23.0), (16, 45)),
        ((3.7, 9.5, 23.0), (16, 48)),
        ((2.5, 3.7, 9.5, 23.0), (8, 12, 45)),
        ((2.5, 3.7, 9.5, 23.0), (8, 12, 48)),
    ])
    def test_real_fields_match_full_grid(self, entries, M):
        fld = fractional_coefficients(DilationVector(entries))
        (grid,) = _grids(fld, M)
        points, weights, hermitian = _source(None, None, grid, fld)
        # 1-D too: its fold (5, 9) gives only the slices q = 0..[r/2]
        assert hermitian
        self._check(points, weights, hermitian, grid,
                    grid_eval(fld, M).values.reshape(grid))

    def test_complex_delta_field_matches_dense_grid(self):
        n = DilationVector((3.7, 9.5, 23.0))
        fld = apply_delta(fractional_coefficients(n), 5.3, 1.0 / np.array(
            n.entries[:2]))
        M = (16, 45)
        points, weights, hermitian = _field_source(fld.weights[None], M,
                                                   1 << 30)
        assert not hermitian
        self._check(points, weights, hermitian, M,
                    grid_eval(fld, M).values)


def _source(kernel, n, M, fld=None):
    """(points, weights, hermitian) of a d-kernel, or of the field fld, on
    the engine's grid M (the fold of a 1-D field)."""
    if fld is not None:
        source = _folded_source if fld.s == 1 else _field_source
        return source(fld.weights[None], M, 1 << 30)
    return _kernel_source(kernel, build_lattice(n, n.d - 1), M)


def _grids(fld, *grids):
    """The engine's grids for ``grids``, the first the coarsest: for a 1-D
    field its folds (F, M / F), with F from the first; else the grids."""
    if fld is None or fld.s > 1:
        return grids
    F = _fold(fld.extents[0], grids[0][0])
    return tuple((F, M[0] // F) for M in grids)


class TestNestedLevels:
    """A level after the first synthesizes only the nodes that the half of
    its grid lacks, and adds their sums to those of the level before."""

    @pytest.mark.parametrize("kernel, entries, half", [
        ("D", (3.7, 9.5), (8, 45)),
        ("D", (3.7, 9.5), (8, 48)),
        ("R", (3.7, 9.5, 7.0), (6, 10, 33)),
        ("R", (3.7, 9.5, 7.0), (6, 10, 34)),
        ("F", (3.7, 9.5), (45,)),
        ("F", (3.7, 9.5, 23.0), (8, 22)),
        ("F", (3.7, 9.5, 23.0), (8, 23)),
    ])
    def test_hermitian_nodes_and_sums(self, kernel, entries, half):
        """On the half-cell-shifted x_s nodes 2t + 1 only t = 0..[(M_c - 1)
        / 2] are asked, slice t pairing with M_c - 1 - t; the even nodes
        0..M_c/2 once per shifted copy of the x' grid.  With the sums of
        M / 2 they give the full grid's."""
        n = DilationVector(entries)
        fld = fractional_coefficients(n) if kernel == "F" else None
        full = fld and grid_eval(fld, tuple(2 * m for m in half)).values
        # a 1-D field's fold (5, 9) doubles its slices alone: no even ones
        folded = len(half) == 1
        half, M = _grids(fld, half, tuple(2 * m for m in half))
        m_c, copies = half[-1], 0 if folded else 2 ** (len(M) - 1) - 1
        points, weights, hermitian = _source(kernel, n, M, fld)
        assert hermitian
        if full is None:
            full = engine_values(points, weights, M)
        full = full.reshape(M)
        # odd slice t and M_c - 1 - t: the same sum of |f|
        odd = np.abs(full[..., 1::2]).reshape(-1, m_c).sum(axis=0)
        np.testing.assert_allclose(odd, odd[::-1], rtol=1e-12)
        for budget in (1 << 30, 3 * 16 * math.prod(M[:-1])):
            spy, asked, _ = _spied(weights)
            (new_abs,), (new_sq,) = _slice_abs_sums(
                points, spy, hermitian, M, budget, *ONE, half)
            assert sorted(u for u in asked if u % 2) == \
                [2 * t + 1 for t in range((m_c - 1) // 2 + 1)]
            assert sorted(u for u in asked if u % 2 == 0) == sorted(
                list(range(0, m_c + 1, 2)) * copies)
            (old_abs,), (old_sq,) = _slice_abs_sums(
                *_source(kernel, n, half, fld), half, budget, *ONE)
            assert old_abs + new_abs == pytest.approx(np.abs(full).sum(),
                                                      rel=1e-12)
            assert old_sq + new_sq == pytest.approx(
                (np.abs(full) ** 2).sum(), rel=1e-12)

    @pytest.mark.parametrize("kernel, entries, tol", [
        ("D", (7.3, 19.6), 1e-4), ("D", (4.5, 7.3, 13.1), 1e-4),
        ("D", (7.3,), 1e-3), ("S", (5, 9.5, 23), 1e-4),
        ("Fcomposite", (7.3, 19.6), 1e-4), ("R", (5, 9.5, 23), 1e-4),
        ("F", (3.7, 9.5, 23.0), 1e-4), ("F", (3.7, 9.5), 1e-4),
    ])
    def test_levels_equal_full_resynthesis(self, kernel, entries, tol):
        """Each level's value is the Riemann sum of a full synthesis of
        its grid, and those sums stop at the same level."""
        n = DilationVector(entries)
        res = l1_norm(kernel, n, tol=tol)
        fld = None
        if kernel == "F" or n.d == 1:
            fld = fractional_coefficients(n) if kernel == "F" else \
                indicator_coefficients(build_lattice(n, 1))
        grids = [M for M, _ in res.history]
        assert grids == [tuple(m << k for m in grids[0])
                         for k in range(len(grids))]
        full = []
        for (M, value), grid in zip(res.history, _grids(fld, *grids)):
            (total,), _ = _slice_abs_sums(*_source(kernel, n, grid, fld),
                                          grid, 1 << 30, *ONE)
            full.append((2.0 * math.pi) ** len(M) * total / math.prod(M))
            assert value == pytest.approx(full[-1], rel=1e-12, abs=0)
        stop = next(k for k in range(1, len(full)) if abs(
            full[k] - full[k - 1]) <= tol * max(abs(full[k]), 1e-9))
        assert stop == len(grids) - 1

    def test_complex_stack_levels_equal_full_resynthesis(self):
        fld, xi = _stack_inputs(2, False)
        stack = apply_delta(fld, np.array([0.7, 6.4, 20.3]), xi).weights
        for res, weights in zip(stack_results(stack, "abc".__getitem__),
                                stack):
            for M, value in res.history:
                (total,), _ = _slice_abs_sums(
                    *_field_source(weights[None], M, 1 << 30), M, 1 << 30,
                    *ONE)
                assert value == pytest.approx(
                    (2.0 * math.pi) ** 2 * total / math.prod(M), rel=1e-12)

    @pytest.mark.parametrize("entries", [(7.3, 19.6), (4.5, 7.3, 13.1)])
    @pytest.mark.parametrize("which", ["odd x_s", "shifted x'"])
    def test_tampered_slice_trips_its_parseval_check(self, monkeypatch,
                                                     which, entries):
        engine = norms.slice_batches

        def tampered(points, weights, passes, *args):
            for fs, p, ns, w, rows, v in engine(points, weights, passes,
                                                *args):
                _, shift, nodes = passes[p]
                if (any(shift) if which == "shifted x'" else nodes.step == 2) \
                        and not rows.start:
                    v[0] *= 1.001  # the batch's first slice
                yield fs, p, ns, w, rows, v

        monkeypatch.setattr(norms, "slice_batches", tampered)
        with pytest.raises(AssertionError,
                           match="Parseval mismatch on x_s slice"):
            l1_norm("D", DilationVector(entries))

    def test_folded_levels_ask_their_odd_slices_alone(self, monkeypatch):
        """D(18) keeps F = 77: each level after the first asks its fold
        (77, r) for the odd slices q <= r / 2 alone."""
        source, asked = norms._folded_source, []

        def spied_source(weights, M, budget_bytes):
            points, weights, hermitian = source(weights, M, budget_bytes)
            spy, qs, _ = _spied(weights)
            asked.append((M, qs))
            return points, spy, hermitian

        monkeypatch.setattr(norms, "_folded_source", spied_source)
        res = l1_norm("D", DilationVector((18,)), tol=1e-4)
        assert [M for M, _ in res.history] == \
            [(77 << k,) for k in range(4)]
        assert [M for M, _ in asked] == [(77, 1 << k) for k in range(4)]
        assert asked[0][1] == [0]
        for (_, r), qs in asked[1:]:
            assert sorted(qs) == list(range(1, r // 2 + 1, 2))

    @pytest.mark.parametrize("case", ["D(7.3)", "complex stack"])
    def test_corrupted_1d_weight_row_trips_its_slice_check(self, monkeypatch,
                                                           case):
        """The weight row the check sees no longer matches its synthesized
        slice: a 1-D field's slices have their own Parseval check."""
        engine = norms.slice_batches

        def tampered(points, weights, passes, *args):
            for fs, p, ns, w, rows, v in engine(points, weights, passes,
                                                *args):
                if not rows.start:
                    w[:, 0] *= 1.001  # the batch's first weight row
                yield fs, p, ns, w, rows, v

        monkeypatch.setattr(norms, "slice_batches", tampered)
        with pytest.raises(AssertionError,
                           match="Parseval mismatch on x_s slice"):
            if case == "D(7.3)":
                l1_norm("D", DilationVector((7.3,)))
            else:
                fld, xi = _stack_inputs(1, False)
                stack_results(apply_delta(fld, np.array([0.7, 6.4]),
                                          xi).weights, "ab".__getitem__)


def _stack_inputs(s, real):
    """A base field of dimension s, real or complex, with its xi."""
    entries = (2.5, 3.7, 9.5, 23.0)[3 - s:]
    fld = fractional_coefficients(DilationVector(entries))
    if not real:
        rng = np.random.default_rng(s)
        w = rng.standard_normal(fld.extents) + 1j * rng.standard_normal(
            fld.extents)
        fld = CoefficientField(weights=w, tag="random")
    return fld, 1.0 / np.array(entries[:s])


class TestFieldStack:
    """A stack of twisted differences on one box is refined field by field:
    its norms are the one-at-a-time norms, with the same grids."""

    # h = 0 gives the zero field; at TOL the others converge at different
    # levels
    H = np.array([0.0, -2.9, 0.7, 3.1, 6.4, 11.8, 20.3, 41.5])
    TOL = 5e-5

    def _one_at_a_time(self, fld, xi):
        return [l1_norm_field(apply_delta(fld, h, xi), tol=self.TOL)
                for h in self.H]

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_matches_one_at_a_time(self, s, real):
        fld, xi = _stack_inputs(s, real)
        want = self._one_at_a_time(fld, xi)
        stack = apply_delta(fld, self.H, xi).weights
        assert stack.shape == (len(self.H),) + fld.extents
        budgets = [1 << 30]
        if s:
            final = max((r.grid for r in want), key=math.prod)
            # one field's finest grid: never the whole stack in one batch
            budgets.append(16 * math.prod(final))
            # a few x_s slices of one field, or its slice weights if larger
            budgets.append(16 * max(math.prod(final[:-1]),
                                    math.prod(fld.extents[:-1]) * final[-1]))
        for budget in budgets:
            got = stack_results(stack, "h{}".format, tol=self.TOL,
                                budget_bytes=budget)
            for g, w in zip(got, want):
                assert [m for m, _ in g.history] == [m for m, _ in w.history]
                assert g.value == pytest.approx(w.value, rel=1e-12, abs=0)
                for (_, a), (_, b) in zip(g.history, w.history):
                    assert a == pytest.approx(b, rel=1e-12, abs=0)
                assert g.grid == w.grid
                assert g.parseval == pytest.approx(w.parseval, rel=1e-12)
        if s:
            assert len({len(w.history) for w in want}) > 1

    def test_corrupted_field_trips_its_parseval_check(self, monkeypatch):
        fld, xi = _stack_inputs(2, False)
        source = norms._field_source

        def corrupted(weights, M, budget_bytes):
            # every field is live on the first grid: field 3 is row 3
            weights = weights.copy()
            weights[3] *= 1.001
            return source(weights, M, budget_bytes)

        monkeypatch.setattr(norms, "_field_source", corrupted)
        with pytest.raises(AssertionError, match="Parseval mismatch on grid "
                                                 "for h3:"):
            stack_results(apply_delta(fld, self.H, xi).weights, "h{}".format)

    def test_nonconvergence_raises_with_the_field_history(self):
        fld, xi = _stack_inputs(1, True)
        with pytest.raises(NormConvergenceError,
                           match=f"h1 after {MAX_DOUBLINGS}") as exc:
            stack_results(apply_delta(fld, self.H[1:], xi).weights,
                          lambda i: f"h{i + 1}", tol=1e-16)
        with pytest.raises(NormConvergenceError) as alone:
            l1_norm_field(apply_delta(fld, self.H[1], xi), tol=1e-16)
        assert len(exc.value.history) == MAX_DOUBLINGS + 1
        assert exc.value.history == alone.value.history

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_power_is_each_fields_vdot(self, s, real):
        """sum |c|^2 of a stack is one reduction over it, bit for bit the
        np.vdot of each field."""
        fld, xi = _stack_inputs(s, real)
        stack = apply_delta(fld, self.H, xi).weights
        power = _field_norms(stack, "h{}".format, 1e-3, 4.0, 1 << 30)[3]
        assert power.tolist() == [np.vdot(c, c).real for c in stack]

    def test_0d_moduli_are_python_abs(self):
        """The 0-dimensional stack of 𝔉²(5.5, ·), mu = 1..30 x 127 t nodes
        (3810 fields): each norm, compared as float hex, is Python's abs of
        its weight.  np.abs is not: on AVX-512 numpy (2.4.6) it differed in
        1434 of these fields, np.hypot in none."""
        fld = fractional_coefficients(DilationVector((5.5,)))
        h = 5.5 * (np.linspace(-np.pi, np.pi, 127)
                   + 2.0 * np.pi * np.arange(1, 31)[:, None])
        stack = apply_delta(fld, h, 1.0 / np.array(())).weights.ravel()
        M0, values, level, power = _field_norms(stack, str, 1e-3, 4.0,
                                                1 << 30)
        assert (M0, values.shape) == ((), (1, 3810))
        assert not level.any()
        want = [abs(w) for w in stack.tolist()]
        assert [v.hex() for v in values[0].tolist()] == \
            [v.hex() for v in want]
        assert power.tolist() == [v * v for v in want]


class TestScalingSanity:
    def test_norm_over_log_product_bounded(self):
        ratios = []
        for pair in [(8.0, 8.0), (16.0, 16.0), (32.0, 32.0)]:
            v = l1_norm("D", DilationVector(pair)).value
            ratios.append(v / math.prod(math.log(e) for e in pair))
        assert max(ratios) < 100
        # the normalized sequence should not blow up across the sweep
        assert max(ratios) / min(ratios) < 3

    def test_f_norm_log_scaling(self):
        ratios = []
        for pair in [(7.5, 16.0), (7.5, 32.0), (7.5, 64.0)]:
            v = l1_norm("F", DilationVector(pair)).value
            ratios.append(v / (math.log(pair[1]) * math.log(pair[0])))
        assert max(ratios) < 100


class TestVerifyIdentity:
    def test_2_3_passes(self):
        report = verify_identity(DilationVector((2, 3)), num_points=100,
                                 nu_max=2**12, seed=0)
        assert report.passed

    def test_zero_last_coordinate_exact(self):
        n = DilationVector((2, 3))
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-math.pi, math.pi, 20),
                               np.zeros(20)])
        residuals, tails, p_full = identity_residuals(n, pts, nu_max=16)
        slack = 1e-9 * p_full
        assert np.all(residuals <= tails + slack)
        assert np.median(residuals) <= slack

    def test_median_residual_shrinks_with_nu_max(self):
        n = DilationVector((2.0, 3.5))
        r1 = verify_identity(n, num_points=50, nu_max=2**10, seed=1)
        r2 = verify_identity(n, num_points=50, nu_max=2**11, seed=1)
        assert r2.median_residual < r1.median_residual

    def test_rejects_1d(self):
        with pytest.raises((ValueError, IndexError)):
            verify_identity(DilationVector((5.0,)), num_points=5)

    @pytest.mark.parametrize("entries", [(5, 9.5, 23), (7, 29)])
    def test_slack_counts_full_lattice(self, entries):
        n = DilationVector(entries)
        report = verify_identity(n, num_points=3, nu_max=8)
        assert report.slack == 1e-9 * len(build_lattice(n).points)

    def test_lattice_count_past_int64(self):
        """(426, 4.26e17) has 427 floors below 2^63 whose sum is not: P is
        summed exactly, so its slack is positive and the check passes (an
        int64 sum wrapped to -1.3e18)."""
        n = DilationVector((426.0, 4.26e17))
        floors = build_lattice(n, 1).lambda_parts.floor.tolist()
        _, _, p_full = identity_residuals(n, np.zeros((1, 2)), 1)
        assert p_full == sum(floors) + 427 > 2**63
        report = verify_identity(n, num_points=7, nu_max=1)
        assert report.slack == 1e-9 * p_full and report.passed

    def test_budget_counts_working_set_before_lattice(self, monkeypatch):
        """A budget above the phase matrix but below the arrays held with it
        is refused before any lattice point is enumerated."""
        monkeypatch.setattr(norms, "build_lattice", _never)
        n = DilationVector((30, 30, 30, 30))
        phases = 16 * 200 * math.prod(n.entries[:-1]) / 6
        pts = np.zeros((200, 4))
        with pytest.raises(ResourceLimitError):
            identity_residuals(n, pts, 64, budget_bytes=int(2 * phases))

    def test_budget_counts_actual_modes(self, monkeypatch):
        """P' (5456) exceeds its volume bound (4500): a budget between the
        two working sets is refused once the lattice is built."""
        monkeypatch.setattr(norms, "slice_weight_matrix", _never)
        n = DilationVector((30, 30, 30, 30))
        pts = np.zeros((200, 4))
        with pytest.raises(ResourceLimitError):
            identity_residuals(n, pts, 64,
                               budget_bytes=norms._IDENTITY_ARRAYS * 16 * 200
                               * 5000)

    def test_budget_sizes_the_nu_chunks(self):
        """At 1 MiB the nu-series chunks shrink (tracemalloc: 0.6 MiB), from
        the 8 MiB chunks of the default budget (3.4 MiB, in blocks of
        points; 19.5 MiB with N x chunk arrays)."""
        pts = np.random.default_rng(3).uniform(-math.pi, math.pi, (200, 2))
        tracemalloc.start()
        try:
            identity_residuals(DilationVector((7.3, 19.6)), pts, 4096,
                               budget_bytes=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20

    @pytest.mark.parametrize("budget, bound", [
        (DEFAULT_BUDGET_BYTES, _CHUNK_BYTES), (1 << 20, 3 << 19)])
    def test_nu_series_peak(self, budget, bound):
        """verify (5, 9.5, 23) at 200 points to nu_max 8192: a nu chunk's
        two phase tables and one block of points' product, divisor and pair
        are held at once, so the run peaks under one chunk at the default
        budget (tracemalloc: 5.8 MiB; 17.7 MiB with N x chunk arrays) and
        under 1.5 budgets at 1 MiB (1.0 MiB; 2.5 MiB)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verify_identity(DilationVector((5, 9.5, 23)), num_points=200,
                            nu_max=8192, budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize("points", [1, 2, 3, 5, 33, 200])
    def test_point_blocks_keep_the_series(self, points):
        """Each nu chunk goes in blocks of (P' + N) / 8 >= 2 points (P' = 31
        here); at every budget the series is, bit for bit, one N x chunk
        product a chunk with its pairs added in nu order, also where a
        one-point tail joins the block before it (N = 5: one block of 5;
        N = 33: blocks of 8, 8, 8 and 9), whose one-row product numpy would
        sum in another order; and the budget, which sets the chunks, does
        not reach the series."""
        lat = build_lattice(DilationVector((5, 9.5, 23)), 2)
        pts = np.random.default_rng(points).uniform(-math.pi, math.pi,
                                                    (points, 3))
        phases = np.exp(1j * (pts[:, :2] @ lat.points.T))
        args = lat.lambda_parts.value, phases, pts[:, 2], 2000
        want = r_series_unblocked(*args, DEFAULT_BUDGET_BYTES).tobytes()
        for budget in (DEFAULT_BUDGET_BYTES, 4 << 20, 1 << 20, 1 << 14):
            assert _r_series(*args, budget).tobytes() == \
                r_series_unblocked(*args, budget).tobytes() == want

    def test_budget_refused_before_points_are_drawn(self):
        """10^8 points would take 1.5 GiB: the budget refuses them from n
        and N alone, before any point is drawn."""
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="phases"):
                verify_identity(DilationVector((5, 7)), num_points=10**8,
                                budget_bytes=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _never(*args, **kwargs):
    raise AssertionError("called before the budget refused the run")


class TestFrakF:
    # values of the implementation that refined one t node at a time
    ONE_NODE_AT_A_TIME = [
        (2, (7.5, 23.0), 16, -40.15722231964415),
        (3, (4.5, 9.0, 18.0), 8, -1268.208022801159),
        (4, (2.5, 3.7, 5.2, 9.1), 6, -7481.665742164195),
    ]

    @pytest.mark.parametrize("k, entries, t_nodes, want",
                             ONE_NODE_AT_A_TIME)
    def test_stacked_t_integral_keeps_values(self, k, entries, t_nodes,
                                             want):
        got = frak_f(k, DilationVector(entries), t_nodes=t_nodes)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0)

    # the rows of the sweep --n1 "list(5.5,7.3,9.7)" --n2 "2.3*n1"
    # --n3 "1.9*n2", as its float arithmetic gives them
    CLI_STUDY = [(v, 2.3 * v, 1.9 * (2.3 * v)) for v in (5.5, 7.3, 9.7)]

    @pytest.mark.parametrize("tilde, n1", [
        ((), 5.5), ((12.65,), 5.5), ((3.7, 5.2), 2.5),
        ((3.7, 5.2, 6.1), 2.5)])
    def test_minus_mu_integral_mirrors_plus_mu(self, tilde, n1):
        """For a real F of dimension 0 to 3, the -mu t-integral equals the
        +mu one, node t of one stack mirroring node -t of the other with
        the same grid history."""
        fld = fractional_coefficients(DilationVector(tilde + (n1,)))
        xi, kw = 1.0 / np.array(tilde), dict(tol=1e-3, rho=4.0)
        base = l1_norm_field(fld).value
        for mu in (1, 2):
            plus, _, norms_plus = t_integral(fld, xi, n1, mu, base, 6, kw)
            minus, _, norms_minus = t_integral(fld, xi, n1, -mu, base, 6, kw)
            assert minus == pytest.approx(plus, rel=1e-12, abs=1e-12)
            for a, b in zip(norms_plus, norms_minus[::-1]):
                assert [m for m, _ in a.history] == \
                    [m for m, _ in b.history]
                assert b.value == pytest.approx(a.value, rel=1e-12)

    @pytest.mark.parametrize("k, entries, t_nodes", [
        *[case[:3] for case in ONE_NODE_AT_A_TIME],
        *[(k, n, 64) for n in CLI_STUDY for k in (2, 3)]])
    def test_equals_two_sided_sum(self, k, entries, t_nodes):
        got = frak_f(k, DilationVector(entries), t_nodes=t_nodes)
        want, _ = frak_f_two_sided(k, DilationVector(entries), t_nodes)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("entries", [(2.5, 5.5, 9.7), (2.5, 3.7, 5.2)])
    def test_k3_matches_engine_free_oracle(self, entries):
        """frak_f(3) against its definition evaluated without the norm
        engine (oracles.frak_f_dense), on the same 15 t nodes, so only the
        norms' quadratures differ: frak_f refines each norm to tol = 1e-5,
        and the dense Riemann sums on 256 times each box are within about
        1e-5 relative (their move from 64 times, over 15, since sums of |f|
        converge as M^-2: 7e-6 and 6e-6 here).  Hence 2e-5 relative;
        measured 5.4e-6 and 4.5e-6."""
        n = DilationVector(entries)
        got = frak_f(3, n, t_nodes=8, tol=1e-5, rho=64.0)
        want = frak_f_dense(3, n, t_nodes=8, rho=256)
        assert got.value == pytest.approx(want, rel=2e-5, abs=0)

    def test_stacks_shift_by_positive_mu_alone(self, monkeypatch, capsys):
        """Each field of the cli-study sweep is h = n1 (t + 2 pi mu) on the
        t nodes -pi..pi, with mu >= 1: 3048 fields in all, half of those of
        the two-sided sum, in 9 stacks, one per level and row of the sweep
        (24 mu terms)."""
        stacks = self.spy_stacks(monkeypatch)
        assert cli_main(["sweep", "--n1", "list(5.5,7.3,9.7)",
                         "--n2", "2.3*n1", "--n3", "1.9*n2"]) == 0
        capsys.readouterr()
        terms = [term for stack in stacks for term in stack]
        assert (len(stacks), len(terms)) == (9, 24)
        assert sum(fields for *_, fields in terms) == 3048
        firsts = {row[0] for row in self.CLI_STUDY}
        for mu, _, _, n1, _ in terms:
            assert mu >= 1
            assert min(firsts, key=lambda v: abs(v - n1)) == \
                pytest.approx(n1, rel=1e-12)

    @staticmethod
    def spy_stacks(monkeypatch) -> list:
        """Per stack of twisted differences that frak_f builds, its mu terms
        (mu, dimension, all zero, n1, fields): mu is decoded from each
        field's h = n1 (t + 2 pi mu), where h's last axis runs over the t
        nodes -pi..pi, and must be one mu along that axis."""
        stacks = []

        def spy(fld, h, xi):
            out = apply_delta(fld, h, xi)
            rows = np.reshape(h, (-1, np.shape(h)[-1]))
            n1 = (rows[:, -1] - rows[:, 0]) / (2 * np.pi)
            t = np.linspace(-np.pi, np.pi, rows.shape[1])
            mu = (rows / n1[:, None] - t) / (2 * np.pi)
            assert mu == pytest.approx(np.broadcast_to(np.round(mu[:, :1]),
                                                       mu.shape), rel=1e-12)
            zero = ~np.reshape(out.weights, (len(rows), -1)).any(axis=1)
            stacks.append([(round(m), fld.s, bool(z), v, rows.shape[1])
                           for m, z, v in zip(mu[:, 0], zero, n1.tolist())])
            return out
        monkeypatch.setattr(norms.kernels, "apply_delta", spy)
        return stacks

    def test_mu_range_floors_exactly(self, monkeypatch):
        # the stored 21.9 is below 3 times the stored 7.3: [n_2/n_1] = 2,
        # although the float quotient rounds to 3.0
        stacks = self.spy_stacks(monkeypatch)
        frak_f(2, DilationVector((7.3, 21.9)), t_nodes=4)
        assert 21.9 / 7.3 == 3.0
        assert [t[0] for stack in stacks for t in stack] == [1, 2]

    def test_equal_entries_vanish(self):
        assert frak_f(2, DilationVector((5, 5))).value == 0.0

    def test_2_3_hand_value(self):
        # the only surviving constituent is the 1-D F norm pi, times 2 pi
        got = frak_f(2, DilationVector((2, 3)), tol=1e-6)
        assert got.value == pytest.approx(2 * math.pi * math.pi, rel=1e-5)

    def test_mu_terms_sum_to_two_sided_value(self, monkeypatch):
        """[n_2/n_1] mu terms, each twisting the constant {n_1}: all zero
        exactly for integer n_1; the value is the two-sided oracle's."""
        for entries in [(7.5, 23.0), (4, 9)]:
            stacks = self.spy_stacks(monkeypatch)
            got = frak_f(2, DilationVector(entries), t_nodes=16)
            want, _ = frak_f_two_sided(2, DilationVector(entries), 16)
            assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)
            terms = [t for stack in stacks for t in stack]
            assert [(mu, s, fields) for mu, s, _, _, fields in terms] == \
                [(mu, 0, 31)
                 for mu in range(1, int(entries[1] / entries[0]) + 1)]
            assert all(zero for _, _, zero, _, _ in terms) == \
                (entries[0] % 1 == 0)

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            frak_f(2, DilationVector((3, 2)))

    def test_rejects_single_t_node(self):
        # the trapezoid over one node is 0 and would drop every mu term
        with pytest.raises(ValueError, match="t_nodes"):
            frak_f(2, DilationVector((5.5, 12.65)), t_nodes=1)

    def test_no_field_objects_built(self, monkeypatch):
        """frak_f(2, (5.5, 11001)) refines 254 003 fields; a NormResult is
        built only for its 3 plain F norms, none for a twisted difference."""
        built, record = [], norms.NormResult

        def counted(*args):
            built.append(args)
            return record(*args)
        monkeypatch.setattr(norms, "NormResult", counted)
        frak_f(2, DilationVector((5.5, 11001.0)))
        assert len(built) <= 3

    def test_parseval_error_names_a_live_field(self, monkeypatch):
        """A field corrupted on a level that others have left is named by
        its own delta(h) tag: a level's rows are the fields of ``live``."""
        apply, sums = norms.kernels.apply_delta, norms._slice_abs_sums
        source, stacks, seen = norms._folded_source, [], []

        def spied_apply(fld, h, xi):
            stacks.append((fld.tag, np.ravel(h)))
            return apply(fld, h, xi)

        def spied_sums(*args):
            seen.append(args[6])  # live
            return sums(*args)

        def corrupted(weights, M, budget_bytes):
            # a stack's level with fewer rows than fields: its last row
            if stacks and len(weights) < len(stacks[-1][1]):
                weights = weights.copy()
                weights[-1] *= 1.001
            return source(weights, M, budget_bytes)
        monkeypatch.setattr(norms.kernels, "apply_delta", spied_apply)
        monkeypatch.setattr(norms, "_slice_abs_sums", spied_sums)
        monkeypatch.setattr(norms, "_folded_source", corrupted)
        with pytest.raises(AssertionError) as exc:
            frak_f(3, DilationVector((4.5, 9.0, 18.0)), t_nodes=8)
        (tag, h), live = stacks[-1], seen[-1]
        assert 0 < len(live) < len(h) and live[-1] >= len(live)
        assert str(exc.value).startswith(
            f"Parseval mismatch on grid for delta({h[live[-1]]})|{tag}: ")

    def test_k3_structure(self, monkeypatch):
        """Level l = 0 twists the 1-D F of (9, 4.5) for mu = 1..[18/4.5],
        then l = 1 that of (4.5, 4.5) for mu = 1..[9/4.5]; the value is the
        two-sided oracle's."""
        stacks = self.spy_stacks(monkeypatch)
        n = DilationVector((4.5, 9.0, 18.0))
        got = frak_f(3, n, t_nodes=8)
        assert [t[:2] for stack in stacks for t in stack] == \
            [(1, 1), (2, 1), (3, 1), (4, 1), (1, 1), (2, 1)]
        want, _ = frak_f_two_sided(3, n, 8)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0)


class TestDoubleIntegral:
    def test_beta_periodicity(self):
        a = double_integral_ld2(8, 1.3, 0.4)
        b = double_integral_ld2(8, 1.3, 0.4 + 2 * math.pi)
        assert a == pytest.approx(b, rel=1e-9)

    def test_requires_n_above_3(self):
        with pytest.raises(ValueError):
            double_integral_ld2(2, 1.0, 1.0)

    def test_moderate_deviation_from_norm_multiple(self):
        n = 64
        lhs = double_integral_ld2(n, 1.1, 0.7)
        rhs = 4 * math.pi * l1_norm("D", DilationVector((float(n),))).value
        assert abs(lhs - rhs) / math.log(math.log(n)) < 60


class TestRationalSlopeOracle:
    """D and F of n = (m, p m / q) against their closed forms at the slope
    p / q, which use neither the lattice nor the engine: the Riemann sum on
    l1_norm's final grid is its value.  Each n's float lattice is the
    rational one (D's grid power is the rational count).  At 1 MiB a D
    norm's last level is over the chunk, so its blocks split, and the norm
    is the one of the default budget, bit for bit."""

    CASES = [(24, 4, 3), (40, 3, 4), (20, 4, 3), (34, 3, 4), (30, 3, 2),
             (32, 1, 1)]

    @pytest.mark.parametrize("kernel", ["D", "F"])
    def test_value_is_the_closed_form_riemann_sum(self, kernel):
        for m, p, q in self.CASES:
            n, oracle, results = DilationVector((m, p * m / q)), {}, []
            for budget in (DEFAULT_BUDGET_BYTES, 1 << 20):
                res = l1_norm(kernel, n, budget_bytes=budget)
                results.append(res)
                if kernel == "D":
                    assert res.parseval == sum(p * u // q + 1
                                               for u in range(m + 1))
                    assert budget > 1 << 20 or \
                        16 * math.prod(res.grid) // 2 > budget
                if res.grid not in oracle:
                    oracle[res.grid] = rational_riemann_sum(kernel, m, p, q,
                                                            res.grid)
                assert res.value == pytest.approx(oracle[res.grid],
                                                  rel=1e-12, abs=0)
            assert results[0] == results[1]

    def test_f_norm_is_the_studys_i_m_at_the_slope(self):
        """||F(m, p m / q)|| = I_m(p / q): F's weights {L_2(k_1)} =
        {p (m - k_1) / q} are I_m's {alpha k} in reverse order, so F's
        closed form on the grid of the irrational study's I_m is its value
        (the engine-free side of the identity that joins the two
        studies)."""
        for m, p, q in self.CASES:
            alpha = AlphaSpec.from_rational(p, q)
            res = I_n(alpha, m)
            assert study_ratio(alpha, [m])[0].value == res.value
            assert res.value == pytest.approx(
                rational_riemann_sum("F", m, p, q, res.grid), rel=1e-12,
                abs=0)
