"""Command-line interface: parsing, exit codes, CSV/JSON contracts."""

import json
import math
import os
import signal
import time
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import simplexleb.core
import simplexleb.irrational
import simplexleb.norms
from simplexleb.asymptotics import full_predictor
from simplexleb.cli import main
from simplexleb.core import DilationVector
from simplexleb.norms import l1_norm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sweep_cells(out):
    """The CSV rows of a sweep as dicts keyed by the header."""
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    return [dict(zip(rows[0].split(","), r.split(","))) for r in rows[1:]]


def _never(*args, **kwargs):
    raise AssertionError("called before the budget refused the run")


@pytest.fixture
def no_lattice(monkeypatch):
    """Fail the test if any lattice bound L_s is evaluated."""
    monkeypatch.setattr(simplexleb.core, "lambda_parts_at", _never)


def _no_json_constants(name):
    raise AssertionError(f"non-JSON constant {name} in output")


class TestNormCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "2,3",
                           "--tol", "1e-4")
        assert code == 0
        doc = json.loads(out)
        want = l1_norm("D", DilationVector((2, 3)), tol=1e-4)
        assert doc["value"] == pytest.approx(want.value, rel=1e-12)
        assert doc["normalized"] == pytest.approx(
            want.value / (2 * math.pi) ** len(want.grid), rel=1e-12)

    def test_zero_kernel(self, capsys):
        code, out, _ = run(capsys, "norm", "--kernel", "F", "--n", "2,4")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_malformed_tuple_exits_1(self, capsys):
        code, _, err = run(capsys, "norm", "--kernel", "D", "--n", "2,x")
        assert code == 1
        assert "malformed" in err

    def test_missing_n_exits_1(self, capsys):
        code, _, _ = run(capsys, "norm", "--kernel", "D")
        assert code == 1

    def test_nonconvergence_exits_2_with_value(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol = 1e-16\n")
        code, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "5",
                           "--config", str(cfgfile))
        assert code == 2
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["value"] > 0

    def test_budget_too_small_exits_1(self, capsys):
        code, out, err = run(capsys, "norm", "--kernel", "D",
                             "--n", "7.3,19.6", "--budget-mb", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error:")

    def test_nonconverged_normalized_uses_norm_dimension(self, capsys):
        # F of a 2-vector is a kernel on T^1: normalized = value / (2 pi)
        code, out, _ = run(capsys, "norm", "--kernel", "F",
                           "--n", "7.3,19.6", "--tol", "1e-16")
        assert code == 2
        doc = json.loads(out, parse_constant=_no_json_constants)
        assert doc["converged"] is False
        assert doc["error_estimate"] is None
        assert doc["normalized"] == doc["value"] / (2 * math.pi)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_1(self, capsys, tol):
        code, out, err = run(capsys, "norm", "--kernel", "D",
                             "--n", "7.3,19.6", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: tol must be")

    def test_field_grid_below_box_exits_1(self, capsys):
        for kernel in ("F", "D", "S", "R"):
            code, out, err = run(capsys, "norm", "--kernel", kernel,
                                 "--n", "7.3,19.6", "--rho", "0.5")
            assert code == 1, kernel
            assert out == ""
            assert err.startswith("simplexleb: error: grid size"), err
            assert "Traceback" not in err

    @pytest.mark.parametrize("kernel", ["F", "D"])
    def test_budget_refused_before_lattice(self, capsys, no_lattice, kernel):
        code, out, err = run(capsys, "norm", "--kernel", kernel,
                             "--n", "120,120,120,120", "--budget-mb", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: one x_s slice")

    def test_default_budget_value_unchanged(self, capsys):
        code, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "7.3,19.6")
        assert code == 0
        want = l1_norm("D", DilationVector((7.3, 19.6)))
        assert json.loads(out)["value"] == want.value

    @pytest.mark.parametrize("budget_mb", [4, 16])
    @pytest.mark.parametrize("n", ["256,256", "16,32,64"])
    def test_d_peak_within_the_budget(self, capsys, n, budget_mb):
        """A D norm transforms a batch through a buffer of about a quarter
        batch, each block writing its own weights: the tracemalloc peak of
        the whole command is <= --budget-mb (measured 1.9-2.1 and 1.4 MiB
        at 4 MiB, 3.0 and 2.5 MiB at 16 MiB; 3.2-3.5, 1.7, 5.4 and 2.9 MiB
        with a weight array of whole batches, 5.3, 4.7, 9.5 and 8.9 MiB with
        a buffer of whole batches)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, _, _ = run(capsys, "norm", "--kernel", "D", "--n", n,
                             "--budget-mb", str(budget_mb))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= budget_mb << 20

    def test_output_embeds_config_and_conventions(self, capsys):
        _, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "2,3")
        doc = json.loads(out)
        assert doc["config"]["n"] == "2,3"
        assert doc["conventions"]["normalization"] == "plain"
        assert doc["conventions"]["zero_dim_norm"] == "modulus"


RHO_COMMANDS = {
    "norm": ["norm", "--kernel", "D", "--n", "5,7"],
    "sweep": ["sweep", "--n1", "list(5)", "--n2", "list(7)"],
    "irrational": ["irrational", "--alpha", "golden", "--nmax", "64"],
}


@pytest.mark.parametrize("rho", ["inf", "nan", "0", "-1", "1e300"])
@pytest.mark.parametrize("command", list(RHO_COMMANDS))
def test_bad_rho_exits_1(capsys, monkeypatch, command, rho):
    # a huge rho must be refused by the budget before any FFT length is
    # sought: a search that large would not finish, so fail instead of hang
    search = simplexleb.norms._smooth_lengths

    def bounded(top):
        assert top <= 1 << 40, "FFT lengths sought before the budget check"
        return search(top)

    monkeypatch.setattr(simplexleb.norms, "_smooth_lengths", bounded)
    code, out, err = run(capsys, *RHO_COMMANDS[command], "--rho", rho)
    assert code == 1
    assert out == ""
    assert err.startswith("simplexleb: error: ")
    assert len(err.splitlines()) == 1, err


class _Hung(Exception):
    """Raised by the alarm; not an OSError, which main turns into exit 1."""


def _hang(*args):
    raise _Hung


def run_within_a_second(capsys, argv) -> tuple:
    """run(), under an alarm that raises _Hung after one second."""
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(1)
    try:
        return run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestInt64Bounds:
    """Inputs whose floors or grid lengths do not fit int64 are refused
    before any work, each with one error line naming its bound."""

    @pytest.mark.parametrize("argv", [
        ["norm", "--kernel", "D", "--n", "1e-20,1e25"],
        ["norm", "--kernel", "F", "--n", "1e-20,1e25"],
        ["verify", "--n", "1e-20,1e25", "--points", "3"],
        ["sweep", "--n1", "list(16)", "--n2", "n1**n1"],
        ["norm", "--kernel", "D", "--n", "5,1e300"],
    ])
    def test_refused_within_a_second(self, capsys, argv):
        code, out, err = run_within_a_second(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("simplexleb: error:") and "2^63" in err
        assert err.count("\n") == 1

    def test_lone_origin_still_runs(self, capsys):
        code, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "0.3,5000")
        assert code == 0
        assert json.loads(out)["converged"] is True


class TestWorkBound:
    """Inputs whose grids or mu-sum exceed the work bound are refused before
    any synthesis, each with one error line naming the bound."""

    @pytest.mark.parametrize("argv", [
        ["norm", "--kernel", "R", "--n", "3e-10,4e15", "--budget-mb", "4"],
        ["norm", "--kernel", "D", "--n", "1e-300,1e-300,1e17",
         "--budget-mb", "4"],
        ["sweep", "--n1", "list(1e-300)", "--n2", "n1*1e200"],
        # 10^12 mu terms of 127 0-dimensional fields: under 2^48 as fields,
        # over it at 2^9 nodes a field
        ["sweep", "--n1", "list(1e-10)", "--n2", "n1*1e12"],
    ])
    def test_refused_within_a_second(self, capsys, argv):
        code, out, err = run_within_a_second(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("simplexleb: error:") and "work bound" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("budget", [[], ["--budget-mb", "64"]])
    def test_mu_term_over_the_budget_refused_within_a_second(self, capsys,
                                                             budget):
        """One mu term of 4 * 10^7 - 1 twisted differences: at 2^9 nodes a
        field the mu-sum is under the work bound, but its fields' 96 bytes
        each are over the budget."""
        code, out, err = run_within_a_second(capsys, [
            "sweep", "--n1", "list(5.5)", "--n2", "2.3*n1",
            "--t-nodes", "20000000", *budget])
        assert (code, out) == (1, "")
        assert err.startswith("simplexleb: error: one mu term") and \
            "over the budget" in err
        assert err.count("\n") == 1


def _decimal(low=-30, high=30):
    """A positive decimal m 10^e, 1 <= m <= 999, written out in full."""
    return st.builds(lambda m, e: f"{Decimal(m).scaleb(e):f}",
                     st.integers(1, 999), st.integers(low, high - 2))


_ENTRY = st.one_of(_decimal(-2, 2), _decimal())
_N = st.lists(_ENTRY, min_size=1, max_size=4).map(",".join)
_EXTREME = st.sampled_from(["0", "-1", "1e-300", "1e-16", "1e-9", "1e-5",
                            "0.5", "4", "64", "1e300", "inf", "nan"])
_QUADRATURE = st.lists(st.tuples(st.sampled_from(["--tol", "--rho"]),
                                 _EXTREME), max_size=2).map(
    lambda flags: [word for flag in flags for word in flag])
_EXPR = st.sampled_from(["n1", "2.3*n1", "n1**2", "pow(n1,3)", "n1/0",
                         "log(n1)", "sqrt(n1)", "exp(n1)", "n1**n1", "-n1",
                         "floor(n1)+1", "n1*1e20", "n1**0.5+1"])
_ALPHA = st.one_of(
    st.builds("rational:{}/{}".format, st.integers(-3, 999),
              st.integers(-1, 999)),
    st.just("golden"),
    st.builds("liouville:{},{}".format, st.integers(-1, 12),
              st.integers(-1, 6)),
    _decimal(-30, 0).map("dec:{}".format))
_NORM = st.builds(
    lambda kernel, n, quad: ["norm", "--kernel", kernel, "--n", n, *quad],
    st.sampled_from(["D", "F", "S", "Fcomposite", "R"]), _N, _QUADRATURE)
_VERIFY = st.builds(
    lambda n, points, nu: ["verify", "--n", n, "--points", points,
                           "--nu-max", nu],
    _N, st.sampled_from(["-1", "0", "1", "7", "40"]),
    st.sampled_from(["-1", "0", "1", "64", "4096"]))
_SWEEP = st.builds(
    lambda n1, n2, n3, t, quad: ["sweep", "--n1", n1, "--n2", n2, *n3,
                                 "--t-nodes", t, *quad],
    st.one_of(st.lists(_ENTRY, min_size=1, max_size=3).map(
                  lambda v: f"list({','.join(v)})"),
              st.builds("geom({},{},{})".format, _ENTRY, _ENTRY,
                        st.integers(0, 4))),
    _EXPR,
    st.one_of(st.just([]),
              _EXPR.map(lambda e: ["--n3", e.replace("n1", "n2")])),
    st.sampled_from(["-1", "1", "2", "3", "8", "1000000000"]), _QUADRATURE)
_IRRATIONAL = st.builds(
    lambda alpha, ns, quad: ["irrational", "--alpha", alpha, *ns, *quad],
    _ALPHA,
    st.one_of(st.integers(-1, 1 << 12).map(lambda n: ["--nmax", str(n)]),
              st.lists(st.integers(-3, 3000), min_size=1, max_size=3).map(
                  lambda v: ["--n", ",".join(map(str, v))])),
    _QUADRATURE)
_ARGV = st.builds(lambda command, budget: command + ["--budget-mb", budget],
                  st.one_of(_NORM, _VERIFY, _SWEEP, _IRRATIONAL),
                  st.sampled_from(["1", "2", "3", "4"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_ARGV)
def test_every_input_exits_0_to_3(capsys, argv):
    """Any argv of the grammar above at --budget-mb 1-4: decimal entries
    from 1e-30 to 1e30, d = 1..4, extreme --tol, --rho and --t-nodes, the
    four --alpha forms and sweep expressions, ends in exit 0-3, with
    nothing raised.  A run still going after a second is dropped, not
    failed: how long a valid input runs is not the exit-code contract."""
    try:
        code, _, _ = run_within_a_second(capsys, argv)
    except _Hung:
        reject()
    assert code in (0, 1, 2, 3)


class TestVerifyCommand:
    def test_passes_on_exact_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2,3", "--points", "50",
                           "--seed", "7")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_3d_noninteger(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5,9.5,23",
                           "--points", "20")
        assert code == 0

    def test_1d_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2")
        assert code == 1
        assert "d >= 2" in err

    def test_budget_refused_before_lattice(self, capsys, no_lattice):
        code, out, err = run(capsys, "verify", "--n", "120,120,120,120",
                             "--points", "200", "--nu-max", "64",
                             "--budget-mb", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: phases")

    def test_budget_counts_the_origin(self, capsys):
        """The simplex volume of n' = 0.001 is far below 1, but P' >= 1:
        the budget refuses the 2 * 10^6 points before they are drawn."""
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--n", "0.001,5",
                                 "--points", "2000000", "--budget-mb", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err.startswith("simplexleb: error: phases")
        assert peak < 1 << 20

    @pytest.mark.parametrize("option", ["--nu-max", "--points"])
    def test_empty_verify_exits_1(self, capsys, option):
        code, out, err = run(capsys, "verify", "--n", "5,9.5,23", option, "0")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error:")


class TestSweepCommand:
    def test_single_point_matches_norm(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(16)",
                           "--n2", "list(64)", "--t-nodes", "8")
        assert code == 0
        data_rows = [l for l in out.splitlines()
                     if l and not l.startswith("#")]
        header, row = data_rows[0].split(","), data_rows[1].split(",")
        cells = dict(zip(header, row))
        want = l1_norm("D", DilationVector((16, 64)))
        assert float(cells["norm_D"]) == pytest.approx(want.value, rel=1e-12)

    def test_expression_starting_with_minus(self, capsys):
        """argparse reads a separate '-n1+20' as an option, so that
        spelling exits 1 with its message and no traceback; written
        --n2=-n1+20 it is the expression."""
        code, out, err = run(capsys, "sweep", "--n1", "list(5.5)", "--n2",
                             "-n1+20", "--t-nodes", "2")
        assert code == 1 and not out
        assert "--n2: expected one argument" in err
        assert "Traceback" not in err
        code, out, _ = run(capsys, "sweep", "--n1", "list(5.5)",
                           "--n2=-n1+20", "--t-nodes", "2")
        assert code == 0
        assert float(sweep_cells(out)[0]["n2"]) == 14.5

    def test_residual_and_ratio_recomputable(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(16)",
                           "--n2", "list(64)", "--t-nodes", "8")
        assert code == 0
        cells = sweep_cells(out)[0]
        pred = full_predictor(DilationVector((16, 64)),
                              {2: float(cells["frakF2"])})
        assert float(cells["main_term"]) == pred.main
        residual = float(cells["norm_D"]) - pred.total
        assert float(cells["residual"]) == residual
        assert float(cells["ratio"]) == residual / pred.envelope

    def test_envelope_column(self, capsys):
        _, out, _ = run(capsys, "sweep", "--n1", "list(16)",
                        "--n2", "list(64)", "--t-nodes", "8")
        data_rows = [l for l in out.splitlines()
                     if l and not l.startswith("#")]
        cells = dict(zip(data_rows[0].split(","), data_rows[1].split(",")))
        want = math.log(math.log(16.0)) * math.log(64.0)
        assert float(cells["envelope"]) == pytest.approx(want, rel=1e-12)

    def test_expression_axis(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(4,5)",
                           "--n2", "pow(n1,2)", "--t-nodes", "8")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[1].split(",")[1:3] == ["4", "16"]
        assert rows[2].split(",")[1:3] == ["5", "25"]

    def test_arithmetic_axis(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(4,5.5)",
                           "--n2", "2*n1+3", "--n3", "2.3*n2", "--t-nodes", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        cells = [dict(zip(rows[0].split(","), r.split(","))) for r in rows[1:]]
        assert [float(c["n2"]) for c in cells] == [11.0, 14.0]
        assert [float(c["n3"]) for c in cells] == [2.3 * 11.0, 2.3 * 14.0]

    def test_expression_cannot_reach_python(self, capsys):
        code, out, err = run(capsys, "sweep", "--n1", "list(5.5)", "--n2",
                             "().__class__.__name__.__len__()")
        assert code == 1
        assert out == ""
        assert "simplexleb: error:" in err

    def test_single_t_node_exits_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--n1", "list(5.5)",
                             "--n2", "2.3*n1", "--t-nodes", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error:")

    def test_nonconvergent_row_flagged_exit_2(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(5.5)",
                           "--n2", "2.3*n1", "--tol", "1e-13")
        assert code == 2
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        cells = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert cells["converged"] == "0"
        assert float(cells["norm_D"]) > 0

    def test_converged_rows_flagged_1(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(4)",
                           "--n2", "list(9)", "--t-nodes", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].split(",")[-1] == "converged"
        assert rows[1].split(",")[-1] == "1"

    def test_geom_axis_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "geom(4,8,5)",
                           "--n2", "pow(n1,2)", "--t-nodes", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 6  # header + 5 points

    def test_descending_rows_yield_nan_predictors(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n1", "list(64)",
                           "--n2", "list(17)", "--t-nodes", "4")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        cells = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert math.isnan(float(cells["main_term"]))
        assert math.isnan(float(cells["frakF2"]))
        assert float(cells["norm_D"]) > 0

    @pytest.mark.parametrize("spec", ["geom(16,)", "list()", "list(,)"])
    def test_grammar_error_exits_1(self, capsys, spec):
        code, _, err = run(capsys, "sweep", "--n1", spec)
        assert code == 1

    def test_geom_over_budget_exits_1_at_once(self, capsys):
        """10^12 values at 32 bytes each are refused before the list of
        them is built."""
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--n1",
                             "geom(16,64,1000000000000)", "--n2", "pow(n1,2)")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("simplexleb: error: axis "
                              "'geom(16,64,1000000000000)' needs "
                              "32000000000000 bytes")

    def test_mismatched_lengths_exit_1(self, capsys):
        code, _, err = run(capsys, "sweep", "--n1", "list(4,5)",
                           "--n2", "list(9)")
        assert code == 1

    def test_byte_identical_outputs(self, tmp_path):
        args = ["sweep", "--n1", "list(4,5)", "--n2", "pow(n1,2)",
                "--t-nodes", "8", "--output", str(tmp_path / "out.csv")]
        main(args)
        first = (tmp_path / "out.csv").read_bytes()
        main(args)
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_seconds_zero_without_timings(self, capsys):
        _, out, _ = run(capsys, "sweep", "--n1", "list(4)",
                        "--n2", "list(9)", "--t-nodes", "4")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        cells = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert cells["seconds"] == "0"


class TestIrrationalCommand:
    def test_hand_value_row(self, capsys):
        code, out, _ = run(capsys, "irrational", "--alpha", "rational:1/2",
                           "--n", "4", "--tol", "1e-6", "--rho", "512")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "n,I_n,ratio,is_convergent_q"
        n, value, _, _ = rows[1].split(",")
        assert n == "4"
        assert float(value) == pytest.approx(4.0, abs=1e-4)

    def test_integer_alpha_all_zero(self, capsys):
        code, out, _ = run(capsys, "irrational", "--alpha", "rational:3/1",
                           "--n", "8,16")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])

    def test_no_convergence_exits_2(self, capsys):
        code, out, err = run(capsys, "irrational", "--alpha", "rational:1/2",
                             "--n", "4,8", "--tol", "1e-6")
        assert code == 2
        assert out == ""
        assert err == ("simplexleb: error: no convergence for "
                       "I:rational:1/2@4 after 4 doublings\n")

    def test_budget_too_small_exits_1(self, capsys):
        code, out, err = run(capsys, "irrational", "--alpha", "golden",
                             "--nmax", "64", "--budget-mb", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error:")
        assert "Traceback" not in err

    def test_budget_refused_before_fractional_parts(self, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(simplexleb.irrational, "fractional_parts",
                            _never)
        code, out, err = run(capsys, "irrational", "--alpha", "golden",
                             "--nmax", "1048576", "--budget-mb", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: slice weights")

    def test_budget_counts_the_fold_of_the_first_grid(self, capsys):
        """Golden n = 2^17 runs on a fold of F = 131220 values and K =
        131073 weights a slice, about 2 MiB each, not on 16 M0 = 8 MiB of
        slice weights: 8 MiB gives the default run's CSV, 1 MiB is
        refused."""
        argv = ("irrational", "--alpha", "golden", "--nmax", "131072")
        code, out, _ = run(capsys, *argv, "--budget-mb", "8")
        assert code == 0
        _, want, _ = run(capsys, *argv)
        assert out == want.replace("budget_mb=1536", "budget_mb=8")
        code, out, err = run(capsys, *argv, "--budget-mb", "1")
        assert code == 1 and out == ""
        assert err.startswith("simplexleb: error: slice weights")

    def test_liouville_depth_over_bound_exits_1_at_once(self, capsys):
        """2^{11!} has 40 M bits: the sum of its Fractions did not finish in
        60 s; it is refused before the sum."""
        start = time.perf_counter()
        code, out, err = run(capsys, "irrational", "--alpha",
                             "liouville:2,11", "--n", "16")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: liouville:2,11 has a "
                              "denominator of more than")

    def test_decimal_exponent_over_bound_exits_1_at_once(self, capsys):
        """10^10000000 has 33 M bits: building it took 13 s; the exponent is
        refused before any power is built."""
        start = time.perf_counter()
        code, out, err = run(capsys, "irrational", "--alpha",
                             "dec:1e-10000000", "--nmax", "16")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error: decimal alpha "
                              "'1e-10000000' has a power of ten of more than")

    @pytest.mark.parametrize("alpha", ["rational:1/0", "dec:1/0"])
    def test_zero_denominator_exits_1(self, capsys, alpha):
        code, out, err = run(capsys, "irrational", "--alpha", alpha,
                             "--n", "16")
        assert code == 1
        assert out == ""
        assert err.startswith("simplexleb: error:")
        assert "Traceback" not in err

    def test_golden_monotone_grid(self, capsys):
        code, out, err = run(capsys, "irrational", "--alpha", "golden",
                             "--nmax", "64")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        ns = [int(r.split(",")[0]) for r in rows[1:]]
        assert ns == sorted(ns)
        summary = json.loads(err)
        assert summary["running_min_ratio"] > 0

    def test_unparsable_alpha_exits_1(self, capsys):
        code, _, err = run(capsys, "irrational", "--alpha", "sqrt2")
        assert code == 1

    @pytest.mark.parametrize("alpha, message", [
        ("rational:1/x", "malformed rational alpha 'rational:1/x'"),
        ("rational:", "malformed rational alpha 'rational:'"),
        (" rational:1/-2", "malformed rational alpha 'rational:1/-2'"),
        ("liouville:2", "malformed liouville alpha 'liouville:2'"),
        ("liouville:-2,3", "malformed liouville alpha 'liouville:-2,3'"),
        ("sqrt2", "unrecognized alpha spec 'sqrt2'"),
        ("rational", "unrecognized alpha spec 'rational'"),
        ("golden:1", "unrecognized alpha spec 'golden:1'"),
    ])
    def test_malformed_alpha_names_its_form(self, capsys, alpha, message):
        code, out, err = run(capsys, "irrational", "--alpha", alpha,
                             "--n", "16")
        assert (code, out) == (1, "")
        assert err == f"simplexleb: error: {message}\n"


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 2,4\nkernel = F\n# comment line\n")
        _, out, _ = run(capsys, "norm", "--config", str(cfgfile),
                        "--n", "2,3")
        doc = json.loads(out)
        assert doc["kernel"] == "F"      # from file
        assert doc["n"] == [2.0, 3.0]    # flag wins

    def test_bad_config_line_exits_1(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tol 1e-4\n")
        code, _, _ = run(capsys, "norm", "--n", "2,3",
                         "--config", str(cfgfile))
        assert code == 1

    def test_workers_setting_exits_1(self, capsys, tmp_path):
        # the FFT thread count is not a setting: every FFT runs on one thread
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("workers = 2\n")
        code, out, _ = run(capsys, "norm", "--kernel", "D", "--n", "2,3",
                           "--config", str(cfgfile))
        assert code == 1 and out == ""
        assert main(["norm", "--kernel", "D", "--n", "2,3",
                     "--workers", "2"]) == 1

    def test_unknown_key_exits_1(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("wibble = 3\n")
        code, _, _ = run(capsys, "norm", "--n", "2,3",
                         "--config", str(cfgfile))
        assert code == 1

    @pytest.mark.parametrize("command, key", [
        ("norm", "nu_max"), ("norm", "timings"), ("verify", "tol"),
        ("verify", "rho"), ("verify", "timings"), ("sweep", "nu_max"),
        ("irrational", "nu_max"), ("irrational", "timings")])
    def test_option_the_command_never_reads_exits_1(self, capsys, tmp_path,
                                                    command, key):
        argv = {"norm": ["--kernel", "D", "--n", "2,3"],
                "verify": ["--n", "2,3", "--points", "5"],
                "sweep": ["--n1", "list(4)", "--n2", "list(9)",
                          "--t-nodes", "4"],
                "irrational": ["--alpha", "rational:1/2", "--n", "16"],
                }[command]
        flag = "--" + key.replace("_", "-")
        value = {"nu_max": "64", "tol": "1e-4", "rho": "8",
                 "timings": "true"}[key]
        code, out, err = run(capsys, command, *argv, flag,
                             *([] if key == "timings" else [value]))
        assert (code, out) == (1, "")
        assert flag in err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, command, *argv,
                             "--config", str(cfgfile))
        assert (code, out) == (1, "")
        assert flag in err

    def test_sweep_config_file_equals_flags(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "n1 = list(4, 5)\nn2 = 2*n1 + 1\nn3 = n2 + 2\nt_nodes = 4\n"
            "tol = 2e-3\nrho = 5\nbudget_mb = 256\ntimings = false\n"
            f"output = {out}\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 0
        from_file = out.read_bytes()
        assert main(["sweep", "--n1", "list(4, 5)", "--n2", "2*n1 + 1",
                     "--n3", "n2 + 2", "--t-nodes", "4", "--tol", "2e-3",
                     "--rho", "5", "--budget-mb", "256",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == from_file
        assert b"# config budget_mb=256\n" in from_file


def test_usage_error_exits_1(capsys):
    assert main(["norm", "--bogus"]) == 1


def test_artifacts_do_not_depend_on_cpu_count(capsys, monkeypatch):
    outs = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        outs.append([
            run(capsys, "norm", "--kernel", "D", "--n", "2,3")[1],
            run(capsys, "sweep", "--n1", "list(5.5)", "--n2", "2.3*n1",
                "--t-nodes", "8")[1],
        ])
    assert outs[0] == outs[1]
