"""Checks every operation's output against the independent reference.

Nothing here compares against stored program output.  Norms are recomputed
by ``reference`` at a grid the program reports; the CLI's CSV and JSON are
parsed and recomputed the same way.  ``check_round`` returns, per operation,
the list of problems found (empty when the output is right).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import reference

# The program's documented defaults: refinement stops when the relative
# change between levels is <= TOL; R truncates its nu-series at NU_MAX.
TOL = 1e-3
NU_MAX = 4096
# Relative agreement demanded of D, S and Fcomposite at equal grids: the two
# computations differ only by roundoff.
VALUE_RTOL = 1e-9
# Grids above this many nodes are checked at the coarsest level instead.
REF_MAX_NODES = 1 << 24


# Every round of a run asks for the same reference values.
_grid_norm = functools.cache(reference.grid_norm)
_extents = functools.cache(reference.extents)
_lattice_count = functools.cache(reference.lattice_count)


def _stop_rule(history) -> list:
    if len(history) < 2:
        return [f"history has {len(history)} level(s); the stop rule needs 2"]
    problems = []
    for i in range(1, len(history)):
        (m0, v0), (m1, v1) = history[i - 1], history[i]
        if any(b < a for a, b in zip(m0, m1)) or math.prod(m1) <= math.prod(m0):
            problems.append(f"grid {m1} does not refine {m0}")
        met = abs(v1 - v0) <= TOL * max(abs(v1), 1e-9)
        if met != (i == len(history) - 1):
            problems.append(f"stop rule {'met' if met else 'not met'} at "
                            f"level {i} of {len(history) - 1}")
    return problems


def _value_problem(kernel, n, grid, value) -> list:
    ref = _grid_norm(kernel, n, grid)
    allowed = VALUE_RTOL * abs(ref)
    if kernel == "R":
        allowed += reference.r_tail_bound(n, grid, NU_MAX)
    if not abs(value - ref) <= allowed:
        return [f"{kernel}{n} at grid {grid}: {value!r} vs reference "
                f"{ref!r} (allowed {allowed:.3g})"]
    return []


def check_norm(op, out) -> list:
    kernel, n = op["kernel"], tuple(op["n"])
    history = [(tuple(m), v) for m, v in out["history"]]
    problems = _stop_rule(history)
    if (tuple(out["grid"]), out["value"]) != history[-1]:
        problems.append("value and grid are not the last history level")
    box = _extents(n)
    if any(m < e for m, e in zip(history[0][0], box)):
        problems.append(f"first grid {history[0][0]} below lattice box {box}")
    grid, value = history[-1]
    if math.prod(grid) > REF_MAX_NODES:
        grid, value = history[0]
    problems += _value_problem(kernel, n, grid, value)
    if kernel == "D":
        count = _lattice_count(n)
        if out["parseval"] != float(count):
            problems.append(f"Parseval power {out['parseval']!r} is not the "
                            f"lattice count {count}")
    return problems


def _csv_rows(text) -> list:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def check_sweep(op, out) -> list:
    argv = op["argv"]
    n1 = [float(v) for v in argv[argv.index("--n1") + 1][5:-1].split(",")]
    # the expressions "2.3*n1" and "1.9*n2", in the same float arithmetic
    expected = [(a, 2.3 * a, 1.9 * (2.3 * a)) for a in n1]
    rows = _csv_rows(out["stdout"])
    if len(rows) != len(expected):
        return [f"sweep wrote {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, n in zip(rows, expected):
        got = tuple(float(row[f"n{j}"]) for j in (1, 2, 3))
        if got != n:
            problems.append(f"row n = {got}, expected {n}")
            continue
        grid = tuple(int(m) for m in row["grid_M"].split("x"))
        problems += _value_problem("D", n, grid, float(row["norm_D"]))
        main = reference.main_term(n)
        if not abs(float(row["main_term"]) - main) <= 1e-12 * abs(main):
            problems.append(f"main_term {row['main_term']} vs closed form "
                            f"{main!r} for n = {n}")
    return problems


def check_verify(op, out, earlier) -> list:
    doc = json.loads(out["stdout"])
    argv = op["argv"]
    nu_max = int(argv[argv.index("--nu-max") + 1])
    problems = []
    if not doc["passed"]:
        problems.append(f"verify failed at nu_max {nu_max}: worst residual "
                        f"{doc['worst_residual']} > tail {doc['worst_tail_bound']}")
    if doc["nu_max"] != nu_max or doc["points"] != 200:
        problems.append("verify echoed the wrong nu_max or point count")
    for prev_op, prev in earlier:
        if prev_op["name"] == "verify-4096" and "stdout" in prev:
            before = json.loads(prev["stdout"])["median_residual"]
            if not doc["median_residual"] <= 0.75 * before:
                problems.append(f"median residual {doc['median_residual']} at "
                                f"nu_max {nu_max} is not <= 0.75 x {before}")
    return problems


@functools.cache
def _golden_norms(n_grid: tuple) -> dict:
    fracs = reference.golden_fractional_parts(max(n_grid))
    return {n: reference.oversampled_norm_1d(fracs[:n + 1]) for n in n_grid}


def check_irrational(op, out) -> list:
    argv = op["argv"]
    nmax = int(argv[argv.index("--nmax") + 1])
    n_grid = [2 ** e for e in range(4, nmax.bit_length()) if 2 ** e <= nmax]
    rows = _csv_rows(out["stdout"])
    if [int(r["n"]) for r in rows] != n_grid:
        return [f"irrational rows {[r['n'] for r in rows]} are not {n_grid}"]
    ref = _golden_norms(tuple(n_grid))
    fib = reference.fibonacci_upto(nmax)
    problems = []
    for row in rows:
        n, value, ratio = int(row["n"]), float(row["I_n"]), float(row["ratio"])
        if not abs(value - ref[n]) <= TOL * ref[n]:
            problems.append(f"I_{n} = {value!r} vs reference {ref[n]!r}")
        if not abs(ratio - ref[n] / math.log(n) ** 2) <= TOL * ratio:
            problems.append(f"ratio at n = {n}: {ratio!r}")
        if row["is_convergent_q"] != str(int(n in fib)):
            problems.append(f"is_convergent_q wrong at n = {n}")
    summary = json.loads(out["stderr"])
    ratios = [float(r["ratio"]) for r in rows]
    if (summary["running_min_ratio"], summary["running_max_ratio"]) != \
            (min(ratios), max(ratios)):
        problems.append("summary running min/max disagree with the CSV")
    return problems


def _check_op(op, out, earlier) -> list:
    if "error" in out:
        return [out["error"]]
    if op["kind"] == "norm":
        return check_norm(op, out)
    if out["rc"] != 0:
        return [f"{op['name']} exited {out['rc']}: {out['stderr'][-300:]}"]
    if op["name"] == "sweep":
        return check_sweep(op, out)
    if op["name"].startswith("verify"):
        return check_verify(op, out, earlier)
    return check_irrational(op, out)


def check_round(ops, outputs) -> list:
    """Problems per operation, in order."""
    pairs = list(zip(ops, outputs))
    result = []
    for i, (op, out) in enumerate(pairs):
        try:
            result.append(_check_op(op, out, pairs[:i]))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            result.append([f"malformed output: {type(exc).__name__}: {exc}"])
    return result
