"""simplexleb benchmark: one workload, end-to-end or traced per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-d --seed 1 --seconds 10 --trace 0

Each round of a workload runs in a fresh interpreter (perfbench/child.py),
so the norm cache starts cold and peak RSS belongs to that round alone.
Untraced rounds repeat until their measured time reaches --seconds (at
least two with --trace 0, at least one with --trace 1).  Every output is
checked against perfbench/reference.py, outside the timed region.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (setup_s, wall_s, slowest_op_s,
peak_rss_mb).  --trace 1 adds one round traced for time and one traced for
memory after the untraced rounds, and reports the per-layer
metrics of tracer.layer_metrics together with trace.overhead_s (traced
minus untraced wall_s); the spans are kept in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
# The first round after a pause runs slower on a shared machine; medians
# over at least two rounds keep one slow round from setting the figures.
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running `import simplexleb`.

    One unmeasured import first compiles the bytecode, which users pay once.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import simplexleb"], env=_env(),
                       cwd=ROOT, check=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(ops, trace_file=None, memory=False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(ops)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if memory:
        cmd.append("--memory")
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "simplexleb" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simplexleb sources under {ROOT / 'src'}\n")
        return 2
    ops = workloads.operations(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup()

    # A traced run needs untraced rounds only as the base of the overhead.
    min_rounds = 1 if args.trace else MIN_ROUNDS
    rounds = []
    while len(rounds) < min_rounds or \
            sum(r["wall_s"] for r in rounds) < args.seconds:
        rounds.append(run_round(ops))
    traced = []
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
        time_file = stem.with_suffix(".jsonl")
        memory_file = stem.with_name(stem.name + "-memory.jsonl")
        traced = [run_round(ops, time_file),
                  run_round(ops, memory_file, memory=True)]
        if traced[0]["missing"]:
            sys.stderr.write("not found, so not traced: "
                             + ", ".join(traced[0]["missing"]) + "\n")

    attempted = failed = 0
    correct = True
    for rnd in rounds + traced:
        for op, t, problems in zip(ops, rnd["op_s"],
                                   check.check_round(ops, rnd["outputs"])):
            attempted += 1
            status = "ok"
            if problems:
                failed += 1
                known = workloads.KNOWN_FAULTS.get(op["name"])
                correct = correct and bool(known)
                status = f"FAILED, known fault: {known}" if known else "FAILED"
            sys.stderr.write(f"{args.workload} {op['name']}: {t:.3f} s {status}\n")
            for p in problems:
                sys.stderr.write(f"    {p}\n")

    wall = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        layers = tracer.layer_metrics(tracer.read_spans(time_file),
                                      traced[0]["wall_s"])
        memory = tracer.layer_metrics(tracer.read_spans(memory_file),
                                      traced[1]["wall_s"])
        layers.update({k: memory[k] for k in tracer.PEAKS})
        layers["trace.overhead_s"] = (traced[0]["wall_s"] - wall, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "slowest_op_s": {"value": statistics.median(
                max(r["op_s"]) for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {len(rounds)}, attempted = {attempted}, "
          f"failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
