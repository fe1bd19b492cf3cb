"""One round of benchmark operations in a fresh interpreter.

Usage: python3 perfbench/child.py OPS_JSON [--trace-file PATH [--memory]]

OPS_JSON is the list made by ``workloads.operations``.  The round imports
simplexleb from the checkout's ``src`` (set up by run.py through PYTHONPATH),
runs every operation once, in order, with the norm cache cold, and prints one
JSON line: the round's wall time, each operation's time and output, and
ru_maxrss.  With --trace-file the tracer is installed after the import and
its spans are written to PATH when the round ends; --memory makes it record
tracemalloc peaks as well.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _norm_output(res) -> dict:
    return {"value": res.value, "grid": list(res.grid),
            "history": [[list(m), v] for m, v in res.history],
            "parseval": res.parseval}


def _run(op, norms, cli, DilationVector) -> dict:
    if op["kind"] == "norm":
        return _norm_output(norms.l1_norm(op["kernel"],
                                          DilationVector(tuple(op["n"]))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("--trace-file")
    ap.add_argument("--memory", action="store_true")
    args = ap.parse_args()
    ops = json.loads(args.ops)

    import simplexleb
    from simplexleb import cli, norms
    from simplexleb.core import DilationVector

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(simplexleb.__file__).resolve().parents:
        sys.stderr.write(f"simplexleb imported from {simplexleb.__file__}, "
                         f"not from {src}\n")
        return 2

    tracer = None
    if args.trace_file:
        from tracer import Tracer
        tracer = Tracer(memory=args.memory)
        tracer.install()

    outputs, op_s = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        try:
            with span:
                out = _run(op, norms, cli, DilationVector)
        except Exception as exc:  # reported as a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"}
        op_s.append(time.perf_counter() - t0)
        outputs.append(out)
    wall_s = time.perf_counter() - start

    if tracer:
        tracer.uninstall()
        tracer.dump(args.trace_file)
    print(json.dumps({
        "wall_s": wall_s,
        "op_s": op_s,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
