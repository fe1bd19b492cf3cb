"""Span tracer that wraps simplexleb's functions from outside the package.

``Tracer.install`` replaces each function listed in TARGETS, under every
name by which a module refers to it (``simplexleb.norms.build_lattice`` and
``simplexleb.core.build_lattice`` are the same function seen from two
modules), with a wrapper that records a span: name, parent, start, end,
thread, a few counts taken from the arguments and the result, and, for the
spans named in PEAKS when the tracer is made with ``memory=True``, the rise
of tracemalloc's peak over the span.  tracemalloc sees numpy's allocations,
not pocketfft's scratch buffers; it is on only while such a span is open,
and then it counts every thread's allocations.  It slows each allocation
several times over, so run.py takes times and memory from separate traced
rounds.  Spans stay in memory until ``dump``
writes them as JSONL.  Nothing is patched unless ``install`` is called, so
an untraced run executes the program's own functions unchanged.

``layer_metrics`` turns the spans back into per-layer metrics.  A span's
self time is its duration minus the union of its children's intervals.
Spans opened by a worker thread with nothing open on that thread are
children of the innermost span open on the thread that installed the
tracer, so time spent in the CLI's sweep pool is not counted as CLI self
time.  With two threads busy, self times add up as thread-seconds and can
exceed the wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import threading
import time
import tracemalloc
from contextlib import contextmanager


def _size(obj) -> int:
    return int(getattr(obj, "size", 0))


def _history(result) -> dict:
    hist = getattr(result, "history", ())
    return {"levels": len(hist),
            "grid_nodes": sum(math.prod(m) for m, _ in hist if m)}


# span name -> (dotted names the function is reached through, counts)
TARGETS = {
    "core.build_lattice": (
        ["simplexleb.core.build_lattice", "simplexleb.kernels.build_lattice",
         "simplexleb.norms.build_lattice"],
        lambda args, r: {"points": int(r.points.shape[0])}),
    "core.coefficients": (
        ["simplexleb.core.indicator_coefficients",
         "simplexleb.core.fractional_coefficients",
         "simplexleb.norms.indicator_coefficients",
         "simplexleb.norms.fractional_coefficients"],
        lambda args, r: {"entries": _size(r.weights)}),
    "kernels.apply_delta": (
        ["simplexleb.kernels.apply_delta"],
        lambda args, r: {"entries": _size(r.weights)}),
    "kernels.slice_weight_matrix": (
        ["simplexleb.kernels.slice_weight_matrix",
         "simplexleb.norms.slice_weight_matrix"],
        lambda args, r: {"weights": _size(r)}),
    "norms.fft": (
        ["scipy.fft.ifftn"],
        lambda args, r: {"points": _size(r)}),
    "norms.l1_norm": (
        ["simplexleb.norms.l1_norm", "simplexleb.cli.l1_norm"],
        lambda args, r: _history(r)),
    "norms.l1_norm_field": (
        ["simplexleb.norms.l1_norm_field",
         "simplexleb.irrational.l1_norm_field"],
        lambda args, r: _history(r)),
    "norms.frak_f": (
        ["simplexleb.norms.frak_f", "simplexleb.cli.frak_f"], None),
    "norms.identity_residuals": (
        ["simplexleb.norms.identity_residuals"],
        lambda args, r: {"points": _size(r[0]),
                         "nu_max": int(args.get("nu_max", 0))}),
    "irrational.fractional_parts": (
        ["simplexleb.irrational.fractional_parts"],
        lambda args, r: {"values": _size(r)}),
    "irrational.I_n": (
        ["simplexleb.irrational.I_n", "simplexleb.cli.I_n"], None),
    "asymptotics": (
        ["simplexleb.cli.full_predictor", "simplexleb.cli.remainder_envelope"],
        None),
    "cli": (["simplexleb.cli.main"], None),
}

NORM_SPANS = ("norms.l1_norm", "norms.l1_norm_field")
# layer metric -> span names; the largest tracemalloc peak rise, in MB
PEAKS = {
    "norms.fft.peak_mb": ("norms.fft",),
    "norms.reduce.peak_mb": NORM_SPANS,
    "core.build_lattice.peak_mb": ("core.build_lattice",),
}

MEMORY_SPANS = frozenset(n for names in PEAKS.values() for n in names)
# spans whose counts read the call's arguments (binding them costs time)
NEEDS_ARGS = ("norms.identity_residuals",)


class Tracer:
    """Collects spans from wrapped functions; one instance per traced run."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._open = {}  # open memory span id -> highest tracemalloc peak seen
        self._seen_results = {}  # id -> object, to recognise cache hits
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    # tracemalloc runs only while a span of MEMORY_SPANS is open, since it
    # slows every allocation; it has one global peak, shared by open spans.
    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for sid in self._open:
            self._open[sid] = max(self._open[sid], peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def span(self, name, counts=None, args=None):
        """Record one span around the body; ``counts(args, result)`` gives
        its counts when the body stores its result in the yielded dict."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main else None
        sid = next(self._ids)
        memory = self.memory and name in MEMORY_SPANS
        if memory:
            with self._lock:
                if not self._open:
                    tracemalloc.start()
                mem0 = self._fold_peak()
                self._open[sid] = mem0
        stack.append(sid)
        box = {}
        error = None
        start = time.perf_counter()
        try:
            yield box
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            rec = {"id": sid, "parent": parent, "name": name, "start": start,
                   "end": end, "thread": threading.get_ident()}
            if memory:
                with self._lock:
                    self._fold_peak()
                    rec["peak_rise"] = self._open.pop(sid) - mem0
                    if not self._open:
                        tracemalloc.stop()
            if error:
                rec["error"] = error
            elif "result" in box:
                result = box["result"]
                if name in NORM_SPANS:
                    with self._lock:
                        rec["hit"] = id(result) in self._seen_results
                        self._seen_results[id(result)] = result
                if counts is not None:
                    rec.update(counts(args, result))
            self.spans.append(rec)

    def _wrap(self, fn, name, counts):
        sig = inspect.signature(fn) if name in NEEDS_ARGS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            with self.span(name, counts, bound) as box:
                box["result"] = fn(*args, **kwargs)
                return box["result"]
        return wrapper

    def install(self):
        """Patch every target name that exists; absent names are listed in
        ``missing`` (a refactor may remove one)."""
        wrapped = {}
        for name, (paths, counts) in TARGETS.items():
            for path in paths:
                mod_name, attr = path.rsplit(".", 1)
                try:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.missing.append(path)
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, name, counts)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")


# --------------------------------------------------------------- analysis

def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        inside = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                  for c in kids.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [iv for iv in inside if iv[1] > iv[0]])
    return out


# layer metric -> span names whose self time it sums
SELF_TIME = {
    "core.build_lattice.s": ("core.build_lattice",),
    "core.coefficients.s": ("core.coefficients",),
    "kernels.apply_delta.s": ("kernels.apply_delta",),
    "kernels.slice_weight_matrix.s": ("kernels.slice_weight_matrix",),
    "norms.fft.s": ("norms.fft",),
    "norms.reduce.s": NORM_SPANS,
    "norms.frak_f.s": ("norms.frak_f",),
    "norms.identity_residuals.s": ("norms.identity_residuals",),
    "irrational.fractional_parts.s": ("irrational.fractional_parts",),
    "irrational.I_n.s": ("irrational.I_n",),
    "asymptotics.s": ("asymptotics",),
    "cli.s": ("cli",),
}

# layer metric -> (span names, count summed over them)
COUNTS = {
    "core.build_lattice.calls": (("core.build_lattice",), None),
    "core.build_lattice.points": (("core.build_lattice",), "points"),
    "core.coefficients.entries": (("core.coefficients",), "entries"),
    "kernels.slice_weight_matrix.calls": (("kernels.slice_weight_matrix",), None),
    "kernels.slice_weight_matrix.weights": (("kernels.slice_weight_matrix",),
                                            "weights"),
    "norms.fft.calls": (("norms.fft",), None),
    "norms.fft.points": (("norms.fft",), "points"),
    "norms.l1_norm.calls": (("norms.l1_norm",), None),
    "irrational.fractional_parts.values": (("irrational.fractional_parts",),
                                           "values"),
}


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    by_id = {s["id"]: s for s in spans}
    selft = self_times(spans)

    def ancestors(s):
        p = s["parent"]
        while p in by_id:
            yield by_id[p]
            p = by_id[p]["parent"]

    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(selft[s["id"]] for s in spans if s["name"] in names),
                       "s")
    for metric, (names, key) in COUNTS.items():
        picked = [s for s in spans if s["name"] in names]
        value = len(picked) if key is None else sum(s.get(key, 0) for s in picked)
        out[metric] = (value, "count")
    for metric, names in PEAKS.items():
        rises = [s.get("peak_rise", 0) for s in spans if s["name"] in names]
        out[metric] = (max(rises, default=0) / 2**20, "MB")

    norms = [s for s in spans if s["name"] in NORM_SPANS]
    outer = [s for s in norms
             if not any(a["name"] in NORM_SPANS for a in ancestors(s))]
    fresh = [s for s in outer if not s.get("hit")]
    out["norms.refine.levels"] = (sum(s.get("levels", 0) for s in fresh),
                                  "count")
    out["norms.refine.grid_nodes"] = (sum(s.get("grid_nodes", 0)
                                          for s in fresh), "count")
    out["norms.l1_norm.cache_hits"] = (
        sum(1 for s in norms if s["name"] == "norms.l1_norm" and s.get("hit")),
        "count")
    out["norms.frak_f.field_norms"] = (
        sum(1 for s in outer
            if any(a["name"] == "norms.frak_f" for a in ancestors(s))),
        "count")

    # points x modes x 2 nu_max; the modes are the (d-1)-lattice built inside
    terms = 0
    for s in spans:
        if s["name"] != "norms.identity_residuals":
            continue
        modes = max((c.get("points", 0) for c in spans
                     if c["parent"] == s["id"]
                     and c["name"] == "core.build_lattice"), default=0)
        terms += s.get("points", 0) * modes * 2 * s.get("nu_max", 0)
    out["norms.identity_residuals.terms"] = (terms, "count")

    layered = sum(out[m][0] for m in SELF_TIME)
    out["trace.coverage"] = (layered / wall_s if wall_s > 0 else 0.0, "ratio")
    return out
