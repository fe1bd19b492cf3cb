"""Batch front door: norms, identity checks, parameter sweeps, alpha studies.

Subcommands, with the options each takes besides --budget-mb, --output and
--config:

norm        L1 norm of one kernel (JSON): --kernel --n --tol --rho
verify      the exact kernel decomposition at seeded random points (JSON):
            --n --points --seed --nu-max
sweep       norm/predictor sweep over a dilation grid (deterministic CSV):
            --n1 --n2 --n3 --t-nodes --timings --tol --rho
irrational  the 1-D fractional-part kernel study (CSV + summary JSON):
            --alpha --n --nmax --tol --rho

A --config file's 'key = value' lines stand for the flags --key=value ('_'
in a key for '-') ahead of the command line's own, so explicit flags win.

Exit codes: 0 success, 1 usage or malformed input, 2 quadrature did not
converge (a value is still emitted with a flag), 3 identity violation.

Outputs embed the subcommand's effective settings, library version, and the
convention flags (plain-integral normalization, modulus convention for the
0-dimensional norm, mu-range choice), so any run is reproducible from its
own artifact.  Floats are printed with 17 significant digits, '.' decimal,
LF line endings.  The 'seconds' column is 0 unless --timings is given, so
reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import re
import sys
import time

from . import __version__
from .asymptotics import full_predictor, remainder_envelope
from .core import (DEFAULT_BUDGET_BYTES, DilationVector, ResourceLimitError,
                   check_budget)
from .irrational import AlphaSpec, study_ratio
from .kernels import DEFAULT_NU_MAX
from .norms import (
    DEFAULT_RHO,
    DEFAULT_TOL,
    NormConvergenceError,
    frak_f,
    l1_norm,
    verify_identity,
)


# the conventions every value follows, echoed into each artifact
CONVENTIONS = {"normalization": "plain", "zero_dim_norm": "modulus",
               "mu_range": "theorem"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# ------------------------------------------------------------ configuration

def _load_config_file(path: str) -> list:
    """The flags a flat key=value config file stands for: 'key = value' is
    --key=value with '_' written as '-', and 'timings = true|1|yes|on' is
    --timings.  '#' starts a comment; blank lines are ignored."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key == "command":  # echoed by every artifact; argv names it
                continue
            if key == "config":
                raise ValueError(f"{path}:{lineno}: config files do not nest")
            flag = "--" + key.replace("_", "-")
            if key != "timings":
                flags.append(f"{flag}={val}")
            elif val.lower() in ("1", "true", "yes", "on"):
                flags.append(flag)
    return flags


def _header_lines(args: argparse.Namespace) -> list:
    return [f"# simplexleb {__version__}"] + [
        f"# convention {key}={val}" for key, val in sorted(CONVENTIONS.items())
    ] + [f"# config {key}={val}" for key, val in _meta(args)["config"].items()]


def _meta(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "conventions": CONVENTIONS,
        "config": {k: v for k, v in vars(args).items() if k != "config"},
    }


def _parse_ntuple(text: str) -> DilationVector:
    try:
        entries = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed n-tuple {text!r}") from None
    return DilationVector(entries)


def _emit(text: str, output: str):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ norm

def cmd_norm(args: argparse.Namespace) -> int:
    n = _parse_ntuple(args.n)
    res, history = _norm_or_last(args.kernel, n, dict(
        tol=args.tol, rho=args.rho, budget_bytes=args.budget_mb << 20))
    grid, value = history[-1]
    doc = _meta(args) | {
        "kernel": args.kernel,
        "n": list(n.entries),
        "value": value,
        "normalized": value / (2 * math.pi) ** len(grid or ()),
        "grid": grid,
        "history": [[list(m) if m else None, v] for m, v in history],
        "error_estimate": None if res is None else res.error_estimate,
        "converged": res is not None,
    }
    if res is not None:
        doc["parseval"] = res.parseval
    _emit(json.dumps(doc, indent=2, default=str, allow_nan=False) + "\n",
          args.output)
    return 0 if res is not None else 2


# ------------------------------------------------------------------ verify

def cmd_verify(args: argparse.Namespace) -> int:
    n = _parse_ntuple(args.n)
    report = verify_identity(n, num_points=args.points, nu_max=args.nu_max,
                             seed=args.seed, budget_bytes=args.budget_mb << 20)
    doc = _meta(args) | {
        "n": list(n.entries),
        "nu_max": report.nu_max,
        "points": args.points,
        "passed": report.passed,
        "median_residual": report.median_residual,
        "max_residual": float(report.residuals.max()),
        "slack": report.slack,
        "worst_point": list(report.worst[0]),
        "worst_residual": report.worst[1],
        "worst_tail_bound": report.worst[2],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0 if report.passed else 3


# ------------------------------------------------------------------ sweep

_GEOM_RE = re.compile(r"^geom\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*(\d+)\s*\)$")
_LIST_RE = re.compile(r"^list\((.*)\)$")

_EXPR_FUNCS = {"pow": pow, "log": math.log, "sqrt": math.sqrt,
               "exp": math.exp, "floor": math.floor, "ceil": math.ceil}
_EXPR_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                ast.Mult: operator.mul, ast.Div: operator.truediv,
                ast.Pow: operator.pow}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_expr(node, scope: dict) -> float:
    """Evaluate an axis expression: numbers, names in ``scope``, + - * / **,
    unary +-, and calls to _EXPR_FUNCS.  Every value is a float, so the
    arithmetic is Python's own float arithmetic."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in scope:
        return float(scope[node.id])
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        return float(_EXPR_BINOPS[type(node.op)](
            _eval_expr(node.left, scope), _eval_expr(node.right, scope)))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        return _EXPR_UNARY[type(node.op)](_eval_expr(node.operand, scope))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _EXPR_FUNCS and not node.keywords:
        return float(_EXPR_FUNCS[node.func.id](
            *(_eval_expr(arg, scope) for arg in node.args)))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def _parse_axis(text: str, prior: dict, budget_bytes: int) -> list:
    """One sweep-axis spec: geom(a,b,k), list(v,...) or an expression
    in earlier axes such as pow(n1,2) or 2*n1+3.  The budget is checked
    before a geom() builds its k floats (32 bytes each, with list slots)."""
    text = text.strip()
    m = _GEOM_RE.match(text)
    if m:
        a, b, k = float(m.group(1)), float(m.group(2)), int(m.group(3))
        if a <= 0 or b <= 0 or k < 1:
            raise ValueError(f"bad geom() bounds in {text!r}")
        check_budget(32 * k, budget_bytes, f"axis {text!r}")
        if k == 1:
            return [a]
        return [a * (b / a) ** (i / (k - 1)) for i in range(k)]
    m = _LIST_RE.match(text)
    if m:
        return [float(tok) for tok in m.group(1).split(",") if tok.strip()]
    # expression in earlier axes, evaluated per row
    rows = len(next(iter(prior.values()))) if prior else 0
    if rows == 0:
        raise ValueError(f"expression {text!r} needs an earlier axis")
    out = []
    try:
        tree = ast.parse(text, mode="eval").body
        for i in range(rows):
            scope = {name: vals[i] for name, vals in prior.items()}
            out.append(_eval_expr(tree, scope))
    except (SyntaxError, ArithmeticError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot evaluate {text!r}: {exc}") from None
    return out


def _sweep_rows(args: argparse.Namespace) -> list:
    axes = {}
    for name in ("n1", "n2", "n3"):
        spec = getattr(args, name)
        if not spec:
            break
        axes[name] = _parse_axis(spec, axes, args.budget_mb << 20)
        if not axes[name]:
            raise ValueError(f"--{name} {spec!r} gives no values")
    if not axes:
        raise ValueError("sweep needs at least --n1")
    lengths = {len(v) for v in axes.values()}
    if len(lengths) != 1:
        raise ValueError(f"axis lengths differ: "
                         f"{ {k: len(v) for k, v in axes.items()} }")
    count = lengths.pop()
    return [tuple(axes[k][i] for k in axes) for i in range(count)]


def _norm_or_last(kernel: str, n: DilationVector, kw: dict) -> tuple:
    """(result, history); result is None when the norm did not converge,
    and the last entry of history is then its last refinement level."""
    try:
        res = l1_norm(kernel, n, **kw)
        return res, res.history
    except NormConvergenceError as exc:
        return None, exc.history


def _sweep_one(entries: tuple, args: argparse.Namespace) -> tuple:
    """(CSV cells, converged) of the sweep row of ``entries``."""
    t0 = time.perf_counter()
    n = DilationVector(entries)
    kw = dict(tol=args.tol, rho=args.rho, budget_bytes=args.budget_mb << 20)
    (res_d, hist_d), (res_s, hist_s), (res_f, hist_f) = (
        _norm_or_last(kernel, n, kw) for kernel in ("D", "S", "F"))
    grid_d, norm_d = hist_d[-1]
    converged = None not in (res_d, res_s, res_f)
    fraks = {}
    for k in range(2, n.d + 1):
        # NaN outside the ascending regime of the correction functional
        fraks[k] = float("nan")
        if not DilationVector(entries[:k]).sorted_ascending:
            continue
        try:
            fraks[k] = frak_f(k, n, t_nodes=args.t_nodes, **kw).value
        except NormConvergenceError:
            converged = False
    try:
        pred = full_predictor(n, fraks)
        main, resid = pred.main, norm_d - pred.total
        env, ratio = pred.envelope, resid / pred.envelope
    except (ValueError, KeyError):
        main = resid = ratio = float("nan")
        env = remainder_envelope(n) if min(entries) > 1.0 else float("nan")
    seconds = time.perf_counter() - t0 if args.timings else 0.0
    values = (*entries, norm_d, hist_s[-1][1], hist_f[-1][1],
              *fraks.values(), main, resid, env, ratio)
    return ([str(n.d), *map(_fmt, values), "x".join(map(str, grid_d)),
             _fmt(seconds), str(int(converged))], converged)


def cmd_sweep(args: argparse.Namespace) -> int:
    # checked before the first row's norms, not at its first frak_f
    if args.t_nodes < 2:
        raise ValueError("--t-nodes must be >= 2")
    rows = _sweep_rows(args)
    d = len(rows[0])
    if d < 2:
        raise ValueError("sweeps require d >= 2 (use 'norm' for d = 1)")
    results = [_sweep_one(entries, args) for entries in rows]
    header = ["d", *(f"n{j}" for j in range(1, d + 1)), "norm_D", "norm_S",
              "norm_F", *(f"frakF{k}" for k in range(2, d + 1)),
              "main_term", "residual", "envelope", "ratio", "grid_M",
              "seconds", "converged"]
    lines = _header_lines(args) + [",".join(header)] + [
        ",".join(cells) for cells, _ in results]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if all(converged for _, converged in results) else 2


# -------------------------------------------------------------- irrational

def cmd_irrational(args: argparse.Namespace) -> int:
    alpha = AlphaSpec.parse(args.alpha)
    if args.n:
        try:
            grid = sorted({int(tok) for tok in args.n.split(",")})
        except ValueError:
            raise ValueError(f"malformed n list {args.n!r}") from None
    else:
        grid = [2 ** e for e in range(4, args.nmax.bit_length())]
        if not grid:
            raise ValueError("--nmax must be at least 16")
    records = study_ratio(alpha, grid, tol=args.tol, rho=args.rho,
                          budget_bytes=args.budget_mb << 20)
    lines = _header_lines(args) + ["n,I_n,ratio,is_convergent_q"]
    for rec in records:
        lines.append(",".join([str(rec.n), _fmt(rec.value), _fmt(rec.ratio),
                               str(int(rec.is_convergent_denominator))]))
    _emit("\n".join(lines) + "\n", args.output)
    summary = _meta(args) | {
        "alpha": alpha.name,
        "running_min_ratio": records[-1].running_min,
        "running_max_ratio": records[-1].running_max,
    }
    sys.stderr.write(json.dumps(summary, indent=2) + "\n")
    return 0


# ------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it and exits 1, not argparse's 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="simplexleb",
                  description="Lebesgue constants of dilated simplices: "
                              "norms, identity checks, sweeps, alpha studies.")
    top.add_argument("--version", action="version",
                     version=f"simplexleb {__version__}")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    def quadrature(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--rho", type=float, default=DEFAULT_RHO,
                       help="grid oversampling factor")

    def common(p):
        p.add_argument("--budget-mb", type=int,
                       default=DEFAULT_BUDGET_BYTES >> 20,
                       help="memory cap in MiB on each array a run builds "
                            "(default %(default)s)")
        p.add_argument("--output", default="",
                       help="write to file instead of stdout")
        p.add_argument("--config", help="flat key=value config file; "
                                        "flags override file values")

    p = sub.add_parser("norm", help="L1 norm of one kernel")
    p.add_argument("--kernel", default="D",
                   choices=["D", "F", "S", "Fcomposite", "R"])
    p.add_argument("--n", required=True,
                   help="comma-separated dilation tuple")
    quadrature(p)
    common(p)

    p = sub.add_parser("verify", help="check the exact decomposition")
    p.add_argument("--n", required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nu-max", type=int, default=DEFAULT_NU_MAX)
    common(p)

    p = sub.add_parser("sweep", help="norm/predictor sweep to CSV")
    p.add_argument("--n1", required=True,
                   help="geom(a,b,k) | list(v,...)")
    for axis in ("--n2", "--n3"):
        p.add_argument(axis, default="", help="geom/list or expression in "
                       f"earlier axes, e.g. pow(n1,2); {axis}=-n1 for one "
                       "that starts with '-'")
    p.add_argument("--t-nodes", type=int, default=64)
    p.add_argument("--timings", action="store_true",
                   help="report wall-clock seconds (breaks byte-level "
                        "reproducibility)")
    quadrature(p)
    common(p)

    p = sub.add_parser("irrational", help="fractional-part kernel study")
    p.add_argument("--alpha", required=True,
                   help="rational:P/Q | golden | liouville:B,M | dec:0.70...")
    p.add_argument("--n", default="", help="explicit comma-separated n list")
    p.add_argument("--nmax", type=int, default=4096,
                   help="powers of two 16..nmax (default %(default)s)")
    quadrature(p)
    common(p)
    return top


_DISPATCH = {"norm": cmd_norm, "verify": cmd_verify, "sweep": cmd_sweep,
             "irrational": cmd_irrational}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the config file's flags go in front of the user's, so that the
        # user's flags win: argparse keeps the last value it sees
        find = _Parser(add_help=False)
        find.add_argument("--config")
        path = find.parse_known_args(argv)[0].config
        if path:
            argv = argv[:1] + _load_config_file(path) + argv[1:]
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, ResourceLimitError,
            NormConvergenceError) as exc:
        sys.stderr.write(f"simplexleb: error: {exc}\n")
        return 2 if isinstance(exc, NormConvergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
