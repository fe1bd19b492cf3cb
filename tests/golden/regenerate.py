"""Rewrite the golden CLI artifacts in this directory.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py [STEM ...]

With no STEM every artifact is rewritten; with some, only theirs (the stems
are the keys of COMMANDS, such as norm-D-64-4096), so files written by one
version of the code are not overwritten by another.

Each artifact is what one in-process ``simplexleb.cli.main`` call writes:
its standard output (CSV for ``sweep`` and ``irrational``, JSON for
``norm`` and ``verify``), and for ``irrational`` also the summary JSON on
standard error.  NUMPY_VERSION records the numpy the files were made with.
tests/test_golden.py regenerates every file and compares bytes under that
numpy, and the layout and every number to 1e-12 relative under another.
"""

import contextlib
import io
import pathlib
import sys

import numpy as np

from simplexleb.cli import main

HERE = pathlib.Path(__file__).resolve().parent
NUMPY_VERSION = HERE / "NUMPY_VERSION"

# file stem: argv of the command that writes it
COMMANDS = {
    "sweep-acceptance-11": ["sweep", "--n1", "geom(16,64,3)",
                            "--n2", "pow(n1,2)", "--t-nodes", "8"],
    "sweep-cli-study": ["sweep", "--n1", "list(5.5,7.3,9.7)",
                        "--n2", "2.3*n1", "--n3", "1.9*n2"],
    # 36 mu terms at level 0, more than one stack of them at 1 MiB
    "sweep-mu-stacks": ["sweep", "--n1", "list(5.5)", "--n2", "n1*5.5",
                        "--n3", "n2*6.6", "--t-nodes", "16",
                        "--budget-mb", "1"],
    "irrational-rational-355-113": ["irrational", "--alpha",
                                    "rational:355/113", "--nmax", "4096"],
    "irrational-liouville-3-5": ["irrational", "--alpha", "liouville:3,5",
                                 "--nmax", "4096"],
    "verify-5-9.5-23": ["verify", "--n", "5,9.5,23", "--points", "200",
                        "--seed", "7"],
}
# the benchmark's grid-d and slice-r norms
COMMANDS |= {f"norm-{kernel}-{n.replace(',', '-')}":
             ["norm", "--kernel", kernel, "--n", n] for kernel, n in [
                 ("D", "16,32,64"), ("D", "7,29"), ("D", "64,4096"),
                 ("D", "256,256"), ("D", "384,384"),
                 ("R", "7.3,19.6"),
                 ("R", "10.5,30.2"), ("R", "5,9.5,23"),
                 ("S", "48.5,3000.7"), ("Fcomposite", "48.5,3000.7"),
                 ("S", "5,9.5,23"), ("Fcomposite", "5,9.5,23")]}
# two of them at a 4 MiB budget, whose blocks differ from the default's
COMMANDS |= {f"norm-{kernel}-{n.replace(',', '-')}-budget-4":
             ["norm", "--kernel", kernel, "--n", n, "--budget-mb", "4"]
             for kernel, n in [("D", "64,4096"), ("S", "48.5,3000.7")]}


def render(stem: str) -> dict:
    """{file name: text} of the artifacts of one command."""
    argv = COMMANDS[stem]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
    ext = "csv" if argv[0] in ("sweep", "irrational") else "json"
    files = {f"{stem}.{ext}": out.getvalue()}
    if argv[0] == "irrational":
        files[f"{stem}.summary.json"] = err.getvalue()
    return files


def rewrite(stems=()):
    """Rewrite the artifacts of ``stems``, or of every command if none."""
    unknown = set(stems) - COMMANDS.keys()
    if unknown:
        raise SystemExit(f"unknown stems: {', '.join(sorted(unknown))}")
    for stem in stems or COMMANDS:
        for name, text in render(stem).items():
            (HERE / name).write_bytes(text.encode())
    NUMPY_VERSION.write_bytes(f"{np.__version__}\n".encode())


if __name__ == "__main__":
    rewrite(sys.argv[1:])
