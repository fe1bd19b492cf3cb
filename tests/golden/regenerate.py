"""Rewrite the golden CLI artifacts in this directory.

Run from the root of a checkout:

    PYTHONPATH=src python tests/golden/regenerate.py

Each artifact is what one in-process ``simplexleb.cli.main`` call writes:
its standard output, and for ``irrational`` also the summary JSON on
standard error.  NUMPY_VERSION records the numpy the files were made with.
tests/test_golden.py regenerates every file and compares bytes under that
numpy, and the layout and every number to 1e-12 relative under another.
"""

import contextlib
import io
import pathlib

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
    "irrational-rational-355-113": ["irrational", "--alpha",
                                    "rational:355/113", "--nmax", "4096"],
    "irrational-liouville-3-5": ["irrational", "--alpha", "liouville:3,5",
                                 "--nmax", "4096"],
    "verify-5-9.5-23": ["verify", "--n", "5,9.5,23", "--points", "200",
                        "--seed", "7"],
}


def render(stem: str) -> dict:
    """{file name: text} of the artifacts of one command."""
    argv = COMMANDS[stem]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
    files = {f"{stem}.{'json' if argv[0] == 'verify' else 'csv'}":
             out.getvalue()}
    if argv[0] == "irrational":
        files[f"{stem}.summary.json"] = err.getvalue()
    return files


def rewrite():
    for stem in COMMANDS:
        for name, text in render(stem).items():
            (HERE / name).write_bytes(text.encode())
    NUMPY_VERSION.write_bytes(f"{np.__version__}\n".encode())


if __name__ == "__main__":
    rewrite()
