"""The per-layer trace reaches every layer it names.

perfbench/tracer.py wraps the program's functions under the dotted names in
its TARGETS and sees only calls made through those names; a name that no
longer resolves silently drops its layer from the trace.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# cli has called irrational.study_ratio, not I_n, since the irrational
# study moved into one function; study_ratio calls irrational._kernel_norm,
# so no program path reached the irrational.I_n span under either name, and
# I_n moved to the tests' oracles.  kernels imported build_lattice only for
# the pointwise eval_*, which moved there too; every program call to
# build_lattice goes through the core and norms names.
KNOWN_MISSING = {"simplexleb.cli.I_n", "simplexleb.irrational.I_n",
                 "simplexleb.kernels.build_lattice"}


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_target_resolves():
    missing = []
    for name, (paths, _) in _tracer_targets().items():
        for path in paths:
            mod_name, attr = path.rsplit(".", 1)
            if not hasattr(importlib.import_module(mod_name), attr):
                missing.append(path)
    assert set(missing) == KNOWN_MISSING
