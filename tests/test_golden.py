"""The committed CLI artifacts of tests/golden/, regenerated in-process.

Under the numpy recorded in tests/golden/NUMPY_VERSION every file must come
back byte for byte, so a change that moves any printed value shows as a
diff of the files.  Under another numpy the text between the numbers must
be the same and every number within 1e-12 relative.
tests/golden/regenerate.py rewrites the files.
"""

import json
import math
import re

import numpy as np
import pytest

from golden import regenerate
from golden.regenerate import COMMANDS, HERE, NUMPY_VERSION, render

NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def _numbers_and_layout(text: str) -> tuple:
    return ([float(v) for v in NUMBER.findall(text)],
            NUMBER.sub("\0", text))


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_artifacts_match_golden(stem):
    same_numpy = NUMPY_VERSION.read_text().strip() == np.__version__
    for name, text in render(stem).items():
        want = (HERE / name).read_bytes()
        if same_numpy:
            assert text.encode() == want, f"{name} differs from the file"
            continue
        got, layout = _numbers_and_layout(text)
        ref, ref_layout = _numbers_and_layout(want.decode())
        assert layout == ref_layout, f"{name}: layout differs"
        for a, b in zip(got, ref):
            assert a == b or (math.isnan(a) and math.isnan(b)) or \
                abs(a - b) <= 1e-12 * abs(b), f"{name}: {a!r} against {b!r}"


def test_budget_twins_are_their_default_twins():
    """The budget sizes memory and reaches no value: each -budget-4
    artifact is its default twin but for the budget it records."""
    twins = sorted(HERE.glob("*-budget-4.json"))
    assert len(twins) == 2
    for path in twins:
        got = path.read_text().splitlines()
        want = (HERE / path.name.replace("-budget-4", "")).read_text() \
            .splitlines()
        assert len(got) == len(want), path.name
        assert [(a, b) for a, b in zip(got, want) if a != b] == \
            [('    "budget_mb": 4,', '    "budget_mb": 1536,')], path.name


def test_headers_record_conventions():
    """Every artifact names the conventions its values follow: plain
    integrals, the modulus as the norm of a 0-dimensional kernel, and the
    theorem's mu range."""
    want = {"normalization": "plain", "zero_dim_norm": "modulus",
            "mu_range": "theorem"}
    for path in sorted(HERE.glob("*.csv")) + sorted(HERE.glob("*.json")):
        text = path.read_text()
        if path.suffix == ".json":
            assert json.loads(text)["conventions"] == want, path.name
        else:
            assert {f"# convention {k}={v}" for k, v in want.items()} <= \
                set(text.splitlines()), path.name


def test_regenerate_rewrites_only_the_named_stems(tmp_path, monkeypatch):
    """regenerate.py STEM ... writes the artifacts of those stems alone
    (every stem's with none), and refuses an unknown stem before writing
    anything."""
    monkeypatch.setattr(regenerate, "HERE", tmp_path)
    monkeypatch.setattr(regenerate, "NUMPY_VERSION", tmp_path / "numpy")
    monkeypatch.setattr(regenerate, "render",
                        lambda stem: {f"{stem}.txt": stem})
    with pytest.raises(SystemExit, match="bogus"):
        regenerate.rewrite(["norm-D-7-29", "bogus"])
    assert not any(tmp_path.iterdir())
    regenerate.rewrite(["norm-D-7-29"])
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["norm-D-7-29.txt", "numpy"]
    regenerate.rewrite()
    assert len(list(tmp_path.iterdir())) == len(COMMANDS) + 1
