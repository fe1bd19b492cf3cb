"""Every module-level import is referenced: an AST scan of the package's
modules (apart from ``__init__``, which re-exports) and of the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "simplexleb").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that the module's top-level imports bind and that the
    module never loads or lists in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_finds_unused_import():
    source = "import json\nimport os as system\nfrom math import pi, tau\n" \
             "__all__ = ['tau']\nprint(system.sep)\n"
    assert unused_imports(source) == [(1, "json"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
