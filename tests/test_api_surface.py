"""The package exports no name that only the tests reach."""

import ast
from pathlib import Path

import simplexleb

PACKAGE = Path(simplexleb.__file__).parent

# perfbench/tracer.py wraps simplexleb.irrational.I_n and
# simplexleb.kernels.build_lattice, which kernels imports only for the
# pointwise eval_*; these move to the tests once the package reports its
# own trace spans and the tracer no longer wraps them by name.
TEST_ONLY = {"I_n", "eval_D", "eval_F", "eval_S", "eval_R"}


def _referenced(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_reached_from_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            referenced |= _referenced(ast.parse(path.read_text()))
    assert exported - referenced == TEST_ONLY
