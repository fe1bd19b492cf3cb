"""The package exports no name, its classes have no public method or
property, and its records no field, that only the tests reach."""

import ast
from pathlib import Path

import simplexleb

PACKAGE = Path(simplexleb.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# argparse calls ArgumentParser.error itself; the override makes it raise
CALLED_FROM_OUTSIDE = {("_Parser", "error")}

# fields no attribute of src/ or perfbench/ reads, each with its reason
UNREAD_FIELDS = {
    ("ContinuedFraction", "quotients"): "the expansion cf_expand returns",
    ("ContinuedFraction", "exact"): "the expansion cf_expand returns",
}


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
    assert exported - referenced == set()


def test_every_public_method_is_reached_from_the_package():
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    # a method or property is used through an attribute, as in x.name
    used = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unused = {(cls.name, fn.name) for tree in trees
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for fn in cls.body
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not fn.name.startswith("_") and fn.name not in used}
    assert unused == CALLED_FROM_OUTSIDE


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    return any(ast.unparse(d).startswith("dataclass")
               for d in cls.decorator_list) or \
        any(ast.unparse(b) == "NamedTuple" for b in cls.bases)


def test_every_field_is_read_in_the_package_or_the_benchmark():
    """Matched by name, as the methods are: a field counts as read where
    any attribute of that name is loaded."""
    read = {node.attr
            for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = {(cls.name, stmt.target.id)
              for path in PACKAGE.glob("*.py")
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef) and _is_record(cls)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
    assert {f for f in fields if f[1] not in read} == set(UNREAD_FIELDS)
