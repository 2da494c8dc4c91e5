"""The library holds no code without a library or command-line caller.

Every module-level function and class of ``src/leibnizalg``, and every
method whose name is not a dunder, must be referenced somewhere in
``src/leibnizalg`` outside its own definition.  Exempt are the names the
package exports in ``__all__`` and the README's "Library use" methods in
``ALLOWED``.  A helper that only tests need belongs in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibnizalg"

# README "Library use" methods with no caller inside the package.
ALLOWED = {"LeibnizAlgebra.analyze", "RMatrixFamily.member"}


def _references(node) -> Counter:
    """Identifiers that ``node`` reads: names, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _definitions(tree):
    """(qualified name, name, node) of the module-level functions and
    classes and of the methods defined in those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def _exported(trees) -> set:
    out = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out.update(ast.literal_eval(node.value))
    return out


def unreferenced(package: Path = PACKAGE) -> list:
    trees = [ast.parse(p.read_text("utf-8")) for p in sorted(package.glob("*.py"))]
    total = Counter()
    for tree in trees:
        total += _references(tree)
    exempt = _exported(trees) | ALLOWED
    return sorted(
        qualified
        for tree in trees
        for qualified, name, node in _definitions(tree)
        if qualified not in exempt and name not in exempt
        and total[name] - _references(node)[name] <= 0
    )


def test_every_definition_has_a_library_caller():
    assert unreferenced() == []


def test_detects_an_unreferenced_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "__all__ = ['exported']\n"
        "def exported():\n    return used()\n"
        "def used():\n    return 1\n"
        "def orphan():\n    return orphan()\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    def unused_method(self):\n        return self.size\n"
    )
    assert unreferenced(tmp_path) == ["Box", "Box.unused_method", "orphan"]
