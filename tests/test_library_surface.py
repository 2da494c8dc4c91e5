"""The library holds no code or data without a library or command-line caller.

A line gate and three checks over ``src/leibnizalg``, the checks matching
names only:

* every module-level function and class, and every method whose name is not
  a dunder, is referenced somewhere outside its own definition;
* every ``__slots__`` field is read (``obj.field``) somewhere outside the
  ``__init__`` of its own class;
* every parameter with a default value is passed, by position or by
  keyword, by some call in the package.

Exempt are the names the package exports in ``__all__``, the README's
"Library use" methods in ``ALLOWED`` and the parameters in
``ALLOWED_DEFAULTS``.  A helper or a field that only tests need belongs in
``tests/oracles.py``.  Every name that a module binds on first use
(``_on_first_use``) must also resolve on the module it comes from.

What the checks cannot see, because they match names and not objects: a
method or field passes when a different class has a member of the same
name that is read (``Scenario.require`` would pass with no caller because
``LeibnizAlgebra.require`` is called, and a slot named ``side`` would pass
because the CLI reads ``args.side``); a default counts as passed when any call to a
function of the same name passes that position or keyword, or passes
``*args`` or ``**kwargs``; reads through ``getattr`` with a computed name
(``record.Frozen`` reads every slot that way for equality and repr) do not
count; and callers in ``tests/`` and ``bench/`` do not count.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibnizalg"

# README "Library use" methods with no caller inside the package.
ALLOWED = {"LeibnizAlgebra.analyze", "RMatrixFamily.member"}

# Defaults that no call in the package passes: ``cli.run``, the process entry
# of ``python -m leibnizalg.cli`` and of the console script, calls ``main()``
# with no arguments.
ALLOWED_DEFAULTS = {"main.argv"}

# The package's size in lines, 2429 when the module axioms became one term
# table (``actions.AXIOMS``), plus a small margin, plus the 21 lines of the
# CLI's exit path (``cli.run`` and the stdout checks in ``cli.main``), plus
# the net 27 lines of reduce-on-use elimination (``linalg._combine`` and the
# lazy refresh in ``rref``), flat Leibniz component indices
# (``core.component``) and the report digest without OpenSSL
# (``report._sha256``), after deleting the back-substitution, ``_cancel``,
# ``solver._components`` and the ``Fraction`` step of ``sparse_rows``.  A
# change that needs more moves the gate and says why in CHANGES.md.
MAX_PACKAGE_LINES = 2483


def _trees(package: Path):
    return [ast.parse(p.read_text("utf-8")) for p in sorted(package.glob("*.py"))]


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
    trees = _trees(package)
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


def _attribute_reads(node) -> Counter:
    """Attribute names that ``node`` loads."""
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unread_slots(package: Path = PACKAGE) -> list:
    """``Class.field`` of every slot read nowhere outside its class's ``__init__``."""
    trees = _trees(package)
    total = Counter()
    for tree in trees:
        total += _attribute_reads(tree)
    out = []
    for cls in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        own = Counter()
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                own += _attribute_reads(item)
        out += [
            f"{cls.name}.{field}"
            for item in cls.body
            if isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
            for field in ast.literal_eval(item.value)
            if total[field] - own[field] <= 0
        ]
    return sorted(out)


def _functions(tree):
    """(qualified name, name a call uses, node, leading self/cls) of every
    function; a class's ``__init__`` is called by the class name."""
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                methods.add(item)
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list
                )
                called = cls.name if item.name == "__init__" else item.name
                yield f"{cls.name}.{item.name}", called, item, 0 if static else 1
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, node.name, node, 0


def unpassed_defaults(package: Path = PACKAGE) -> list:
    """``function.parameter`` of every defaulted parameter no call passes."""
    trees = _trees(package)
    calls = Counter()  # (called name, position or keyword); "*" for *args / **kwargs
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            calls[name, "*"] += 1
        calls.update((name, i) for i in range(len(call.args)))
        calls.update((name, k.arg) for k in call.keywords)
    out = []
    for tree in trees:
        for qualified, called, node, skip in _functions(tree):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [
                (i - skip, p.arg)
                for i, p in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ] + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for position, param in defaulted:
                key = f"{qualified.replace('.__init__', '')}.{param}"
                if key in ALLOWED_DEFAULTS or calls[called, "*"] or calls[called, param]:
                    continue
                if position is None or not calls[called, position]:
                    out.append(key)
    return sorted(out)


def test_package_stays_under_its_line_gate():
    lines = sum(len(p.read_text("utf-8").splitlines()) for p in PACKAGE.glob("*.py"))
    assert lines <= MAX_PACKAGE_LINES


def test_every_first_use_name_resolves():
    """A misspelt name in an ``_on_first_use`` group fails only when a call
    first looks it up, so every name of every group is resolved here."""
    hooked = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "leibnizalg" + ("" if path.stem == "__init__" else "." + path.stem)
        hook = vars(importlib.import_module(name)).get("__getattr__")
        if hook is None:
            continue
        hooked.append(name)
        for group in inspect.getclosurevars(hook).nonlocals["groups"]:
            for source, names in group.items():
                module = importlib.import_module(source, "leibnizalg")
                assert all(hasattr(module, each) for each in names), (name, source, names)
    assert hooked == ["leibnizalg", "leibnizalg.cli", "leibnizalg.report"]


def test_every_definition_has_a_library_caller():
    assert unreferenced() == []


def test_every_slot_is_read():
    assert unread_slots() == []


def test_every_default_is_passed():
    assert unpassed_defaults() == []


def test_detects_an_unreferenced_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "__all__ = ['exported']\n"
        "def exported(x=0):\n    return used(1) + Pair(1).left\n"
        "def used(y, z=2):\n    return y + z\n"
        "def orphan():\n    return orphan()\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    def unused_method(self):\n        return self.size\n"
        "class Pair:\n"
        "    __slots__ = ('left', 'right')\n"
        "    def __init__(self, left, right=0):\n"
        "        self.left = left\n        self.right = right\n"
    )
    assert unreferenced(tmp_path) == ["Box", "Box.unused_method", "orphan"]
    assert unread_slots(tmp_path) == ["Pair.right"]
    assert unpassed_defaults(tmp_path) == ["Pair.right", "exported.x", "used.z"]
