"""The package's modules import only downwards.

Each module of ``ellfm`` may import, relatively or by absolute name, only
modules that come before it in ``LAYERS``.  The order keeps the base gate in
the twist model: ``twists`` sits below ``catalog``, so it can never reach for
catalog data, and the CLI sits on top of everything.  ``__init__`` and
``__main__`` only re-export and start the CLI, so they are exempt.

No module uses ``functools.cached_property``: on CPython 3.11 its first
read takes a class-wide lock, and ``value.derived`` caches without one.

Outside ``fibers``, no module names a ``FiberKind`` member other than
``SMOOTH``: a rule that depends on the kind reads a column of its row, so
each per-kind fact has one home, Kodaira's table in ``fibers``.
"""

import ast
from pathlib import Path

import pytest

import ellfm
from ellfm import FiberKind

LAYERS = ("value", "errors", "qz", "projective", "fibers", "surface", "twists", "catalog", "partners", "cli")
EXEMPT = {"__init__", "__main__"}
PACKAGE = Path(ellfm.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the ``ellfm`` modules a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "ellfm":
                    continue
                parts = parts[1:]
            else:
                parts = (node.module or "").split(".") if node.module else []
            if parts:
                found.add(parts[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ellfm" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) - EXEMPT == set(LAYERS)


@pytest.mark.parametrize("module", [m for m in MODULES if m not in EXEMPT])
def test_imports_point_down_the_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    rank = LAYERS.index(module)
    upward = sorted(name for name in _package_imports(tree) if LAYERS.index(name) >= rank)
    assert not upward, f"{module} imports {upward}, which are not below it in {LAYERS}"



def _cached_property_uses(tree: ast.Module) -> list[int]:
    """Lines that import ``cached_property`` from ``functools`` or read ``functools.cached_property``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "functools"
        and any(alias.name == "cached_property" for alias in node.names)
        or isinstance(node, ast.Attribute)
        and node.attr == "cached_property"
    ]


def test_no_module_uses_functools_cached_property():
    found = {
        module: lines
        for module in MODULES
        if (lines := _cached_property_uses(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))))
    }
    assert found == {}, f"use value.derived instead of functools.cached_property: {found}"
    assert _cached_property_uses(ast.parse("from functools import cache, cached_property")) == [1]
    assert _cached_property_uses(ast.parse("import functools\nx = functools.cached_property(len)")) == [2]


def _is_fiber_kind(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "FiberKind" or (
        isinstance(node, ast.Attribute) and node.attr == "FiberKind"
    )


def _kinds_named(tree: ast.Module) -> set[str]:
    """The ``FiberKind`` members a module names: ``FiberKind.II``, ``FiberKind["II"]`` or
    ``FiberKind("II")``.  A computed key or value may name any kind, and reads as ``?``."""
    by_value = {kind.value: kind.name for kind in FiberKind}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_fiber_kind(node.value) and node.attr in FiberKind.__members__:
            found.add(node.attr)
        elif isinstance(node, ast.Subscript) and _is_fiber_kind(node.value):
            found.add(node.slice.value if isinstance(node.slice, ast.Constant) else "?")
        elif isinstance(node, ast.Call) and _is_fiber_kind(node.func):
            arg = node.args[0] if node.args else None
            found.add(by_value.get(arg.value, "?") if isinstance(arg, ast.Constant) else "?")
    return found


def test_only_fibers_names_a_kind_other_than_smooth():
    found = {
        module: named
        for module in MODULES
        if module != "fibers"
        and (named := _kinds_named(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))) - {"SMOOTH"}
    }
    assert found == {}, f"read a column of the FiberKind row instead of naming the kind: {found}"
    assert _kinds_named(ast.parse("FiberKind.SMOOTH, fibers.FiberKind.III_STAR")) == {"SMOOTH", "III_STAR"}
    assert _kinds_named(ast.parse('FiberKind["II"], FiberKind("I*"), FiberKind.__members__')) == {"II", "I_STAR"}
    assert _kinds_named(ast.parse("FiberKind(token), FiberKind[name]")) == {"?"}
