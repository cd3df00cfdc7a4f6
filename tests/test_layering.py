"""The package's modules import only downwards.

Each module of ``ellfm`` may import, relatively or by absolute name, only
modules that come before it in ``LAYERS``.  The order keeps the base gate in
the twist model: ``twists`` sits below ``catalog``, so it can never reach for
catalog data, and the CLI sits on top of everything.  ``__init__`` and
``__main__`` only re-export and start the CLI, so they are exempt.
"""

import ast
from pathlib import Path

import pytest

import ellfm

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

