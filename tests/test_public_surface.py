"""The package's public surface, read from its source with ast, and its method registry.

Three rules that a deleted name can break without failing any other test:
- every name in a module's ``__all__`` exists in that module;
- ``dnt/__init__.py`` re-exports only names in its source module's ``__all__``;
- no module imports a name it never references.

The registry tests pin the power table's column order and check that
each registered statistic is one public, re-exported function.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import dnt
from dnt import classical
from dnt.power import METHOD_NAMES

PACKAGE = Path(dnt.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line; __future__ imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_every_exported_name_exists(stem: str) -> None:
    module = importlib.import_module(f"dnt.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_the_package_re_exports_only_public_names() -> None:
    stray = []
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = importlib.import_module(f"dnt.{node.module}").__all__
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stray == []


@pytest.mark.parametrize("stem", MODULES)
def test_every_imported_name_is_used(stem: str) -> None:
    tree = _tree(stem)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}


def test_method_roster_order() -> None:
    """The power table's columns; before, only the desk CSV digest guarded this order."""
    assert METHOD_NAMES == (
        "DNT-raw", "DNT-image", "KS", "AD", "JB", "GLB", "GG", "BS", "PSNR", "SSIM"
    )


def test_statistic_registry_is_one_table() -> None:
    """Kernels, functions and names hold the same statistics in the same order."""
    assert tuple(classical._STATISTICS) == tuple(classical._BY_NAME) == classical.STATISTIC_NAMES


@pytest.mark.parametrize("name", classical.STATISTIC_NAMES)
def test_every_registered_statistic_is_public(name: str) -> None:
    fn = classical._BY_NAME[name]
    assert fn.__name__ in classical.__all__
    assert getattr(classical, fn.__name__) is fn is getattr(dnt, fn.__name__)
    assert classical.statistic_fn(name) is fn
