"""The package's public surface: one spelling per name, re-exported whole."""

import ast
import importlib
import pathlib

import pytest

import walkergeom

INIT = pathlib.Path(walkergeom.__file__)


def _imports():
    """(module, names) for each ``from .module import ...`` in __init__.py."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [(node.module, [alias.name for alias in node.names])
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]


IMPORTS = _imports()


@pytest.mark.parametrize("module, names", IMPORTS, ids=[module for module, _ in IMPORTS])
def test_package_exports_match_module_all(module, names):
    public = importlib.import_module(f"walkergeom.{module}").__all__
    assert sorted(set(names) - set(public)) == [], "imported but not in __all__"
    assert sorted(n for n in public if not hasattr(walkergeom, n)) == [], \
        "in __all__ but not importable from walkergeom"
