"""The package's public surface: one spelling per name, re-exported whole."""

import ast
import importlib
import importlib.util
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


def _tracing():
    """The benchmark's span tracer, loaded from ``bench/tracing.py``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_are_defined_in_their_owner():
    # the tracer patches what it finds in vars(owner): a method a class only
    # inherits is traced as absent, and its layer reads 0
    absent = []
    for _, module_name, attr in _tracing().ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        if name not in vars(owner):
            absent.append(f"{module_name}:{attr}")
    assert absent == []
