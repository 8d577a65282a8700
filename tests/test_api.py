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


# exported names that no code in src/ uses, each kept on purpose
UNUSED_IN_SRC = {
    "curvature_components",  # the full R, the reference for distributions._curvature_block
    "euler_transport",  # the independent first-order reference for RK4, and a benchmark op
    "build_riemann_extension",  # the paper's m = 0 construction, on the paper's inputs
}


def _used_in_src():
    """Names read in the package's modules other than __init__.py: every
    ``Name`` and ``Attribute``, except inside the top-level definition of
    that same name (imports and ``__all__`` strings are not reads)."""
    used = set()
    for path in INIT.parent.glob("*.py"):
        if path == INIT:
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            used |= names - {getattr(stmt, "name", None)}
    return used


def test_every_export_has_a_use_in_src():
    exported = {name for _, names in IMPORTS for name in names}
    assert sorted(UNUSED_IN_SRC - exported) == [], "allowlisted but not exported"
    assert sorted(exported - _used_in_src() - UNUSED_IN_SRC) == []
