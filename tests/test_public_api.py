import ast
import importlib
import inspect

import pytest

import majorana_pt

MODULES = ["analysis", "bethe", "model", "serialize", "spectral", "svgfig", "verify"]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"majorana_pt.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"majorana_pt.{module}.__all__ lists missing {name!r}"


def test_every_package_import_resolves():
    tree = ast.parse(inspect.getsource(majorana_pt))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"majorana_pt.{module}")
        assert hasattr(mod, name)
        assert name in mod.__all__, f"majorana_pt re-exports {module}.{name} outside __all__"
