"""Every name a module lists in __all__ exists, in the package too."""

import importlib
import pkgutil

import pytest

import xdicheck

MODULES = sorted(info.name for info in pkgutil.iter_modules(xdicheck.__path__))


def test_every_module_is_found():
    expected = {"checker", "circuit", "cli", "formulas", "labeling", "library", "machine", "sexpr"}
    assert expected <= set(MODULES)


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_all_names_exist(name):
    module = xdicheck if name == "__init__" else importlib.import_module(f"xdicheck.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert missing == []
