"""Every name a curvlab module exports is defined in that module.

Tools that look exports up by name (the benchmark's tracer among them)
skip a missing name silently, so a stale `__all__` entry must fail here.
"""
import importlib
import pkgutil

import pytest

import curvlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(curvlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_are_local(name):
    module = importlib.import_module(f"curvlab.{name}")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports), f"duplicate names in curvlab.{name}.__all__"
    for export in exports:
        assert export in vars(module), f"curvlab.{name}.__all__ names missing {export!r}"
        defined_in = getattr(vars(module)[export], "__module__", module.__name__)
        assert defined_in == module.__name__, \
            f"curvlab.{name}.{export} is imported from {defined_in}"
