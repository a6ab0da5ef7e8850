"""The public surface: exported names resolve, and a re-export is its home module's object."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

import pytest

import pathvol

MODULES = [
    importlib.import_module(f"pathvol.{info.name}")
    for info in pkgutil.iter_modules(pathvol.__path__)
    if info.name != "__main__"
]


def _home(obj):
    """The module that defines a class or function, or None for other values."""
    if inspect.isclass(obj) or inspect.isfunction(obj):
        return sys.modules[obj.__module__]
    return None


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_every_name_in_all_resolves_to_its_home_object(module):
    for name in module.__all__:
        obj = getattr(module, name)  # AttributeError names a stale entry
        home = _home(obj)
        if home is not None:
            assert getattr(home, name) is obj, f"{module.__name__}.{name} is not {home.__name__}.{name}"


def test_package_reexports_are_their_home_objects():
    names = [name for name, obj in vars(pathvol).items() if not name.startswith("_") and not inspect.ismodule(obj)]
    assert "EstimatorSpec" in names
    for name in names:
        obj = getattr(pathvol, name)
        home = _home(obj)
        assert home is not None and home is not pathvol, f"pathvol.{name} has no home module"
        assert getattr(home, name) is obj
        assert name in home.__all__, f"{home.__name__} does not export {name}"
