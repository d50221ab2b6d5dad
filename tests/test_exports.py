"""Every name a ksetsel module lists in __all__ resolves, so `from ksetsel.<module> import *` works."""

import importlib
import pkgutil

import pytest

import ksetsel

MODULES = sorted(info.name for info in pkgutil.iter_modules(ksetsel.__path__))


def test_the_modules_are_found():
    assert {"ahead", "harness", "mlp", "selection", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"ksetsel.{name}")
    listed = getattr(module, "__all__", ())
    assert [entry for entry in listed if not hasattr(module, entry)] == []
    namespace = {}
    exec(f"from ksetsel.{name} import *", namespace)
    assert set(listed) <= set(namespace)
