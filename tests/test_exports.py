import importlib
import pkgutil

import pytest

import steinflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(steinflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"steinflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicate names in steinflow.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"steinflow.{name}.__all__ names missing attributes: {missing}"
