import importlib
import pkgutil

import pytest

import zobench

MODULES = sorted(m.name for m in pkgutil.iter_modules(zobench.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition went breaks
    # ``from zobench.<module> import *``
    module = importlib.import_module(f"zobench.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
