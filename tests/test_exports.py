"""Every name a module exports resolves, and is exported once.

A deleted function whose name a stale __all__ still lists would break
``from spinsphere.<module> import *`` only, which no other test runs.
"""

import importlib
import pkgutil

import pytest

import spinsphere

MODULES = ["spinsphere"] + [
    f"spinsphere.{info.name}" for info in pkgutil.iter_modules(spinsphere.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
