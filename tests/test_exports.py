"""Every name a module exports resolves, and is exported once; every error type is raised.

A deleted function whose name a stale __all__ still lists would break
``from spinsphere.<module> import *`` only, which no other test runs.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spinsphere
from spinsphere import errors

MODULES = ["spinsphere"] + [
    f"spinsphere.{info.name}" for info in pkgutil.iter_modules(spinsphere.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []


def test_every_error_type_is_raised_somewhere():
    # an error type whose last raise was deleted would linger in errors, caught by nothing
    raised = set()
    for path in Path(spinsphere.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    raised.add(node.exc.func.id)
    types = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SpinsphereError)
    }
    assert sorted(types - raised - {"SpinsphereError"}) == []
