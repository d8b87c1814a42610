"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import qavar

MODULES = ["qavar"] + [f"qavar.{m.name}" for m in pkgutil.iter_modules(qavar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
