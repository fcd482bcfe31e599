"""Every name a module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import ellverify

MODULES = sorted(info.name for info in pkgutil.iter_modules(ellverify.__path__))


def test_modules_are_found():
    assert {"catalog", "conjectures", "kernel", "report"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"ellverify.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ellverify.{name}.__all__ names missing attributes: {missing}"
