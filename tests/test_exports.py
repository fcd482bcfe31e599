"""Every name a module exports in ``__all__`` exists in that module, and no
module reads another module's underscore names."""

import ast
import importlib
import inspect
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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reaches_into_another_modules_private_names(name):
    # a module uses what another exports, never its underscore names
    tree = ast.parse(inspect.getsource(importlib.import_module(f"ellverify.{name}")))
    modules, reached = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "ellverify"):
            if node.module in (None, "ellverify"):  # from . import kernel
                modules.update(alias.asname or alias.name for alias in node.names)
            else:  # from .kernel import _x
                reached += [alias.name for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):  # import ellverify.kernel as kernel
            modules.update(a.asname for a in node.names if a.name.startswith("ellverify."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                reached.append(f"{node.value.id}.{node.attr}")
    assert not reached, f"ellverify.{name} reaches into private names: {reached}"
