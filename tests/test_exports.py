"""Every name a module exports in ``__all__`` exists in that module and is
used outside the tests, no module reads another module's underscore
names, and no module draws from ``numpy.random``."""

import ast
import copy
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


SOURCES = {
    name: ast.parse(inspect.getsource(importlib.import_module(f"ellverify.{name}")))
    for name in MODULES
}
BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SOURCES = [ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))]


def _names_used(tree, strings=False):
    """Identifiers ``tree`` reads or imports, and with ``strings`` those it
    may look up by a string, as ``bench/tracing.py`` does with ``getattr``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _names_read(tree):
    """Identifiers ``tree`` reads: not its definitions, nor the strings of its ``__all__``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_used(name):
    # an export that no other module, no code of its own module and nothing in
    # bench/ uses is code that only tests call
    module = importlib.import_module(f"ellverify.{name}")
    used = _names_read(SOURCES[name]).union(
        *(_names_used(tree) for other, tree in SOURCES.items() if other != name),
        *(_names_used(tree, strings=True) for tree in BENCH_SOURCES),
    )
    unused = [attr for attr in getattr(module, "__all__", ()) if attr not in used]
    assert not unused, f"ellverify.{name}.__all__ names used nowhere but tests: {unused}"


def _callers(callee):
    """``(module, function)`` of each call of ``callee`` in ``src/``, by the
    innermost function that makes it (``None`` at module level)."""
    found = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and callee in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.add((module, function))
            visit(child, module, function)

    for name, tree in SOURCES.items():
        visit(tree, name, None)
    return found


def test_only_the_audit_picks_a_path():
    # the cycle follows from the pole inventory, so no evaluator constructs
    # a Path or adds a tower correction: audited_integral does both
    assert {c for c in _callers("Path") if c[0] != "contour"} == {("special", "audited_integral")}
    assert _callers("gamma_pair_tower_correction") == {("special", "audited_integral")}


def test_kernel_products_outside_kernel_are_declarations():
    # a product of kernel values is a special.product declaration, with no
    # exception: bridge, whose products are all declared, imports no kernel name
    for callee in ("qpoch1", "qpoch1_add", "qpoch2", "theta0", "jacobi_theta", "ell_gamma"):
        assert {c for c in _callers(callee) if c[0] != "kernel"} == set(), callee
    assert not any(
        isinstance(node, ast.ImportFrom) and node.level and node.module == "kernel"
        for node in ast.walk(SOURCES["bridge"])
    ), "bridge imports from .kernel"


def _without_reprs(tree):
    """A copy of ``tree`` with no ``__repr__``: a repr is what a failed
    assertion prints, so what it reads is not a use."""
    tree = copy.deepcopy(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            node.body = [n for n in node.body if getattr(n, "name", None) != "__repr__"]
    return tree


def test_every_public_series_member_is_read():
    # a method or property of the series classes that nothing in src/ or
    # bench/ reads is code that only tests call
    used = set().union(
        *(_names_used(_without_reprs(tree)) for tree in SOURCES.values()),
        *(_names_used(_without_reprs(tree), strings=True) for tree in BENCH_SOURCES),
    )
    series = importlib.import_module("ellverify.series")
    unread = [
        f"{cls}.{attr}"
        for cls in ("Mono", "SeriesRing", "LaurentSeries")
        for attr, value in vars(getattr(series, cls)).items()
        if not attr.startswith("_")
        and (callable(value) or isinstance(value, property))
        and attr not in used
    ]
    assert not unread, f"ellverify.series members read only by tests: {unread}"


#: one seed-0 draw of every numeric check, then whether numpy.random was loaded
ONE_DRAW_EACH = """
import sys
from ellverify import catalog, report
config = report.RunConfig(catalog.identity_ids("numeric"), samples_per_identity=1, seed=0)
assert report.run_suite(config).all_passed
print("numpy.random" in sys.modules)
"""


def test_no_module_draws_from_numpy_random():
    # every draw is read from catalog.uniforms_for; numpy's generators are
    # only the tests' reference (helpers.rng_for)
    package = Path(ellverify.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path.name
    # in a fresh interpreter, since hypothesis and the tests load numpy.random
    loaded = subprocess.run(
        [sys.executable, "-c", ONE_DRAW_EACH],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert loaded.split() == ["False"]
