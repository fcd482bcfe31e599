"""The package names the benchmark under ``bench/`` relies on.

``bench/`` runs each checkout's own ``src``, so deleting or renaming a name it
looks up would break the benchmark and not the package's tests.  These tests
make such a change fail here first.  ``bench/`` is only read: its reference
module is compiled from source, so no bytecode cache is written there.
"""

import types
from pathlib import Path

import pytest

from ellverify import bridge, catalog, conjectures, contour, kernel, report, series

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name):
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_bench_references_hold():
    # kernel values against 30-digit mpmath, and (q;q)_inf, its inverse and
    # their product against Euler's pentagonal numbers and partition numbers
    reference = _load_bench_module("reference")
    assert reference.check_references(kernel, series) == []


# (owner, attribute) pairs that bench/tracing.py wraps and bench/ready.py or
# bench/run.py call
BENCH_NAMES = [
    (series, "truncated_product"),
    (series, "stabilized_product"),
    (series, "series_pochhammer"),
    (series.LaurentSeries, "invert"),
    (series.LaurentSeries, "__mul__"),
    (series.LaurentSeries, "__rmul__"),
    (conjectures, "run_series_check"),
    (contour, "integrate"),
    (contour, "pole_audit"),
    (bridge, "J_mu_k2"),
    (bridge, "eval_conj_rhs"),
    (catalog, "run_check"),
    (catalog, "sample_params"),
    (catalog, "get_entry"),
    (report, "all_check_ids"),
    (report, "RunConfig"),
    (report, "run_suite"),
    (report, "VerificationReport"),
]


@pytest.mark.parametrize(
    "owner, name", BENCH_NAMES, ids=[f"{o.__name__}.{n}" for o, n in BENCH_NAMES]
)
def test_bench_names_exist(owner, name):
    assert callable(getattr(owner, name, None))
