#!/usr/bin/env python3
"""Quick tests of the benchmark itself (about 10 s).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

The file name keeps these out of the package's own test collection.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402

run.load_package()

from ellverify import kernel, series, special  # noqa: E402


def test_kernel_reference_passes_and_rejects_a_perturbed_value():
    values = {key: call() for key, call in reference.kernel_calls(kernel).items()}
    refs = reference.kernel_references()
    assert reference.kernel_problems(values, refs) == []
    key = ("ell_gamma", "im07")
    values[key] *= 1 + 1e-9
    problems = reference.kernel_problems(values, refs)
    assert len(problems) == 1 and "ell_gamma at im07" in problems[0]


def test_series_reference_passes_and_rejects_a_perturbed_value():
    values = {name: call() for name, call in reference.series_calls(series).items()}
    expected = reference.series_expected(series)
    assert reference.series_problems(values, expected) == []
    ring = series.SeriesRing(("q",), {"q": reference.SERIES_ORDER + 1})
    values["invert"] = values["invert"] + ring.term(1, q=7)
    assert reference.series_problems(values, expected) == ["series.invert: not exact"]


def test_reference_sequences():
    assert reference.pentagonal_coefficients(12) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert reference.partition_numbers(40)[-1] == 37338


SMALL = run.Workload(
    name="small",
    checks=(
        run.Check("ellmac-val", 2),
        run.Check("ellmac-eval", 10, 10),
        run.Check("lemma.theta-simp", 5),
        run.Check("series.triple-product", 1, 1, 4),
    ),
    samples=None,
    warmup="lemma.theta-simp",
)


def _counts(seed):
    tally = run.Tally()
    tracer, _ = run.traced_pass(SMALL, seed, tally)
    assert tally.problems == [] and tally.attempted == 18 and tally.failed == 0
    return (
        dict(tracer.calls),
        tracer.evaluations,
        tracer.terms_out,
        {cid: len(times) for cid, times in tracer.draw_seconds.items()},
    )


def test_traced_counts_repeat_exactly_and_wrappers_are_removed():
    first, second = _counts(3), _counts(3)
    calls, evaluations, terms_out, draws = first
    assert first == second
    assert evaluations > 0 and terms_out > 0
    assert sum(n for name, n in calls.items() if name.startswith("kernel.")) > 0
    assert draws == {"ellmac-val": 2, "ellmac-eval": 10, "lemma.theta-simp": 5}
    assert special.theta0 is kernel.theta0 and special.integrate.__module__ == "ellverify.contour"


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
