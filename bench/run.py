#!/usr/bin/env python3
"""Benchmark of ellverify: one workload per run, one JSON result line.

    python3 bench/run.py --workload integrals --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` for
``--seconds`` seconds; ``--trace 1`` makes one traced pass of fixed size over
the same inputs and reports the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import namedtuple
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: ``draws`` of the check in one verify of the selection, ``block`` draws per
#: operation, ``order`` for an exact series check, operations ``per_round``
Check = namedtuple("Check", "id draws block order per_round", defaults=(1, None, 1))
Workload = namedtuple("Workload", "name checks samples warmup")

# Three integrating checks are left out because some draws fail, so the
# share of failed operations would depend on the seed (see README.md):
# htf-series raises ToleranceNotReached after 200,000 evaluations (about 30 s),
# and mod-minus and mod-plus return wrong values on about 1% of draws.
# ellmac-eval and aff-eval pick their case by sample index, cycling through
# 10 and 3 cases, so one operation runs one whole cycle.  Their cycles vary
# little in cost, while single draws of the others vary widely (coefficient
# of variation 0.2-0.8), so a round runs the others three times.
WORKLOADS = {
    "integrals": Workload(
        name="integrals",
        checks=(
            Check("aff-eval", 3, 3),
            Check("bridge-unity", 10, per_round=3),
            Check("ellmac-eval", 10, 10),
            Check("ellmac-val", 10, per_round=3),
            Check("eval1", 20, per_round=3),
            Check("eval2", 20, per_round=3),
            Check("eval3", 30, per_round=3),
            Check("fv-val1", 20, per_round=3),
            Check("fv-val2", 20, per_round=3),
            Check("lemma.int-eval1", 20, per_round=3),
            Check("lemma.int-eval2", 20, per_round=3),
            Check("lemma.int-rearrange", 20, per_round=3),
            Check("spiridonov", 20, per_round=3),
        ),
        samples=None,
        warmup="ellmac-val",
    ),
    "pointwise": Workload(
        name="pointwise",
        checks=tuple(
            Check(cid, 3000, 50)
            for cid in (
                "ellgam-mod",
                "lemma.full-sym",
                "lemma.sym-rearrange",
                "lemma.theta-simp",
                "lemma.theta-simp2",
                "lemma.theta-simp3",
                "lemma.theta-simp4",
                "theta-mod",
            )
        ),
        samples=3000,
        warmup="theta-mod",
    ),
    "series": Workload(
        name="series",
        checks=(
            Check("series.aff-eval", 1, order=40),
            Check("series.denominator", 1, order=6),
            Check("series.hall-limit", 1, order=8),
            Check("series.sym-rearrange", 1, order=8),
            Check("series.theta-simp2", 1, order=8),
            Check("series.theta-simp3", 1, order=8),
            Check("series.theta-simp4", 1, order=8),
            Check("series.triple-product", 1, order=12),
        ),
        samples=None,
        warmup="series.triple-product",
    ),
}

NUMERIC_IDS = sorted(
    check.id for name in ("integrals", "pointwise") for check in WORKLOADS[name].checks
)

#: operation k of a check in a run draws with seed ``seed * SEED_STRIDE + k``,
#: so no draw repeats within a run
SEED_STRIDE = 2**20
#: set-up processes and report writes per run, each spread evenly over it
SETUP_REPEATS = 15
REPORT_REPEATS = 4

#: calibrate again once this much time has passed since the last calibration
CALIBRATION_EVERY_S = 0.05
#: a bare interpreter's start on an uncontended core of the reference host,
#: the unit of ``setup_s``; never change it
BARE_START_SECONDS = 0.030
BARE_START = [sys.executable, "-c", "print('ready', flush=True)"]


class Clock:
    """Collects timings and scales them to the reference host speed.

    Timings fall into groups between calibrations (see calibration.py).  A
    group is divided by the median of the six calibration times around it,
    which follows the host's swings (they last seconds) but not a blip in one
    calibration, and multiplied by the calibration's reference time.
    """

    def __init__(self):
        self.calibrations = [calibration.seconds()]
        self.bounds = [0]
        self.keys = array("H")
        self.values = array("d")
        self.key_index = {}
        self.since = time.perf_counter()

    def add(self, key, seconds):
        self.keys.append(self.key_index.setdefault(key, len(self.key_index)))
        self.values.append(seconds)
        if time.perf_counter() - self.since >= CALIBRATION_EVERY_S:
            self.calibrate()

    def calibrate(self):
        self.calibrations.append(calibration.seconds())
        self.bounds.append(len(self.values))
        self.since = time.perf_counter()

    def median(self, key, raw=False):
        """Median of the timings under ``key``, scaled unless ``raw``."""
        index = self.key_index[key]
        cal = self.calibrations
        out = []
        for j in range(len(self.bounds) - 1):
            speed = 1.0 if raw else calibration.REFERENCE_SECONDS / statistics.median(cal[max(0, j - 2) : j + 4])
            out.extend(
                self.values[i] * speed
                for i in range(self.bounds[j], self.bounds[j + 1])
                if self.keys[i] == index
            )
        return statistics.median(out)


def load_package():
    """Import ellverify from the checkout's ``src``; exit if it is not there."""
    if not (SRC / "ellverify" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import ellverify

    if Path(ellverify.__file__).resolve().parent != SRC / "ellverify":
        sys.exit(f"imported ellverify from {ellverify.__file__}, not from {SRC}")
    from ellverify import (  # noqa: F401  (every layer the benchmark measures)
        bridge,
        catalog,
        conjectures,
        contour,
        kernel,
        lemmas,
        report,
        series,
        special,
    )


class Tally:
    """Operations attempted and failed, and what made the outputs incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, check, rep):
        """Count one operation's draws and check its report against them."""
        statuses = [result["status"] for result in rep.results]
        summary = rep.summary
        self.attempted += check.block
        self.failed += statuses.count("error")
        counts_match = (
            len(statuses) == summary["total"] == check.block
            and summary["passed"] == statuses.count("pass")
            and summary["failed"] == statuses.count("fail")
            and summary["errors"] == statuses.count("error")
        )
        if not counts_match:
            self.problems.append(f"{check.id}: report summary does not match its results")
        if "fail" in statuses:
            self.problems.append(f"{check.id}: identity failed on a draw")
        for result in rep.results:
            if result["status"] == "error":
                print(f"error: {check.id} seed {rep.config.seed}: {result['error']}", file=sys.stderr)


def run_op(report, check, seed):
    """One timed ``run_suite`` of ``check``; returns (report, seconds)."""
    config = report.RunConfig(
        [check.id], samples_per_identity=check.block, seed=seed, series_order=check.order
    )
    start = time.perf_counter()
    rep = report.run_suite(config)
    return rep, time.perf_counter() - start


def keep(kept, check, rep):
    """Hold the first ``check.draws`` results of ``check`` for the report."""
    held = kept.setdefault(check.id, [])
    if len(held) < check.draws:
        held.extend(rep.results[: check.draws - len(held)])


def assemble(report, workload, seed, kept, elapsed):
    """The report a verify of the selection writes, from the held results.

    A check with fewer held results than its draws repeats them, so the
    report always has the selection's size.
    """
    results = []
    for check in sorted(workload.checks):
        held = kept[check.id]
        results.extend(held[i % len(held)] for i in range(check.draws))
    statuses = [result["status"] for result in results]
    summary = {
        "total": len(results),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "errors": statuses.count("error"),
        "all_passed": all(s == "pass" for s in statuses),
        "elapsed_seconds": elapsed,
    }
    config = report.RunConfig(
        [check.id for check in workload.checks],
        samples_per_identity=workload.samples,
        seed=seed,
    )
    return report.VerificationReport(config=config, results=tuple(results), summary=summary)


def time_start(command):
    """Seconds from starting ``command`` to its line ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{command[1]} failed with exit code {proc.returncode}")
    return elapsed


def time_setup(workload, setups):
    """Time one fresh process from interpreter start to ready.

    Appends (set-up seconds, bare interpreter start seconds) to ``setups``.
    Process start-up tracks the host's swings better than the calibration
    loop does, so ``setup_s`` is scaled by a bare start timed next to it.
    """
    setup = time_start([sys.executable, str(HERE / "ready.py"), workload.warmup])
    setups.append((setup, time_start(BARE_START)))


def setup_seconds(setups, raw=False):
    """Median set-up time, in units of :data:`BARE_START_SECONDS` unless ``raw``."""
    if raw:
        return statistics.median(setup for setup, _ in setups)
    return BARE_START_SECONDS * statistics.median(setup / bare for setup, bare in setups)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed, seconds, tally):
    """End-to-end metrics of ``seconds`` of whole rounds of operations.

    A round runs ``per_round`` operations of every check, in an order
    shuffled by the seed, so each check's draws are spread across the run.
    The set-up processes start between operations, spread across the run
    too, so a slow episode of the host cannot own their median either.
    """
    from ellverify import report

    clock = Clock()
    rng = random.Random(seed)
    order = [check for check in workload.checks for _ in range(check.per_round)]
    done = {check.id: 0 for check in workload.checks}
    kept = {}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{workload.name}.json"

    def write_report():
        clock.calibrate()
        begin = time.perf_counter()
        assemble(report, workload, seed, kept, 0.0).save(path)
        clock.add("report", time.perf_counter() - begin)
        clock.calibrate()

    writes = 0
    setups = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        for check in order:
            due = seconds * len(setups) / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= due:
                time_setup(workload, setups)
                clock.calibrate()
            rep, elapsed = run_op(report, check, seed * SEED_STRIDE + done[check.id])
            done[check.id] += 1
            tally.add(check, rep)
            clock.add(check.id, elapsed / check.block)
            keep(kept, check, rep)
        rounds += 1
        if time.perf_counter() - start >= seconds * (writes + 1) / REPORT_REPEATS:
            write_report()
            writes += 1
    while writes < REPORT_REPEATS:
        write_report()
        writes += 1
    while len(setups) < SETUP_REPEATS:
        time_setup(workload, setups)

    def verify_seconds(raw):
        draws = sum(check.draws * clock.median(check.id, raw) for check in workload.checks)
        return draws + clock.median("report", raw)

    print(
        f"rounds {rounds}; unscaled: setup_s {setup_seconds(setups, True):.4f} "
        f"verify_s {verify_seconds(True):.4f}; scaled ms per draw: "
        + " ".join(f"{c.id} {clock.median(c.id) * 1e3:.2f}" for c in workload.checks),
        file=sys.stderr,
    )
    return {
        "setup_s": (setup_seconds(setups), "s"),
        "verify_s": (verify_seconds(False), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_pass(workload, seed, tally):
    """One verify-sized pass with tracing on: each check's draws, round-robin.

    Its size depends on nothing but the workload, so its counts repeat
    exactly for a given seed.  Returns the tracer and the held results.
    """
    from ellverify import report
    from tracing import Tracer

    rounds = max(check.draws // check.block for check in workload.checks)
    kept = {}
    with Tracer() as tracer:
        for k in range(rounds):
            for check in workload.checks:
                if k < check.draws // check.block:
                    rep, elapsed = run_op(report, check, seed * SEED_STRIDE + k)
                    tracer.calls["report.run_suite"] += 1
                    tracer.seconds["report.run_suite"] += elapsed
                    tally.add(check, rep)
                    keep(kept, check, rep)
    return tracer, kept


def layer_metrics(workload, seed, tally):
    """Every per-layer metric, from one traced pass and the microbenchmarks."""
    from ellverify import kernel, report, series

    import reference

    tracer, kept = traced_pass(workload, seed, tally)
    calls, secs = tracer.calls, tracer.seconds
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    kernel_names = [name for name in calls if name.startswith("kernel.")]
    put("kernel.calls", sum(calls[n] for n in kernel_names), "count")
    put("kernel.s", sum(secs[n] for n in kernel_names), "s")
    for name, value in reference.microbenchmarks(kernel, series).items():
        put(name, value, "us")

    integrals = calls["contour.integrate"]
    put("contour.integrals", integrals, "count")
    put("contour.evaluations", tracer.evaluations, "count")
    put("contour.evals_per_integral", tracer.evaluations / integrals if integrals else 0.0, "count")
    put("contour.integrate_s", secs["contour.integrate"], "s")
    put("contour.pole_audits", calls["contour.pole_audit"], "count")
    put("contour.pole_audit_s", secs["contour.pole_audit"], "s")
    put("contour.error_max_rel", tracer.error_max_rel, "ratio")

    evaluations = sum(n for n, _ in tracer.integrand.values())
    integrand_s = sum(s for _, s in tracer.integrand.values())
    put("special.integrand_us", integrand_s / evaluations * 1e6 if evaluations else 0.0, "us")
    for check in WORKLOADS["integrals"].checks:
        n, s = tracer.integrand.get(check.id, (0, 0.0))
        put(f"special.{check.id}.integrand_us", s / n * 1e6 if n else 0.0, "us")
    put("special.closed_form_s", secs["special.closed_form"], "s")

    for cid in NUMERIC_IDS:
        draws = tracer.draw_seconds.get(cid)
        put(f"catalog.{cid}.draw_ms", statistics.median(draws) * 1e3 if draws else 0.0, "ms")
    samples = calls["catalog.sample_params"]
    put("catalog.sample_us", secs["catalog.sample_params"] / samples * 1e6 if samples else 0.0, "us")
    put("catalog.lhs_s", secs["catalog.lhs"], "s")
    put("catalog.rhs_s", secs["catalog.rhs"], "s")
    put("catalog.audit_s", secs["catalog.audit"] + secs["contour.pole_audit"], "s")

    put("bridge.J_mu_k2_s", secs["bridge.J_mu_k2"], "s")
    put("bridge.eval_conj_rhs_s", secs["bridge.eval_conj_rhs"], "s")

    for name in ("truncated_product", "stabilized_product", "invert", "mul"):
        put(f"series.{name}.calls", calls[f"series.{name}"], "count")
        put(f"series.{name}.s", secs[f"series.{name}"], "s")
    put("series.terms_out", tracer.terms_out, "count")
    for check in WORKLOADS["series"].checks:
        put(f"conjectures.{check.id}.s", tracer.series_check_seconds.get(check.id, 0.0), "s")

    inner = secs["catalog.run_check"] + secs["conjectures.run_series_check"]
    put("report.overhead_s", secs["report.run_suite"] - inner, "s")
    rep = assemble(report, workload, seed, kept, 0.0)
    text = rep.to_json()
    put("report.to_json_s", min(_seconds(rep.to_json) for _ in range(REPORT_REPEATS)), "s")
    put("report.json_bytes", len(text.encode("utf-8")), "bytes")

    OUT.mkdir(exist_ok=True)
    counters = {name: {"calls": calls[name], "s": secs[name]} for name in sorted(calls)}
    (OUT / f"trace-{workload.name}.json").write_text(json.dumps(counters))
    return metrics


def _seconds(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    load_package()
    from ellverify import kernel, series

    import reference

    workload = WORKLOADS[args.workload]
    tally = Tally()
    tally.problems += reference.check_references(kernel, series)
    if args.trace:
        metrics = layer_metrics(workload, args.seed, tally)
    else:
        metrics = measure(workload, args.seed, args.seconds, tally)
    for problem in tally.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
