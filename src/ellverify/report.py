"""Batch execution of registered checks with a reproducible JSON report.

A :class:`RunConfig` fully determines a run: the checks, the sample counts,
the seed, tolerance overrides and the series order.
``run_suite`` never aborts mid-run — a check that raises is recorded as an
``error`` result and the suite continues — and its report embeds the
resolved configuration, so a report can be re-derived from itself.

Complex numbers are serialized as two-element ``[re, im]`` arrays.  Wall
times are recorded under ``elapsed_seconds`` keys; strip those to compare
reports for reproducibility.

Schema "3": a row holds only what varies by draw.  The top-level
``checks`` maps each selected id to what its rows share: ``kind``, and for a
numeric check ``tolerance`` and ``decision``.  A settled numeric row carries
``margin``, abs_error / (tolerance * max(1, |rhs|)), in place of the errors
its ``lhs`` and ``rhs`` rebuild: abs_error is ``abs(complex(*lhs) -
complex(*rhs))`` and rel_error that over ``max(abs(rhs), 1e-300)``, bit for
bit.  ``status`` is the verdict.  The margin divides by the bound the
comparison uses, so on a finite error it is at most 1 exactly when the draw
passes; an infinite rhs makes it nan, and the draw fails.
Only a failed numeric row carries ``parameters``; a passing row's are
``catalog.sample_params(row["id"], config["seed"], row["sample_index"])``
exactly.  Float ``repr`` is most of the cost of writing a report, so every
float a row can leave out is one it does not write.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import numbers
import time
from typing import Mapping, Optional, Sequence

import numpy as np

from . import catalog, conjectures

__all__ = [
    "SCHEMA_VERSION",
    "ConfigInvalid",
    "RunConfig",
    "VerificationReport",
    "all_check_ids",
    "list_identities",
    "run_suite",
]

SCHEMA_VERSION = "3"


class ConfigInvalid(ValueError):
    """The run configuration references unknown checks or bad settings."""


def all_check_ids():
    """Every registered check id, numeric and exact series."""
    return catalog.identity_ids()


def _is(value, kind):
    """``value`` is an instance of ``kind``, a :mod:`numbers` class, and no bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one verification run."""

    identity_ids: Sequence[str]
    samples_per_identity: Optional[int] = None
    seed: int = 0
    tolerance_overrides: Mapping[str, float] = dataclasses.field(default_factory=dict)
    series_order: Optional[int] = None
    output_path: Optional[str] = None

    def __post_init__(self):
        ids = self.identity_ids
        if not isinstance(ids, (list, tuple)) or not all(
            isinstance(cid, str) for cid in ids
        ):
            raise ConfigInvalid("identity_ids must be a list of check id strings")
        ids = tuple(ids)
        if not ids:
            raise ConfigInvalid("no checks selected")
        known = set(all_check_ids())
        unknown = sorted({cid for cid in ids if cid not in known})
        if unknown:
            raise ConfigInvalid(f"unknown check ids: {', '.join(unknown)}")
        repeated = sorted(cid for cid, n in collections.Counter(ids).items() if n > 1)
        if repeated:
            raise ConfigInvalid(f"duplicate check ids: {', '.join(repeated)}")
        object.__setattr__(self, "identity_ids", ids)
        samples = self.samples_per_identity
        if samples is not None and not (_is(samples, numbers.Integral) and samples >= 1):
            raise ConfigInvalid("samples_per_identity must be an integer >= 1")
        if not (_is(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ConfigInvalid("seed must be an integer in [0, 2**64)")
        if not isinstance(self.tolerance_overrides, Mapping):
            raise ConfigInvalid("tolerance_overrides must map check ids to tolerances")
        for cid, tol in self.tolerance_overrides.items():
            if cid not in known:
                raise ConfigInvalid(f"tolerance override for unknown check {cid!r}")
            if catalog.get_entry(cid).kind != "numeric":
                raise ConfigInvalid(
                    f"{cid!r} is an exact series check and takes no tolerance"
                )
            if not (_is(tol, numbers.Real) and tol > 0):
                raise ConfigInvalid("tolerance overrides must be positive numbers")
        order = self.series_order
        if order is not None and not (_is(order, numbers.Integral) and order >= 0):
            raise ConfigInvalid("series_order must be an integer >= 0")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigInvalid("output_path must be a string")

    def as_dict(self):
        return {
            "identity_ids": list(self.identity_ids),
            "samples_per_identity": self.samples_per_identity,
            "seed": int(self.seed),
            "tolerance_overrides": dict(self.tolerance_overrides),
            "series_order": self.series_order,
            "output_path": self.output_path,
        }


def _cx(value):
    value = complex(value)
    return [value.real, value.imag]


def _encode_value(value):
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, complex) and not isinstance(value, float):
        return _cx(value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    return _cx(value)


def _encode_params(params):
    return {key: _encode_value(value) for key, value in params.items()}


def _pairs(values):
    """The ``[re, im]`` pairs of a complex array."""
    return np.stack((values.real, values.imag), -1).tolist()


def _numeric_row(identity_id, index, params, lhs, rhs, margin, estimate, passed, elapsed):
    """The report row of a settled draw, from values already in JSON form;
    ``params()``, the encoded parameters, is called for a failed draw only."""
    row = {
        "id": identity_id,
        "sample_index": index,
        "lhs": lhs,
        "rhs": rhs,
        "margin": margin,
        "status": "pass" if passed else "fail",
        "elapsed_seconds": elapsed,
    }
    if estimate is not None:
        row["quadrature_error_estimate"] = estimate
    if not passed:
        row["parameters"] = params()
    return row


def _numeric_result(entry, config, sample_index):
    tol = config.tolerance_overrides.get(entry.id)
    start = time.perf_counter()
    try:
        res = catalog.run_check(
            entry.id,
            seed=config.seed,
            sample_index=sample_index,
            tolerance=tol,
        )
    except Exception as exc:  # isolated: one bad draw must not sink the run
        return {
            "id": entry.id,
            "sample_index": sample_index,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_seconds": time.perf_counter() - start,
        }
    return _numeric_row(
        entry.id, sample_index, lambda: _encode_params(res.parameters), _cx(res.lhs_value),
        _cx(res.rhs_value), res.margin, res.quadrature_error_estimate, res.passed,
        time.perf_counter() - start,
    )


def _numeric_results(entry, config, count):
    """The rows of draws ``0 .. count - 1``: one batch for a check with array
    sides, its settled rows read straight from its columns, then
    :func:`_numeric_result` for each draw the batch left unsettled."""
    if not entry.array_sides:
        return [_numeric_result(entry, config, index) for index in range(count)]
    start = time.perf_counter()
    batch = catalog.run_batch(
        entry.id, config.seed, range(count), config.tolerance_overrides.get(entry.id)
    )
    share = (time.perf_counter() - start) / count

    def params(index):
        """The encoded parameters of draw ``index``, read from the batch's columns."""
        return _encode_params({name: values[index] for name, values in batch.parameters.items()})

    columns = zip(
        range(count), batch.settled.tolist(), _pairs(batch.lhs), _pairs(batch.rhs),
        batch.margin.tolist(), batch.passed.tolist(),
    )
    return [
        _numeric_row(
            entry.id, index, functools.partial(params, index), lhs, rhs, margin, None,
            passed, share,
        )
        if settled
        else _numeric_result(entry, config, index)
        for index, settled, lhs, rhs, margin, passed in columns
    ]


def _series_result(check_id, config):
    start = time.perf_counter()
    try:
        outcome = conjectures.run_series_check(check_id, order=config.series_order)
    except Exception as exc:
        return {
            "id": check_id,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_seconds": time.perf_counter() - start,
        }
    return {
        "id": check_id,
        "order": outcome["order"],
        "cases": outcome["cases"],
        "status": "pass" if outcome["exact"] else "fail",
        "elapsed_seconds": time.perf_counter() - start,
    }


def _checks(config):
    """What every row of a check shares, by check id: its kind, and for a
    numeric check the tolerance its draws ran at and the decision rule."""
    checks = {}
    for check_id in config.identity_ids:
        entry = catalog.get_entry(check_id)
        checks[check_id] = {"kind": entry.kind}
        if entry.kind == "numeric":
            tol = config.tolerance_overrides.get(check_id, entry.tolerance)
            checks[check_id].update(tolerance=float(tol), decision=catalog.DECISION_RULE)
    return checks


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    config: RunConfig
    results: tuple
    summary: dict

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "checks": _checks(self.config),
            "results": list(self.results),
            "summary": dict(self.summary),
        }

    def _json_chunks(self):
        """The pieces of :meth:`to_json`, each result a piece of its own."""
        doc = self.as_dict()
        # the rows are acyclic trees built here, so no circular-reference markers
        encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
        for index, key in enumerate(sorted(doc)):
            yield f"{',' if index else '{'}\n  {json.dumps(key)}: "
            if key != "results":
                # a nested value at indent=2 is its own dump, indented one level
                yield json.dumps(doc[key], indent=2, sort_keys=True).replace("\n", "\n  ")
                continue
            for row, result in enumerate(doc[key]):
                yield f"{',' if row else '['}\n    {encode(result)}"
            yield "\n  ]" if doc[key] else "[]"
        yield "\n}"

    def to_json(self):
        """The report as JSON with sorted keys: ``checks``, ``config`` and
        ``summary`` at ``indent=2``, and each result on one compact line of its own."""
        return "".join(self._json_chunks())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(self._json_chunks())
            handle.write("\n")

    @property
    def all_passed(self):
        return bool(self.summary["all_passed"])


def run_suite(config: RunConfig) -> VerificationReport:
    """Run every configured check sequentially and summarize the outcomes.

    Checks run in sorted id order with ascending sample indices, and each
    sample's random stream is keyed by (seed, id, index), so reports are
    reproducible regardless of selection order.

    The draws of a check whose sides take arrays (the pointwise checks) are
    evaluated as one batch by :func:`catalog.run_batch`, which draws every
    draw's stream at once: numpy's SeedSequence + Philox4x64-10 algorithm,
    computed in the package by :func:`catalog.uniforms_for`, with
    ``tests/helpers.rng_for`` as the reference.  Each row is the stream
    :func:`catalog.sample_params` reads for the draw alone, so a batched
    draw has exactly the parameters it has alone; a draw the batch cannot
    settle (a raise, a side that is not finite, or a comparison that
    overflows) runs on its own through :func:`catalog.run_check`, and gets
    the same result or error as it would alone.  Only a batched draw's sides
    may differ in their last bits from the per-draw ones, since numpy's SIMD
    complex arithmetic can round differently from Python and a batch's
    series run to the term count of its slowest draw; they stay within about
    1e-14, and a fixed config still gives the same report.  At the
    registered tolerances that is far inside every bound, so a batched
    draw's verdict is the per-draw one.  At a tolerance near rounding it
    need not be: at ``tolerance_overrides={id: 1e-300}`` and seed 0,
    lemma.sym-rearrange draw 14 and theta-mod draw 4 fail batched but pass
    alone, where Python's arithmetic gives equal sides.  Its comparison is
    the one :func:`catalog.run_check` makes, and its row is built from the
    batch's columns.  Each batched result's ``elapsed_seconds`` is its share
    of the batch.

    A row carries only what varies by draw (report schema "3"); what the
    rows of a check share is in the report's ``checks``.  Only a failed
    numeric row carries its ``parameters``, from the batch's columns or the
    draw's own result.
    """
    started = time.perf_counter()
    results = []
    for check_id in sorted(config.identity_ids):
        entry = catalog.get_entry(check_id)
        if entry.kind == "numeric":
            count = config.samples_per_identity or entry.default_samples
            results.extend(_numeric_results(entry, config, count))
        else:
            results.append(_series_result(check_id, config))
    statuses = [r["status"] for r in results]
    summary = {
        "total": len(results),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "errors": statuses.count("error"),
        "all_passed": all(s == "pass" for s in statuses),
        "elapsed_seconds": time.perf_counter() - started,
    }
    report = VerificationReport(config=config, results=tuple(results), summary=summary)
    if config.output_path:
        report.save(config.output_path)
    return report


def list_identities():
    """Manifest of every registered check, numeric and exact."""
    rows = []
    for cid in catalog.identity_ids():
        entry = catalog.get_entry(cid)
        row = {
            "id": cid,
            "kind": entry.kind,
            "description": entry.ref,
            "domain": entry.domain,
        }
        if entry.kind == "numeric":
            row["tolerance"] = entry.tolerance
            row["default_samples"] = entry.default_samples
        else:
            row["default_order"] = entry.default_order
        rows.append(row)
    return tuple(rows)
