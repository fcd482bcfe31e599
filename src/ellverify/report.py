"""Batch execution of registered checks with a reproducible JSON report.

A :class:`RunConfig` fully determines a run: the checks, the sample counts,
the seed, tolerance overrides, the series order, and the arithmetic backend.
``run_suite`` never aborts mid-run — a check that raises is recorded as an
``error`` result and the suite continues — and its report embeds the
resolved configuration, so a report can be re-derived from itself.

Complex numbers are serialized as two-element ``[re, im]`` arrays.  Wall
times are recorded under ``elapsed_seconds`` keys; strip those to compare
reports for reproducibility.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import numbers
import time
from typing import Mapping, Optional, Sequence

from . import catalog, conjectures
from .numerics import STANDARD, ExtendedContext

__all__ = [
    "SCHEMA_VERSION",
    "ConfigInvalid",
    "RunConfig",
    "VerificationReport",
    "all_check_ids",
    "list_identities",
    "run_suite",
]

SCHEMA_VERSION = "1"

_PRECISION_MODES = ("standard", "extended")


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
    precision_mode: str = "standard"

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
        if self.precision_mode not in _PRECISION_MODES:
            raise ConfigInvalid(
                f"precision_mode must be one of {_PRECISION_MODES}"
            )

    def as_dict(self):
        return {
            "identity_ids": list(self.identity_ids),
            "samples_per_identity": self.samples_per_identity,
            "seed": int(self.seed),
            "tolerance_overrides": dict(self.tolerance_overrides),
            "series_order": self.series_order,
            "output_path": self.output_path,
            "precision_mode": self.precision_mode,
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


def _numeric_result(entry, config, sample_index, ctx):
    tol = config.tolerance_overrides.get(entry.id)
    start = time.perf_counter()
    try:
        res = catalog.run_check(
            entry.id,
            seed=config.seed,
            sample_index=sample_index,
            tolerance=tol,
            ctx=ctx,
        )
    except Exception as exc:  # isolated: one bad draw must not sink the run
        return {
            "id": entry.id,
            "kind": "numeric",
            "sample_index": sample_index,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_seconds": time.perf_counter() - start,
        }
    return {
        "id": entry.id,
        "kind": "numeric",
        "sample_index": sample_index,
        "parameters": _encode_params(res.parameters),
        "lhs": _cx(res.lhs_value),
        "rhs": _cx(res.rhs_value),
        "abs_error": res.abs_error,
        "rel_error": res.rel_error,
        "quadrature_error_estimate": res.quadrature_error_estimate,
        "tolerance": res.tolerance,
        "decision": res.decision,
        "status": "pass" if res.passed else "fail",
        "elapsed_seconds": time.perf_counter() - start,
    }


def _series_result(check_id, config):
    start = time.perf_counter()
    try:
        outcome = conjectures.run_series_check(check_id, order=config.series_order)
    except Exception as exc:
        return {
            "id": check_id,
            "kind": "series",
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_seconds": time.perf_counter() - start,
        }
    return {
        "id": check_id,
        "kind": "series",
        "order": outcome["order"],
        "cases": outcome["cases"],
        "status": "pass" if outcome["exact"] else "fail",
        "elapsed_seconds": time.perf_counter() - start,
    }


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    config: RunConfig
    results: tuple
    summary: dict

    def as_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.as_dict(),
            "results": list(self.results),
            "summary": dict(self.summary),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @property
    def all_passed(self):
        return bool(self.summary["all_passed"])


def run_suite(config: RunConfig) -> VerificationReport:
    """Run every configured check sequentially and summarize the outcomes.

    Checks run in sorted id order with ascending sample indices, and each
    sample's random stream is keyed by (seed, id, index), so reports are
    reproducible regardless of selection order.
    """
    ctx = STANDARD if config.precision_mode == "standard" else ExtendedContext(30)
    started = time.perf_counter()
    results = []
    for check_id in sorted(config.identity_ids):
        entry = catalog.get_entry(check_id)
        if entry.kind == "numeric":
            count = config.samples_per_identity or entry.default_samples
            for index in range(count):
                results.append(_numeric_result(entry, config, index, ctx))
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
