"""Command-line front end for batch verification runs.

``ellverify verify`` runs a selection of checks and prints one status line
per check id; ``ellverify list`` prints the manifest; ``ellverify
series-check`` runs only the exact series checks.  Exit code 0 means every
executed check passed, 1 means at least one failed or errored, and 2 marks
a configuration problem (unknown ids, bad config file, bad flags).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import catalog, report


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ellverify",
        description="audited numeric and exact-series identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run checks and emit a JSON report")
    verify.add_argument("--ids", help="comma-separated check ids to run")
    verify.add_argument(
        "--all", action="store_true", help="run every registered check"
    )
    verify.add_argument("--samples", type=int, help="draws per numeric check")
    verify.add_argument("--seed", type=int, help="base seed for all draws")
    verify.add_argument(
        "--tol",
        type=float,
        help="tolerance override applied to every selected numeric check",
    )
    verify.add_argument("--order", type=int, help="order for series checks")
    verify.add_argument("--out", help="path for the JSON report")
    verify.add_argument(
        "--config", help="JSON file with run settings; explicit flags win"
    )

    lister = sub.add_parser("list", help="print the check manifest")
    lister.add_argument(
        "--json", action="store_true", help="machine-readable manifest"
    )

    series = sub.add_parser(
        "series-check", help="run exact series checks only"
    )
    series.add_argument("--ids", help="comma-separated series check ids")
    series.add_argument("--order", type=int, help="truncation order")
    return parser


_CONFIG_KEYS = {field.name for field in dataclasses.fields(report.RunConfig)}


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise report.ConfigInvalid(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise report.ConfigInvalid(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise report.ConfigInvalid("config file must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise report.ConfigInvalid(f"unknown config keys: {', '.join(unknown)}")
    return data


def _split_ids(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _resolve_verify_config(args):
    settings = _load_config_file(args.config) if args.config else {}

    if args.all:
        ids = report.all_check_ids()
    elif args.ids:
        ids = _split_ids(args.ids)
    else:
        ids = settings.get("identity_ids") or ()
    if not ids:
        raise report.ConfigInvalid("select checks with --ids or --all")

    overrides = settings.get("tolerance_overrides") or {}
    # a malformed file value is passed on for RunConfig to reject
    if args.tol is not None and isinstance(overrides, dict):
        numeric = catalog.identity_ids("numeric")
        overrides = {**overrides, **{cid: args.tol for cid in ids if cid in numeric}}

    def pick(flag_value, key, default):
        return flag_value if flag_value is not None else settings.get(key, default)

    return report.RunConfig(
        identity_ids=ids,
        samples_per_identity=pick(args.samples, "samples_per_identity", None),
        seed=pick(args.seed, "seed", 0),
        tolerance_overrides=overrides,
        series_order=pick(args.order, "series_order", None),
        output_path=pick(args.out, "output_path", None),
    )


def _print_report(rep):
    grouped = {}
    for result in rep.results:
        grouped.setdefault(result["id"], []).append(result)
    for check_id in sorted(grouped):
        rows = grouped[check_id]
        errors = [r for r in rows if r["status"] == "error"]
        failed = [r for r in rows if r["status"] == "fail"]
        if catalog.get_entry(check_id).kind == "series":
            row = rows[0]
            if errors:
                print(f"ERROR {check_id}: {row['error']}")
            else:
                status = "ok  " if not failed else "FAIL"
                print(
                    f"{status}  {check_id}: order {row['order']}, "
                    f"{len(row['cases'])} case(s)"
                )
            continue
        measured = [r["margin"] for r in rows if r["status"] != "error"]
        # an infinite rhs makes a draw's margin nan, the worst there is
        worst = max(measured, key=lambda m: math.inf if math.isnan(m) else m, default=math.nan)
        status = "ok  " if not failed and not errors else "FAIL"
        line = (
            f"{status}  {check_id}: {len(rows) - len(errors) - len(failed)}"
            f"/{len(rows)} samples ok, worst margin {worst:.2e}"
        )
        if errors:
            line += f", {len(errors)} error(s): {errors[0]['error']}"
        print(line)
    summary = rep.summary
    print(
        f"total: {summary['passed']}/{summary['total']} passed, "
        f"{summary['failed']} failed, {summary['errors']} errored "
        f"({summary['elapsed_seconds']:.1f}s)"
    )


def _cmd_verify(args):
    config = _resolve_verify_config(args)
    rep = report.run_suite(config)
    _print_report(rep)
    if config.output_path:
        print(f"report written to {config.output_path}")
    return 0 if rep.all_passed else 1


def _cmd_list(args):
    rows = report.list_identities()
    if args.json:
        print(json.dumps(list(rows), indent=2, sort_keys=True))
        return 0
    width = max(len(row["id"]) for row in rows)
    for row in rows:
        scope = (
            f"{row['default_samples']} samples @ {row['tolerance']:g}"
            if row["kind"] == "numeric"
            else f"exact, order {row['default_order']}"
        )
        print(f"{row['id']:<{width}}  [{row['kind']}] {row['description']} ({scope})")
    print(f"{len(rows)} registered checks")
    return 0


def _cmd_series(args):
    ids = _split_ids(args.ids) if args.ids else catalog.identity_ids("series")
    numeric_ids = catalog.identity_ids("numeric")
    numeric = [cid for cid in ids if cid in numeric_ids]
    if numeric:
        raise report.ConfigInvalid(
            f"not exact series checks: {', '.join(numeric)}"
        )
    config = report.RunConfig(identity_ids=ids, series_order=args.order)
    rep = report.run_suite(config)
    _print_report(rep)
    return 0 if rep.all_passed else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_series(args)
    except report.ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
