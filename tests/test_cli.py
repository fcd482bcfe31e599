"""Report and CLI tests: config validation, deterministic JSON reports,
error isolation, and the exit-code contract (0 pass, 1 fail, 2 bad config)."""

import json

import pytest

from ellverify import catalog, report
from ellverify.cli import main
from ellverify.report import ConfigInvalid, RunConfig, all_check_ids, run_suite

FAST_IDS = ("lemma.theta-simp", "series.triple-product")


def _strip_timings(payload):
    payload = json.loads(json.dumps(payload))
    payload["summary"].pop("elapsed_seconds")
    for row in payload["results"]:
        row.pop("elapsed_seconds")
    return payload


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_empty_selection():
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=())


def test_config_rejects_unknown_ids():
    with pytest.raises(ConfigInvalid, match="unknown check ids: bogus"):
        RunConfig(identity_ids=("eval1", "bogus"))


def test_config_rejects_bad_settings():
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, samples_per_identity=0)
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, seed=2**64)
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, seed=-1)
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, series_order=-1)
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, precision_mode="quad")


def test_config_rejects_series_tolerance_override():
    with pytest.raises(ConfigInvalid, match="takes no tolerance"):
        RunConfig(
            identity_ids=FAST_IDS,
            tolerance_overrides={"series.triple-product": 1e-8},
        )
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, tolerance_overrides={"eval1": -1.0})
    with pytest.raises(ConfigInvalid):
        RunConfig(identity_ids=FAST_IDS, tolerance_overrides={"bogus": 1e-8})


def test_all_check_ids_merges_registries():
    ids = all_check_ids()
    assert len(ids) == 32
    assert "eval1" in ids and "series.aff-eval" in ids


# ---------------------------------------------------------------------------
# report structure


def test_report_rows_and_summary():
    config = RunConfig(
        identity_ids=FAST_IDS, samples_per_identity=2, seed=9, series_order=4
    )
    rep = run_suite(config)
    payload = rep.as_dict()
    assert payload["schema_version"] == report.SCHEMA_VERSION
    # two numeric draws plus one series row
    assert payload["summary"]["total"] == 3
    assert payload["summary"]["all_passed"] is True
    kinds = {row["kind"] for row in payload["results"]}
    assert kinds == {"numeric", "series"}
    for row in payload["results"]:
        if row["kind"] == "numeric":
            assert row["tolerance"] == catalog.DEFAULT_TOLERANCE
            assert isinstance(row["lhs"], list) and len(row["lhs"]) == 2
        else:
            assert "tolerance" not in row  # exact checks carry no tolerance
            assert row["order"] == 4
    assert rep.all_passed


def test_report_is_deterministic():
    config = RunConfig(
        identity_ids=FAST_IDS, samples_per_identity=2, seed=9, series_order=4
    )
    first = _strip_timings(run_suite(config).as_dict())
    second = _strip_timings(run_suite(config).as_dict())
    assert first == second


def test_report_round_trips_through_json(tmp_path):
    out = tmp_path / "report.json"
    config = RunConfig(
        identity_ids=("lemma.theta-simp",),
        samples_per_identity=1,
        output_path=str(out),
    )
    rep = run_suite(config)
    on_disk = json.loads(out.read_text())
    assert _strip_timings(on_disk) == _strip_timings(rep.as_dict())


def test_errors_are_isolated(monkeypatch):
    import dataclasses

    def lhs(params, ctx):
        raise RuntimeError("synthetic failure")

    boom = dataclasses.replace(catalog.get_entry("lemma.theta-simp"), lhs=lhs)
    monkeypatch.setitem(catalog._REGISTRY, "lemma.theta-simp", boom)
    config = RunConfig(
        identity_ids=("lemma.theta-simp", "lemma.theta-simp2"),
        samples_per_identity=1,
        seed=3,
    )
    rep = run_suite(config)
    statuses = {row["id"]: row["status"] for row in rep.as_dict()["results"]}
    assert statuses["lemma.theta-simp"] == "error"
    assert statuses["lemma.theta-simp2"] == "pass"
    assert rep.summary["errors"] == 1
    assert not rep.all_passed
    error_row = next(r for r in rep.as_dict()["results"] if r["status"] == "error")
    assert "RuntimeError: synthetic failure" in error_row["error"]


# ---------------------------------------------------------------------------
# command line


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--ids",
            "lemma.theta-simp,series.triple-product",
            "--samples",
            "2",
            "--seed",
            "5",
            "--order",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["all_passed"] is True
    assert "ok" in capsys.readouterr().out


def test_cli_exit_code_on_failure():
    code = main(
        ["verify", "--ids", "lemma.theta-simp", "--samples", "1", "--tol", "1e-30"]
    )
    assert code == 1


def test_cli_exit_code_on_bad_id(capsys):
    code = main(["verify", "--ids", "not-a-check"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_and_override(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "identity_ids": ["lemma.theta-simp"],
                "samples_per_identity": 1,
                "seed": 12,
            }
        )
    )
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--config", str(config_path), "--samples", "2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["samples_per_identity"] == 2  # flag beats file
    assert payload["config"]["seed"] == 12


def test_cli_rejects_malformed_config(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"identity_ids": ["eval1"], "shells": 9}))
    assert main(["verify", "--config", str(config_path)]) == 2
    config_path.write_text("not json")
    assert main(["verify", "--config", str(config_path)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "settings,flags,message",
    [
        ({"identity_ids": ["theta-mod"], "samples_per_identity": 2.5}, [], "samples"),
        ({"identity_ids": ["theta-mod"], "samples_per_identity": True}, [], "samples"),
        (
            {"identity_ids": ["theta-mod"], "tolerance_overrides": {"theta-mod": "1e-8"}},
            [],
            "tolerance",
        ),
        (
            {"identity_ids": ["theta-mod"], "tolerance_overrides": {"theta-mod": True}},
            [],
            "tolerance",
        ),
        (
            {"identity_ids": ["theta-mod"], "tolerance_overrides": ["theta-mod"]},
            ["--tol", "1e-8"],
            "tolerance",
        ),
        ({"identity_ids": ["series.triple-product"], "series_order": 2.7}, [], "series_order"),
        ({"identity_ids": ["theta-mod"], "seed": 1.5}, [], "seed"),
        ({"identity_ids": ["theta-mod"], "seed": True}, [], "seed"),
        ({"identity_ids": ["theta-mod"], "seed": "7"}, [], "seed"),
        ({"identity_ids": "theta-mod"}, [], "identity_ids"),
        ({"identity_ids": [1]}, [], "identity_ids"),
        ({"identity_ids": ["theta-mod", "theta-mod"]}, [], "duplicate check ids: theta-mod"),
        ({}, ["--ids", "theta-mod,theta-mod"], "duplicate check ids: theta-mod"),
        ({"identity_ids": ["theta-mod"], "output_path": 5}, [], "output_path"),
    ],
)
def test_cli_rejects_ill_typed_config(tmp_path, capsys, settings, flags, message):
    # each must stop before any check runs, with exit code 2 and no traceback
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(settings))
    assert main(["verify", "--config", str(config_path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_cli_list_json(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 32
    by_id = {row["id"]: row for row in rows}
    assert by_id["eval1"]["kind"] == "numeric"
    assert by_id["series.aff-eval"]["kind"] == "series"
    assert "tolerance" not in by_id["series.aff-eval"]


def test_cli_list_json_matches_registry(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["id"] for row in rows] == list(catalog.identity_ids())
    for row in rows:
        entry = catalog.get_entry(row["id"])
        expected = {
            "id": entry.id,
            "kind": entry.kind,
            "description": entry.ref,
            "domain": entry.domain,
        }
        if entry.kind == "numeric":
            expected["tolerance"] = entry.tolerance
            expected["default_samples"] = entry.default_samples
        else:
            expected["default_order"] = entry.default_order
        assert row == expected


def test_cli_list_plain(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "eval1" in out and "series.hall-limit" in out


def test_cli_series_check(capsys):
    assert main(["series-check", "--ids", "series.triple-product", "--order", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "order 4" in out


def test_cli_series_check_rejects_numeric_ids(capsys):
    assert main(["series-check", "--ids", "eval1"]) == 2
    assert "not exact series checks" in capsys.readouterr().err
