"""Report and CLI tests: config validation, deterministic JSON reports,
error isolation, and the exit-code contract (0 pass, 1 fail, 2 bad config)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellverify import catalog, cli, report
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
    checks = payload["checks"]
    assert {check["kind"] for check in checks.values()} == {"numeric", "series"}
    for row in payload["results"]:
        assert "kind" not in row and "tolerance" not in row  # both are per check
        if checks[row["id"]]["kind"] == "numeric":
            assert checks[row["id"]]["tolerance"] == catalog.DEFAULT_TOLERANCE
            assert isinstance(row["lhs"], list) and len(row["lhs"]) == 2
        else:
            assert "tolerance" not in checks[row["id"]]  # exact checks carry no tolerance
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


def _zero_timings(rep):
    results = tuple({**row, "elapsed_seconds": 0.0} for row in rep.results)
    summary = {**rep.summary, "elapsed_seconds": 0.0}
    return report.VerificationReport(config=rep.config, results=results, summary=summary)


def test_report_json_has_one_line_per_result(tmp_path):
    out = tmp_path / "report.json"
    config = RunConfig(
        identity_ids=FAST_IDS, samples_per_identity=3, seed=9, series_order=4,
        output_path=str(out),
    )
    rep = run_suite(config)
    text = rep.to_json()
    assert json.loads(text) == rep.as_dict()
    assert out.read_text() == text + "\n"
    rows = [line for line in text.splitlines() if line.startswith("    {")]
    assert [json.loads(row.rstrip(",")) for row in rows] == list(rep.results)
    # everything else keeps the indent=2 layout
    bare = report.VerificationReport(config=rep.config, results=(), summary=rep.summary)
    assert bare.to_json() == json.dumps(bare.as_dict(), indent=2, sort_keys=True)
    assert len(text.splitlines()) == len(bare.to_json().splitlines()) + len(rows) + 1


def test_report_rows_are_json_dumps_byte_for_byte(monkeypatch):
    import dataclasses

    def lhs(params):
        raise RuntimeError("pôle de Γ(z; τ, σ) — z ∈ ℤτ + ℤσ")

    boom = dataclasses.replace(catalog.get_entry("lemma.theta-simp"), lhs=lhs)
    monkeypatch.setitem(catalog._REGISTRY, "lemma.theta-simp", boom)
    config = RunConfig(
        identity_ids=FAST_IDS + ("lemma.theta-simp2", "theta-mod", "spiridonov"),
        samples_per_identity=2, seed=9, series_order=4,
    )
    rep = run_suite(config)
    assert {row["status"] for row in rep.results} == {"pass", "error"}
    assert any("Γ(z; τ, σ)" in row.get("error", "") for row in rep.results)
    rows = [line for line in rep.to_json().splitlines() if line.startswith("    {")]
    assert len(rows) == len(rep.results)
    for line, row in zip(rows, rep.results):
        assert line.removeprefix("    ").removesuffix(",") == json.dumps(row, sort_keys=True)


def test_report_json_is_byte_identical_timings_aside():
    config = RunConfig(
        identity_ids=FAST_IDS, samples_per_identity=2, seed=9, series_order=4
    )
    first = _zero_timings(run_suite(config)).to_json()
    assert _zero_timings(run_suite(config)).to_json() == first


def test_errors_are_isolated(monkeypatch):
    import dataclasses

    def lhs(params):
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
    printed = capsys.readouterr().out
    worst = max(row["margin"] for row in payload["results"] if "margin" in row)
    assert f"ok    lemma.theta-simp: 2/2 samples ok, worst margin {worst:.2e}\n" in printed


def test_cli_prints_a_nan_margin_as_the_worst(capsys):
    # an infinite rhs gives a failing draw a nan margin, wherever it falls
    margins = [0.5, float("nan"), 0.25]
    rows = tuple(
        {"id": "theta-mod", "sample_index": k, "margin": m, "elapsed_seconds": 0.0,
         "status": "fail" if m != m else "pass"}
        for k, m in enumerate(margins)
    )
    summary = {"total": 3, "passed": 2, "failed": 1, "errors": 0, "all_passed": False,
               "elapsed_seconds": 0.0}
    config = RunConfig(["theta-mod"], samples_per_identity=3)
    cli._print_report(report.VerificationReport(config, rows, summary))
    assert "FAIL  theta-mod: 2/3 samples ok, worst margin nan\n" in capsys.readouterr().out


def test_cli_exit_code_on_failure():
    # three draws: a draw's sides may agree to the last bit, as draw 0 does
    code = main(
        ["verify", "--ids", "lemma.theta-simp", "--samples", "3", "--tol", "1e-30"]
    )
    assert code == 1


def test_cli_exit_code_on_bad_id(capsys):
    code = main(["verify", "--ids", "not-a-check"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_has_no_precision_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ids", "theta-mod", "--precision", "extended"])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_cli_verifies_without_mpmath():
    # mpmath is a test-only dependency: a pointwise, an integral and a series
    # check must run with every import of it blocked
    script = (
        "import sys; sys.modules['mpmath'] = None; from ellverify.cli import main; "
        "sys.exit(main(['verify', '--ids', 'theta-mod,eval1,series.triple-product', "
        "'--samples', '1', '--order', '4']))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "total: 3/3 passed" in run.stdout


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
        ({"identity_ids": ["theta-mod"], "precision_mode": "extended"}, [], "precision_mode"),
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
