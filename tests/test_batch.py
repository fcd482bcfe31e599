"""Batched pointwise draws: ``run_suite`` samples all draws of a check with
array sides at once and evaluates them in one call of each side, and every
draw must come out as ``run_check`` gives it on its own.  The batch's
uniforms are ``rng_for``'s streams bit for bit.  A draw the batch cannot
settle (a raise, a side that is not finite, a failed sampling) runs on its
own and gets the per-draw result or error, while its companions are
unaffected."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellverify import catalog, report
from ellverify.report import RunConfig, run_suite

POINTWISE = [cid for cid in catalog.identity_ids("numeric") if catalog.get_entry(cid).array_sides]

#: three draws of every numeric check at seed 0
THREE_DRAWS = RunConfig(catalog.identity_ids("numeric"), samples_per_identity=3, seed=0)

#: fields a batched row shares exactly with the row of the per-draw path; a
#: passing row has no parameters (see test_a_failed_row_carries_its_parameters),
#: and the kind, tolerance and decision are the report's, once per check
EXACT_FIELDS = ("id", "sample_index", "status")

#: the keys of a settled numeric row, before its optional ones
ROW_KEYS = {"id", "sample_index", "lhs", "rhs", "margin", "status", "elapsed_seconds"}


def _single_row(identity_id, seed, index):
    """The report row of one draw through ``run_check``, timing dropped."""
    config = RunConfig([identity_id], samples_per_identity=index + 1, seed=seed)
    row = report._numeric_result(catalog.get_entry(identity_id), config, index)
    row.pop("elapsed_seconds")
    return row


def _close(got, want, tol=1e-13):
    got, want = complex(*got), complex(*want)
    return abs(got - want) <= tol * abs(want)


def test_the_eight_pointwise_checks_declare_array_sides():
    assert POINTWISE == [
        "ellgam-mod",
        "lemma.full-sym",
        "lemma.sym-rearrange",
        "lemma.theta-simp",
        "lemma.theta-simp2",
        "lemma.theta-simp3",
        "lemma.theta-simp4",
        "theta-mod",
    ]
    # no integrating check: their sides run quadratures one point at a time
    for cid in catalog.identity_ids("numeric"):
        if cid not in POINTWISE:
            assert not catalog.get_entry(cid).array_sides


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("identity_id", POINTWISE)
def test_batched_run_suite_matches_run_check(identity_id, seed):
    payload = run_suite(RunConfig([identity_id], samples_per_identity=50, seed=seed)).as_dict()
    # the kind, tolerance and decision each per-draw result carries
    res = catalog.run_check(identity_id, seed, 0)
    want = {"kind": "numeric", "tolerance": res.tolerance, "decision": res.decision}
    assert payload["checks"] == {identity_id: want}
    rows = payload["results"]
    assert [row["sample_index"] for row in rows] == list(range(50))
    for row in rows:
        single = _single_row(identity_id, seed, row["sample_index"])
        assert set(row) - {"elapsed_seconds"} == set(single)
        for field in EXACT_FIELDS:
            assert row[field] == single[field], field
        assert _close(row["lhs"], single["lhs"]) and _close(row["rhs"], single["rhs"])


#: batches of sample indices that mix one-word (< 2**32) and two-word indices
MIXED_INDICES = st.tuples(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    st.lists(st.integers(2**32, 2**32 + 3), min_size=1, max_size=4),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    identity_id=st.sampled_from(catalog.identity_ids("numeric")),
    indices=MIXED_INDICES,
    count=st.integers(1, 14),
)
def test_batch_uniforms_are_rng_for_bit_for_bit(seed, identity_id, indices, count):
    rows = catalog.uniforms_for(seed, identity_id, indices, count)
    assert rows.shape == (len(indices), count)
    for row, index in zip(rows, indices):
        want = catalog.rng_for(seed, identity_id, index).random(count)
        assert row.tobytes() == want.tobytes(), index


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda length: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
            min_size=1,
            max_size=3,
        )
    )
)
def test_philox_keys_are_seed_sequence_states(rows):
    # fewer than four words pad the pool, more than four mix in after it
    keys = catalog._philox_keys(list(np.array(rows, np.uint32).T))
    for key, row in zip(keys.T, rows):
        want = np.random.SeedSequence(np.array(row, np.uint32)).generate_state(2, np.uint64)
        assert key.tolist() == want.tolist()


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_a_rejected_seed_raises_the_same_error_on_both_paths(seed):
    with pytest.raises(Exception) as single:
        catalog.rng_for(seed, "theta-mod", 0)
    with pytest.raises(type(single.value)) as batch:
        catalog.uniforms_for(seed, "theta-mod", [0, 2**32], 4)
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("index", [-1, -(2**40)])
def test_a_rejected_index_raises_the_same_error_on_both_paths(index):
    with pytest.raises(Exception) as single:
        catalog.rng_for(0, "theta-mod", index)
    with pytest.raises(type(single.value)) as batch:
        catalog.uniforms_for(0, "theta-mod", [0, index, 2**32], 4)
    assert str(batch.value) == str(single.value)


#: batches start where an index's word count changes: at 2**32 and 2**64
#: an index takes one more uint32 word, so its key is mixed from a longer entropy
BATCH_STARTS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]


@pytest.mark.parametrize("size", [1, 2, 20, 50, 3000])
@pytest.mark.parametrize("seed", [7, 2**40 + 3, 2**70 + 5], ids=["1-word", "2-word", "3-word"])
def test_batch_uniforms_are_rng_for_bit_for_bit_at_real_batch_sizes(seed, size):
    counts = range(1, 15)
    assert {catalog.get_entry(cid).sampler.count for cid in POINTWISE} <= set(counts)
    # a strided subset of a long batch, its last row included
    rows = sorted({*range(0, size, 97), size - 1})
    for start in BATCH_STARTS:
        indices = range(start, start + size)
        for count in counts:
            uniforms = catalog.uniforms_for(seed, "theta-mod", indices, count)
            assert uniforms.shape == (size, count)
            for row in rows:
                want = catalog.rng_for(seed, "theta-mod", indices[row]).random(count)
                assert uniforms[row].tobytes() == want.tobytes(), (start, row, count)
            if size > 50:  # a row never depends on its batch
                head = catalog.uniforms_for(seed, "theta-mod", indices[:50], count)
                assert uniforms[:50].tobytes() == head.tobytes(), (start, count)


@pytest.mark.parametrize("size", [1, 2, 20, 3000])
@pytest.mark.parametrize("identity_id", POINTWISE)
def test_batched_parameters_do_not_depend_on_the_batch_size(identity_id, size):
    indices = range(max(size, 20))
    params = []
    for start in range(0, len(indices), size):
        batch = catalog.run_batch(identity_id, 0, indices[start : start + size])
        assert batch.settled.all()
        columns = {name: values.tolist() for name, values in batch.parameters.items()}
        params.extend(
            {name: column[row] for name, column in columns.items()}
            for row in range(len(batch.lhs))
        )
    for index in range(20):
        want = catalog.sample_params(identity_id, 0, index)
        assert repr(params[index]) == repr(want), index


def test_run_batch_returns_a_result_per_index():
    batch = catalog.run_batch("lemma.theta-simp2", 3, [4, 0, 9, 4])
    columns = [batch.lhs, batch.rhs, batch.margin, batch.passed]
    columns += list(batch.parameters.values())
    assert all(column.shape == (3,) for column in columns)
    # one row per distinct index, in order
    for row, index in enumerate([4, 0, 9]):
        params = {name: values[row].item() for name, values in batch.parameters.items()}
        assert repr(params) == repr(catalog.sample_params("lemma.theta-simp2", 3, index))
    assert batch.settled.tolist() == batch.passed.tolist() == [True] * 3
    assert batch.tolerance == catalog.get_entry("lemma.theta-simp2").tolerance
    # a batched row ran no quadrature, so it has no estimate to write
    rows = run_suite(RunConfig(["lemma.theta-simp2"], samples_per_identity=3, seed=3)).results
    assert all(set(row) == ROW_KEYS for row in rows)
    with pytest.raises(ValueError, match="array sides"):
        catalog.run_batch("eval1", 0, [0])


@pytest.mark.parametrize("identity_id", POINTWISE)
def test_an_empty_batch_has_empty_columns(identity_id):
    batch = catalog.run_batch(identity_id, 0, [])
    assert batch.parameters.keys() == catalog.sample_params(identity_id, 0, 0).keys()
    columns = [batch.lhs, batch.rhs, batch.margin, batch.passed, batch.settled]
    assert all(column.shape == (0,) for column in columns + list(batch.parameters.values()))


def _patched(monkeypatch, identity_id, **changes):
    entry = dataclasses.replace(catalog.get_entry(identity_id), **changes)
    monkeypatch.setitem(catalog._REGISTRY, identity_id, entry)
    return entry


def _assert_draw_isolated(identity_id, seed, bad_index, count=10):
    rows = run_suite(RunConfig([identity_id], samples_per_identity=count, seed=seed)).results
    for row in rows:
        row = dict(row)
        row.pop("elapsed_seconds")
        index = row["sample_index"]
        assert row["status"] == ("error" if index == bad_index else "pass"), row
        if index == bad_index:
            assert row == _single_row(identity_id, seed, index)
    return rows


def _patched_map(monkeypatch, identity_id, seed, index, change):
    """Patch the check's uniform map: ``change(params, rows)`` alters the
    parameter arrays, ``rows`` flagging the rows that are draw ``index``.
    The batch map and the per-draw sampler both run through it."""
    original = catalog.get_entry(identity_id).sampler
    bad = catalog.rng_for(seed, identity_id, index).random(original.count)

    def to_params(uniforms):
        params = original.to_params(uniforms)
        change(params, (uniforms == bad).all(axis=1))
        return params

    _patched(monkeypatch, identity_id, sampler=catalog.UniformMap(original.count, to_params))


def test_a_draw_on_a_gamma_pole_gets_the_per_draw_error(monkeypatch):
    def change(params, rows):
        # gamma(t - 2 eta; tau, 8 eta) at its pole t - 2 eta = 0
        params["t"] = np.where(rows, 2 * params["eta"], params["t"])

    _patched_map(monkeypatch, "lemma.sym-rearrange", 0, 3, change)
    rows = _assert_draw_isolated("lemma.sym-rearrange", 0, 3)
    assert rows[3]["error"] == "PoleHit: ell_gamma argument on its pole lattice"


def test_a_draw_whose_sampling_fails_gets_the_per_draw_error(monkeypatch):
    def change(params, rows):
        if rows.any():
            raise catalog.NoAdmissiblePoint(
                "sampler failed to find an admissible point in 500 tries"
            )

    _patched_map(monkeypatch, "lemma.theta-simp", 5, 6, change)
    # the map raises for the whole batch, so the batch settles nothing
    batch = catalog.run_batch("lemma.theta-simp", 5, range(10))
    assert batch.settled.tolist() == [False] * 10
    rows = _assert_draw_isolated("lemma.theta-simp", 5, 6)
    assert rows[6]["error"] == (
        "NoAdmissiblePoint: sampler failed to find an admissible point in 500 tries"
    )


def _assert_batched_draw_runs_on_its_own(monkeypatch, index, values, alone=False):
    """Patch lemma.theta-simp2's sides to ``values`` (a value per side name)
    at draw ``index`` of the batch, and of the draw on its own too if
    ``alone``: the batch leaves that draw alone unsettled, it gets the row it
    has on its own, and every other draw passes.  Returns the batch and
    that row."""
    entry = catalog.get_entry("lemma.theta-simp2")
    bad = catalog.sample_params("lemma.theta-simp2", 2, index)

    def patched(side, value):
        def evaluate(params):
            result = side(params)
            if isinstance(params["z"], np.ndarray):
                result = result.copy()
                result[index] = value
            elif alone and params == bad:
                result = value
            return result

        return evaluate

    changes = {name: patched(getattr(entry, name), value) for name, value in values.items()}
    _patched(monkeypatch, "lemma.theta-simp2", **changes)
    batch = catalog.run_batch("lemma.theta-simp2", 2, range(8))
    assert batch.settled.tolist() == [k != index for k in range(8)]
    rows = run_suite(RunConfig(["lemma.theta-simp2"], samples_per_identity=8, seed=2)).results
    assert all(row["status"] == "pass" for row in rows if row["sample_index"] != index)
    single = _single_row("lemma.theta-simp2", 2, index)
    row = {k: v for k, v in rows[index].items() if k != "elapsed_seconds"}
    # compared as the report writes them, where a nan margin equals itself
    assert json.dumps(row, sort_keys=True) == json.dumps(single, sort_keys=True)
    return batch, single


def test_a_draw_with_a_non_finite_batched_side_runs_on_its_own(monkeypatch):
    _, row = _assert_batched_draw_runs_on_its_own(monkeypatch, 5, {"lhs": complex("nan")})
    assert row["status"] == "pass"


#: finite sides whose |lhs - rhs| or only |rhs| overflows, where Python's abs raises
OVERFLOWS = pytest.mark.parametrize(
    "sides", [("rhs",), ("lhs", "rhs")], ids=["abs-error", "rhs-size"]
)


@OVERFLOWS
def test_a_draw_whose_comparison_overflows_runs_on_its_own(monkeypatch, sides):
    values = dict.fromkeys(sides, 1.5e308 + 1.5e308j)
    batch, row = _assert_batched_draw_runs_on_its_own(monkeypatch, 3, values)
    assert np.isfinite(batch.lhs).all() and np.isfinite(batch.rhs).all()
    assert row["status"] == "pass"


@OVERFLOWS
def test_an_overflowing_comparison_is_an_error_never_a_verdict(monkeypatch, sides):
    # the same sides on the draw's own path too: its row is the error abs raises
    values = dict.fromkeys(sides, 1.5e308 + 1.5e308j)
    batch, row = _assert_batched_draw_runs_on_its_own(monkeypatch, 3, values, alone=True)
    assert np.isfinite(batch.lhs).all() and np.isfinite(batch.rhs).all()
    assert row["status"] == "error"
    assert row["error"] == "OverflowError: absolute value too large"
    with pytest.raises(OverflowError, match="absolute value too large"):
        catalog.run_check("lemma.theta-simp2", 2, 3)


def test_an_infinite_rhs_fails_against_any_lhs(monkeypatch):
    # |lhs - rhs| and the bound tol * max(1, |rhs|) are both inf: no pass,
    # on the draw's own path and in the row the batch leaves to it
    values = {"lhs": 0j, "rhs": complex("inf")}
    batch, row = _assert_batched_draw_runs_on_its_own(monkeypatch, 4, values, alone=True)
    assert np.isinf(abs(complex(batch.lhs[4]) - complex(batch.rhs[4]))) and not batch.passed[4]
    assert row["status"] == "fail"
    result = catalog.run_check("lemma.theta-simp2", 2, 4)
    assert np.isinf(result.abs_error) and result.passed is False


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("identity_id", POINTWISE)
def test_the_array_comparison_is_the_scalar_rule_exactly(identity_id, seed):
    payload = run_suite(RunConfig([identity_id], samples_per_identity=50, seed=seed)).as_dict()
    batch = catalog.run_batch(identity_id, seed, range(50))
    tolerance = payload["checks"][identity_id]["tolerance"]
    for row in payload["results"]:
        lhs, rhs = complex(*row["lhs"]), complex(*row["rhs"])
        abs_error = abs(lhs - rhs)
        # the error the verdict was made on is the one the row's sides rebuild
        index = row["sample_index"]
        assert abs(complex(batch.lhs[index]) - complex(batch.rhs[index])) == abs_error
        bound = tolerance * max(1.0, abs(rhs))
        assert row["margin"] == batch.margin[index] == abs_error / bound
        assert row["status"] == ("pass" if abs_error <= bound else "fail")


#: finite float parts: subnormal (or zero), ordinary and near overflow
PARTS = st.one_of(
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(-1e12, 1e12),
    st.builds(
        lambda sign, size: sign * size,
        st.sampled_from([1.0, -1.0]),
        st.floats(1e300, 1.7976931348623157e308),
    ),
)


@settings(max_examples=500, deadline=None)
@given(re=PARTS, im=PARTS)
def test_hypot_is_the_absolute_value_of_a_complex_bit_for_bit(re, im):
    # against lhs = 0, both |lhs - rhs| and |rhs| are np.hypot of the parts of z
    z = np.array([complex(re, im)])
    abs_error, size, _, _ = catalog._compare(np.zeros(1, complex), z, 1.0)
    try:
        want = abs(complex(re, im))
    except OverflowError:
        want = np.inf
    assert abs_error[0] == size[0] == want


@settings(max_examples=300, deadline=None)
@given(
    parts=st.tuples(PARTS, PARTS, PARTS, PARTS),
    tol=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-16, 1.0), st.floats(1e300, 1e308)),
)
def test_a_finite_margin_is_at_most_one_exactly_on_a_pass(parts, tol):
    # the margin divides by the rounded bound the comparison tests against, and
    # a correctly rounded a / b exceeds 1 whenever a > b > 0
    lhs, rhs = np.array([complex(*parts[:2])]), np.array([complex(*parts[2:])])
    abs_error, _, margin, passed = catalog._compare(lhs, rhs, tol)
    if np.isfinite(abs_error[0]):
        assert bool(margin[0] <= 1.0) == bool(passed[0])
    else:
        assert not passed[0]


def test_batched_report_is_reproducible_and_times_each_share():
    config = RunConfig(POINTWISE, samples_per_identity=7, seed=11)
    first, second = run_suite(config).as_dict(), run_suite(config).as_dict()
    for row in first["results"] + second["results"]:
        assert row.pop("elapsed_seconds") >= 0
    first["summary"].pop("elapsed_seconds")
    second["summary"].pop("elapsed_seconds")
    assert first == second
    assert first["summary"]["passed"] == 7 * len(POINTWISE)


def test_a_passing_row_leaves_its_parameters_to_sample_params():
    # catalog.sample_params(id, config.seed, sample_index) rebuilds them
    payload = run_suite(THREE_DRAWS).as_dict()
    assert payload["schema_version"] == report.SCHEMA_VERSION == "3"
    assert payload["summary"]["all_passed"]
    assert len(payload["results"]) == 3 * len(THREE_DRAWS.identity_ids)
    for row in payload["results"]:
        assert row["status"] == "pass" and "parameters" not in row, row["id"]


def test_a_settled_row_holds_only_what_varies_by_draw():
    # schema 3: no kind, tolerance, decision or errors; lhs and rhs rebuild
    # the error the verdict was made on, and the margin is the comparison's
    payload = run_suite(THREE_DRAWS).as_dict()
    assert payload["schema_version"] == "3"
    batches = {cid: catalog.run_batch(cid, 0, range(3)) for cid in POINTWISE}
    for row in payload["results"]:
        cid, index = row["id"], row["sample_index"]
        if cid in batches:
            assert set(row) == ROW_KEYS, cid
            batch = batches[cid]
            sides = complex(batch.lhs[index]), complex(batch.rhs[index])
            want = abs(sides[0] - sides[1]), batch.margin[index]
        else:
            assert set(row) == ROW_KEYS | {"quadrature_error_estimate"}, cid
            res = catalog.run_check(cid, 0, index)
            assert row["quadrature_error_estimate"] == res.quadrature_error_estimate
            want = res.abs_error, res.margin
        rebuilt = abs(complex(*row["lhs"]) - complex(*row["rhs"]))
        assert (rebuilt, row["margin"]) == want, (cid, index)


def test_the_checks_of_a_report_are_the_manifest_and_its_overrides():
    # derived from the config alone, so a report with no rows has them too
    overrides = {"eval1": 1e-5, "theta-mod": 3}
    config = RunConfig(report.all_check_ids(), tolerance_overrides=overrides)
    summary = {"total": 0, "passed": 0, "failed": 0, "errors": 0, "all_passed": True}
    checks = report.VerificationReport(config, (), summary).as_dict()["checks"]
    manifest = report.list_identities()
    assert list(checks) == [row["id"] for row in manifest]
    for row in manifest:
        want = {"kind": row["kind"]}
        if row["kind"] == "numeric":
            want["tolerance"] = overrides.get(row["id"], row["tolerance"])
            want["decision"] = catalog.DECISION_RULE
        assert checks[row["id"]] == want, row["id"]
    assert isinstance(checks["theta-mod"]["tolerance"], float)


@pytest.mark.parametrize("identity_id", POINTWISE + ["eval1"])
def test_a_failed_row_carries_its_parameters(identity_id):
    # only sides equal to the last bit meet a tolerance of 1e-300: a row
    # whose sides are equal passes and leaves its parameters out, batched or
    # on its own, and every other row fails and carries the parameters
    # sample_params gives it
    overrides = {identity_id: 1e-300}
    config = RunConfig([identity_id], samples_per_identity=20, tolerance_overrides=overrides)
    rows = run_suite(config).results
    entry = catalog.get_entry(identity_id)
    keys = ROW_KEYS | {"parameters"}
    if not entry.array_sides:
        keys.add("quadrature_error_estimate")
    for index, row in enumerate(rows):
        want = report._encode_params(catalog.sample_params(identity_id, 0, index))
        single = report._numeric_result(entry, config, index)
        # Python's complex arithmetic gives lemma.sym-rearrange draw 14 and
        # theta-mod draw 4 equal sides on their own: those rows pass
        for result in (row, single):
            if abs(complex(*result["lhs"]) - complex(*result["rhs"])) == 0:
                assert result["status"] == "pass" and "parameters" not in result, index
            else:
                assert result["status"] == "fail" and result["parameters"] == want, index
        assert set(row) == (keys if row["status"] == "fail" else keys - {"parameters"}), index
