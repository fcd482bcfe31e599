"""Batched pointwise draws: ``run_suite`` samples all draws of a check with
array sides at once and evaluates them in one call of each side, and every
draw must come out as ``run_check`` gives it on its own.  The batch's
uniforms are ``rng_for``'s streams bit for bit.  A draw the batch cannot
settle (a raise, a side that is not finite, a failed sampling) runs on its
own and gets the per-draw result or error, while its companions are
unaffected."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellverify import catalog, report
from ellverify.report import RunConfig, run_suite

POINTWISE = [cid for cid in catalog.identity_ids("numeric") if catalog.get_entry(cid).array_sides]

#: fields a batched row shares exactly with the row of the per-draw path
EXACT_FIELDS = ("id", "kind", "sample_index", "parameters", "tolerance", "decision", "status")


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
    rows = run_suite(RunConfig([identity_id], samples_per_identity=50, seed=seed)).results
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
    keys = catalog._philox_keys(np.array(rows, np.uint32))
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


@pytest.mark.parametrize("size", [1, 2, 20, 3000])
@pytest.mark.parametrize("identity_id", POINTWISE)
def test_batched_parameters_do_not_depend_on_the_batch_size(identity_id, size):
    indices = range(max(size, 20))
    results = [
        res
        for start in range(0, len(indices), size)
        for res in catalog.run_batch(identity_id, 0, indices[start : start + size])
    ]
    for index in range(20):
        want = catalog.sample_params(identity_id, 0, index)
        assert repr(results[index].parameters) == repr(want), index


def test_run_batch_returns_a_result_per_index():
    results = catalog.run_batch("lemma.theta-simp2", 3, [4, 0, 9])
    assert [res.sample_index for res in results] == [4, 0, 9]
    assert all(res.passed and res.quadrature_error_estimate is None for res in results)
    with pytest.raises(ValueError, match="array sides"):
        catalog.run_batch("eval1", 0, [0])


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
    assert catalog.run_batch("lemma.theta-simp", 5, range(10)) == [None] * 10
    rows = _assert_draw_isolated("lemma.theta-simp", 5, 6)
    assert rows[6]["error"] == (
        "NoAdmissiblePoint: sampler failed to find an admissible point in 500 tries"
    )


def test_a_draw_with_a_non_finite_batched_side_runs_on_its_own(monkeypatch):
    entry = catalog.get_entry("lemma.theta-simp2")

    def lhs(params):
        value = entry.lhs(params)
        if isinstance(params["z"], np.ndarray):
            value = value.copy()
            value[5] = complex("nan")  # only the batch sees this
        return value

    _patched(monkeypatch, "lemma.theta-simp2", lhs=lhs)
    settled = catalog.run_batch("lemma.theta-simp2", 2, range(8))
    assert [res is None for res in settled] == [index == 5 for index in range(8)]
    rows = run_suite(RunConfig(["lemma.theta-simp2"], samples_per_identity=8, seed=2)).results
    assert all(row["status"] == "pass" for row in rows)
    single = _single_row("lemma.theta-simp2", 2, 5)
    assert {k: v for k, v in rows[5].items() if k != "elapsed_seconds"} == single


def test_batched_report_is_reproducible_and_times_each_share():
    config = RunConfig(POINTWISE, samples_per_identity=7, seed=11)
    first, second = run_suite(config).as_dict(), run_suite(config).as_dict()
    for row in first["results"] + second["results"]:
        assert row.pop("elapsed_seconds") >= 0
    first["summary"].pop("elapsed_seconds")
    second["summary"].pop("elapsed_seconds")
    assert first == second
    assert first["summary"]["passed"] == 7 * len(POINTWISE)
