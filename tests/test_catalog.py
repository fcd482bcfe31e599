"""Catalog tests: manifest integrity, reproducible sampling, the decision
rule, the achieved quadrature error, and the mandatory pre-integration pole
audit."""

import dataclasses
import inspect
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from ellverify import catalog, contour, special
from ellverify.catalog import (
    COMPOUND_TOLERANCE,
    DECISION_RULE,
    DEFAULT_TOLERANCE,
    IdentityResult,
    PoleOnPath,
    UnknownIdentity,
    fnv1a64,
    get_entry,
    identity_ids,
    rng_for,
    run_check,
    sample_params,
)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_is_sorted_and_complete():
    ids = identity_ids()
    assert list(ids) == sorted(ids)
    assert len(ids) == 32
    assert len(identity_ids("numeric")) == 24
    for required in ("spiridonov", "eval3", "ellmac-eval", "bridge-unity"):
        assert required in ids


def test_entries_are_well_formed():
    for identity_id in identity_ids("numeric"):
        entry = get_entry(identity_id)
        assert entry.id == identity_id
        assert entry.ref and entry.domain
        assert entry.tolerance in (DEFAULT_TOLERANCE, COMPOUND_TOLERANCE)
        assert entry.default_samples >= 1


def test_every_entry_has_one_known_kind():
    numeric, series = identity_ids("numeric"), identity_ids("series")
    assert sorted(numeric + series) == list(identity_ids())
    assert len(series) == 8 and all(cid.startswith("series.") for cid in series)
    for identity_id in numeric:
        entry = get_entry(identity_id)
        assert entry.kind == "numeric"
        assert None not in (entry.lhs, entry.rhs, entry.sampler, entry.tolerance)
        assert entry.runner is None and entry.default_order is None
    for identity_id in series:
        entry = get_entry(identity_id)
        assert entry.kind == "series"
        assert entry.runner is not None and entry.default_order >= 0
        assert {entry.lhs, entry.rhs, entry.sampler, entry.tolerance} == {None}


def test_register_rejects_duplicate_id():
    for identity_id in ("eval1", "series.aff-eval"):
        with pytest.raises(ValueError, match="duplicate"):
            catalog._register(get_entry(identity_id))
    assert len(identity_ids()) == 32


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        get_entry("nope")
    for identity_id in ("nope", "series.triple-product"):
        with pytest.raises(UnknownIdentity):
            run_check(identity_id)
        with pytest.raises(UnknownIdentity):
            sample_params(identity_id, 0, 0)


# ---------------------------------------------------------------------------
# seeded sampling


def test_fnv1a64_frozen_values():
    # published FNV-1a reference constants (offset basis, and hash of "a")
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_sampling_draws_are_pinned():
    # draws recorded before the id hash was cached: caching must not move them
    assert sample_params("ellgam-mod", 0, 5) == {
        "z": -0.27213111693966613 + 0.2817932493489106j,
        "tau": 0.5397672267104792 + 0.9641282734867863j,
        "sigma": 0.7891169370443969 + 0.6111206236403585j,
    }
    assert sample_params("lemma.theta-simp4", 12345, 2) == {
        "t": 0.32516217666620195 + 0.2374742167220012j,
        "tau": -0.11765286574965272 + 0.834726463862159j,
        "eta": 0.021289557709679996 + 0.21213724757486074j,
    }
    assert sample_params("eval1", 7, 3) == {
        "tau": -0.1764218731438647 + 0.8549764929053147j,
        "sigma": 0.023845495705355768 + 0.7365334913870903j,
    }


#: sample_params(id, seed, index) of every numeric check, as repr strings,
#: recorded when each sampler still drew its uniforms one rng.uniform at a time
PINNED_SAMPLES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pinned_sample_params.json").read_text()
)


@pytest.mark.parametrize("identity_id", identity_ids("numeric"))
def test_sample_params_are_pinned_bit_for_bit(identity_id):
    # one rng.random(k) vector scaled as lo + (hi - lo) * u must give exactly
    # the doubles of k rng.uniform(lo, hi) calls, types included
    for seed in (0, 7, 2**33):
        for index in (0, 1, 49):
            key = f"{identity_id} {seed} {index}"
            assert repr(sample_params(identity_id, seed, index)) == PINNED_SAMPLES[key], key


def test_pinned_samples_cover_every_numeric_check():
    assert {key.split()[0] for key in PINNED_SAMPLES} == set(identity_ids("numeric"))


def test_id_is_hashed_once_per_check():
    fnv1a64.cache_clear()
    for index in range(5):
        sample_params("theta-mod", 3, index)
    assert fnv1a64.cache_info().misses == 1


def test_sampling_is_reproducible():
    for identity_id in ("eval1", "spiridonov", "theta-mod"):
        a = sample_params(identity_id, 7, 3)
        b = sample_params(identity_id, 7, 3)
        assert a == b


def test_sampling_streams_are_keyed():
    # different identity, seed, or index each give a different draw
    base = sample_params("eval1", 7, 3)
    assert sample_params("eval2", 7, 3) != base
    assert sample_params("eval1", 8, 3) != base
    assert sample_params("eval1", 7, 4) != base


def test_rng_for_is_stable():
    draws = rng_for(1, "eval1", 0).uniform(size=3)
    again = rng_for(1, "eval1", 0).uniform(size=3)
    assert list(draws) == list(again)


def test_a_rejection_sampler_that_finds_nothing_names_its_failure():
    with pytest.raises(catalog.NoAdmissiblePoint) as caught:
        catalog._reject(lambda: {}, lambda params: False, tries=3)
    # a RuntimeError still, so error rows read as before, with the tries counted
    assert isinstance(caught.value, RuntimeError)
    assert str(caught.value) == "sampler failed to find an admissible point in 3 tries"


# ---------------------------------------------------------------------------
# running checks


def test_run_check_result_shape():
    res = run_check("lemma.theta-simp", seed=5, sample_index=1)
    assert isinstance(res, IdentityResult)
    assert res.identity_id == "lemma.theta-simp"
    assert res.sample_index == 1
    assert res.decision == DECISION_RULE
    assert res.passed
    assert res.abs_error <= res.tolerance * max(1.0, abs(res.rhs_value))
    # pointwise identity: no quadrature, hence no audited error estimate
    assert res.quadrature_error_estimate is None


def test_run_check_is_deterministic():
    a = run_check("theta-mod", seed=11, sample_index=2)
    b = run_check("theta-mod", seed=11, sample_index=2)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_integral_identity_reports_quadrature_bound():
    res = run_check("eval1", seed=3, sample_index=0)
    assert res.passed
    assert res.quadrature_error_estimate is not None
    assert 0 < res.quadrature_error_estimate < res.tolerance


def test_explicit_params_are_honored():
    params = {"tau": 0.1 + 0.8j, "sigma": -0.2 + 0.9j}
    res = run_check("eval1", params=params)
    assert res.parameters == params
    assert res.passed


def test_tolerance_override():
    res = run_check("lemma.theta-simp", seed=5, tolerance=1e-30)
    assert res.tolerance == 1e-30
    assert not res.passed  # nothing is identically zero in floating point


def test_pole_audit_rejects_bad_path():
    # a modulus nearly on the real axis parks a gamma-tower pole on the path
    with pytest.raises(PoleOnPath):
        run_check("eval1", params={"tau": -0.25 + 0.01j, "sigma": 0.5j})


@pytest.mark.parametrize("identity_id", catalog.identity_ids("numeric"))
def test_every_identity_passes_one_draw(identity_id):
    res = run_check(identity_id, seed=2026, sample_index=0)
    assert res.passed, f"{identity_id}: abs_error={res.abs_error:.3e}"


#: checks whose draws run at least one quadrature
INTEGRATING_IDS = (
    "aff-eval",
    "bridge-unity",
    "ellmac-eval",
    "ellmac-val",
    "eval1",
    "eval2",
    "eval3",
    "fv-val1",
    "fv-val2",
    "htf-series",
    "lemma.int-eval1",
    "lemma.int-eval2",
    "lemma.int-rearrange",
    "mod-minus",
    "mod-plus",
    "spiridonov",
)


@pytest.mark.parametrize("identity_id", INTEGRATING_IDS)
def test_integrands_are_periodic_and_every_quadrature_is_audited(identity_id, monkeypatch):
    # the trapezoid rule needs f(t + 1) = f(t); capture every integrand and
    # its clearance, and every audit's clearance, wherever a module holds the
    # contour functions by name
    captured, audits, order = [], [], []
    integrate, pole_audit = contour.integrate, contour.pole_audit
    signature = inspect.signature(integrate)

    def recording_integrate(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        captured.append((bound["f"], bound["path"]))
        order.append(("integrate", bound["clearance"]))
        return integrate(*args, **kwargs)

    def recording_audit(*args, **kwargs):
        report = pole_audit(*args, **kwargs)
        audits.append(args)
        # no pole is nearer the real t axis than the clearance
        assert report.clearance <= min((e.distance for e in report.entries), default=math.inf)
        order.append(("audit", report.clearance))
        return report

    for name, module in list(sys.modules.items()):
        if name.startswith("ellverify.") and name != "ellverify.contour":
            for attr, value in list(vars(module).items()):
                if value is integrate:
                    monkeypatch.setattr(module, attr, recording_integrate)
                elif value is pole_audit:
                    monkeypatch.setattr(module, attr, recording_audit)

    res = run_check(identity_id, seed=0, sample_index=0)
    assert res.passed
    assert captured and len(audits) == len(captured)
    # each quadrature follows its audit and takes that audit's clearance
    assert [kind for kind, _ in order] == ["audit", "integrate"] * len(captured)
    for (_, distance), (_, clearance) in zip(order[::2], order[1::2]):
        assert clearance == distance
    assert 0 <= res.quadrature_error_estimate < 1e-9
    for f, path in captured:
        for t in (0.13, 0.37, 0.71):
            z = path.point(t)
            value = complex(f(z))
            assert abs(complex(f(z + 1)) - value) <= 1e-12 * abs(value)


@pytest.mark.parametrize("identity_id", INTEGRATING_IDS)
def test_no_quadrature_reports_less_than_its_rounding(identity_id, monkeypatch):
    # the reported error is at least the rounding of the sums, 8 eps times
    # the mean |f z'| of the first batch, where the predicted error of a
    # quadrature whose last difference sits at that rounding is far smaller
    integrate = contour.integrate
    reported = []

    def recording(f, path, *args, **kwargs):
        first = []

        def batch(z):
            values = f(z)
            if not first:
                first.append(float(np.mean(np.abs(values * path.velocity(z.real)))))
            return values

        result = integrate(batch, path, *args, **kwargs)
        reported.append((result.error, 8 * np.finfo(float).eps * first[0]))
        return result

    monkeypatch.setattr(special, "integrate", recording)
    for index in range(3):
        run_check(identity_id, seed=0, sample_index=index)
    assert reported
    assert all(error >= rounding for error, rounding in reported)


@pytest.mark.parametrize(
    "identity_id,seed",
    [("mod-minus", 106954761), ("mod-plus", 7340124), ("htf-series", 104857606)],
)
def test_formerly_failing_draws_pass(identity_id, seed):
    # the mod-* draws have a second modulus with Im ~ 0.085, below the old
    # fixed 0.1 detour; the htf-series draw sits next to its convergence edge
    res = run_check(identity_id, seed=seed, sample_index=0)
    assert res.passed, f"{identity_id}: abs_error={res.abs_error:.3e}"
