"""Exact-series conjecture checks: root bookkeeping, the six registered
operations, and independent low-order oracles.

The oracles here are deliberately naive re-derivations (explicit loops over
small root sets, hand-expanded leading terms) so a bookkeeping slip in the
main builders cannot hide."""

import hashlib

import pytest

from ellverify import catalog
from ellverify.catalog import UnknownIdentity
from ellverify.conjectures import (
    _LEMMA_SERIES,
    AffineRootLayer,
    aff_eval_closed_form_series,
    aff_eval_conjecture_series,
    denominator_closed_form_series,
    denominator_conjecture_series,
    hall_limit_cases,
    positive_finite_roots,
    run_series_check,
    series_triple_product_check,
)
from ellverify.series import LaurentSeries, SeriesRing


# ---------------------------------------------------------------------------
# root bookkeeping


def test_positive_root_counts():
    for n in (2, 3, 4, 5):
        assert len(positive_finite_roots(n)) == n * (n - 1) // 2


def test_positive_roots_rank_two():
    assert set(positive_finite_roots(3)) == {(1, 0), (0, 1), (1, 1)}


def test_layer_zero_contents():
    layer = AffineRootLayer(3, 0)
    assert len(layer.finite_roots) == 3
    assert layer.imaginary_multiplicity == 0


def test_higher_layer_contents():
    layer = AffineRootLayer(3, 2)
    assert len(layer.finite_roots) == 6
    assert layer.imaginary_multiplicity == 2
    assert (-1, 0) in layer.finite_roots


def test_layer_validation():
    with pytest.raises(ValueError):
        AffineRootLayer(1, 0)
    with pytest.raises(ValueError):
        AffineRootLayer(2, -1)


# ---------------------------------------------------------------------------
# triple product


def test_triple_product_basic():
    assert series_triple_product_check(0, 1, 12)
    assert series_triple_product_check(2, 4, 12)


def test_triple_product_index_edge():
    # |mu| = kappa is allowed and still holds
    assert series_triple_product_check(2, 2, 10)
    assert series_triple_product_check(-1, 3, 9)


def test_triple_product_low_orders():
    assert series_triple_product_check(1, 2, 0)
    assert series_triple_product_check(1, 2, 1)


def test_triple_product_validation():
    with pytest.raises(ValueError):
        series_triple_product_check(3, 2, 8)
    with pytest.raises(ValueError):
        series_triple_product_check(0, 0, 8)


# ---------------------------------------------------------------------------
# graded normalizing product


def test_denominator_trivial_level():
    ring = SeriesRing(("p", "q", "z1"), {"p": 5})
    assert denominator_conjecture_series(2, 1, 4) == ring.one()


def test_denominator_matches_closed_form():
    assert denominator_conjecture_series(2, 2, 6) == denominator_closed_form_series(6)


def test_denominator_constant_slice_rank_one():
    # order-zero slice in the grading variable: prefactor times the bare
    # finite-root factors, expanded by hand for n = 2, level 2
    series = denominator_conjecture_series(2, 2, 3)
    ring = series.ring
    want = ring.term(1, z1=-1) * (ring.one() - ring.term(1, q=2, z1=2))
    assert series.coefficient_of("p", 0) == want


def test_denominator_constant_slice_rank_two():
    # same oracle for n = 3: three positive roots, prefactor z1^-2 z2^-2
    series = denominator_conjecture_series(3, 2, 2)
    ring = series.ring
    want = ring.term(1, z1=-2, z2=-2)
    for exps in ({"z1": 2}, {"z2": 2}, {"z1": 2, "z2": 2}):
        want = want * (ring.one() - ring.term(1, q=2, **exps))
    assert series.coefficient_of("p", 0) == want


def test_denominator_validation():
    with pytest.raises(ValueError):
        denominator_conjecture_series(2, 0, 4)


# ---------------------------------------------------------------------------
# evaluation conjecture


def test_aff_eval_trivial_weight_is_one():
    series = aff_eval_conjecture_series(2, 2, 0, 0, 20)
    assert series.render() == "1"
    assert aff_eval_closed_form_series(0, 0, 20).render() == "1"


def test_aff_eval_leading_term():
    series = aff_eval_conjecture_series(2, 2, 3, 2, 20)
    assert series.min_exponent("r") == -6
    assert series.terms[(-6,)] == 1


def test_aff_eval_degenerate_weights_vanish():
    # weight/level pairs where a factor degenerates: both sides identically 0
    for mu, k in ((2, 0), (3, 0), (3, 1)):
        assert not aff_eval_conjecture_series(2, 2, mu, k, 30).terms
        assert not aff_eval_closed_form_series(mu, k, 30).terms


@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("k", range(4))
def test_aff_eval_matches_theorem(mu, k):
    conjectured = aff_eval_conjecture_series(2, 2, mu, k, 24)
    assert conjectured == aff_eval_closed_form_series(mu, k, 24)


def test_aff_eval_weight_normalization():
    with pytest.raises(ValueError):
        aff_eval_conjecture_series(2, 2, -1, 0, 8)
    with pytest.raises(ValueError):
        aff_eval_conjecture_series(3, 2, 1, 0, 8)  # rank-two weight needed
    assert aff_eval_conjecture_series(2, 2, (1,), 1, 8) == aff_eval_conjecture_series(
        2, 2, 1, 1, 8
    )


# ---------------------------------------------------------------------------
# degenerate-nome limit


@pytest.fixture(scope="module")
def hall_limit_at_order_6():
    return {(case["n"], case["k_mac"]): case for case in hall_limit_cases(6)}


@pytest.mark.parametrize("n,k_mac", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_hall_limit(n, k_mac, hall_limit_at_order_6):
    case = hall_limit_at_order_6[n, k_mac]
    assert case["limit_exact"] and case["substitution_exact"] and case["exact"]


# ---------------------------------------------------------------------------
# series forms of the pointwise rearrangements


@pytest.mark.parametrize(
    "name", ["theta-simp2", "theta-simp3", "theta-simp4", "sym-rearrange"]
)
def test_theta_lemma_series(name):
    assert run_series_check(f"series.{name}", order=6)["exact"]


def test_theta_lemma_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_series_check("series.theta-simp9", order=4)


# SHA-256 of render() of both sides at the benchmark orders.  They were
# recorded with a sparse dict-of-Fraction storage, so they pin the output
# independently of how series are stored.
GOLDEN_DIGESTS = {
    "theta-simp3": "428f5c6bab7ccbecf790b893a27e19d8656b196bf3f050b5d9b0876651c44eb4",
    "theta-simp4": "c890ba676b1861d9f067e4cbc084fd306dfc0db1cdac57831f42ddeb399ae3ac",
    "sym-rearrange": "d0051ce0bca41e32bd485547782934faa1e9e47fbe87be01f734497decb1b00a",
    "aff-eval": "0ee552b474db9163fd24b51b794afdd1d13c4097cfe6a6a11f6794d86e0f98b9",
}


def _sides(name):
    if name == "aff-eval":
        return (
            aff_eval_conjecture_series(2, 2, 1, 2, 40),
            aff_eval_closed_form_series(1, 2, 40),
        )
    return _LEMMA_SERIES[name](8)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_series_render_golden_digest(name):
    for side in _sides(name):
        digest = hashlib.sha256(side.render().encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name]


# ---------------------------------------------------------------------------
# registry


def test_registry_manifest():
    ids = catalog.identity_ids("series")
    assert len(ids) == 8
    assert all(cid.startswith("series.") for cid in ids)
    assert catalog.get_entry("series.aff-eval").default_order == 40
    assert run_series_check("series.triple-product")["order"] == 12


def test_registry_unknown_id():
    # a numeric check is registered, but not as a series check
    for check_id in ("series.bogus", "eval1"):
        with pytest.raises(UnknownIdentity):
            run_series_check(check_id)


def test_no_series_check_inverts_a_dense_series(monkeypatch):
    # every divisor is declared as reciprocal binomial factors instead
    def refuse(self):
        raise AssertionError("dense inversion on the exact series path")

    monkeypatch.setattr(LaurentSeries, "invert", refuse)
    for check_id in catalog.identity_ids("series"):
        assert run_series_check(check_id, order=6)["exact"], check_id


def test_run_series_check_shape():
    out = run_series_check("series.triple-product", order=6)
    assert out["exact"] is True
    assert out["order"] == 6
    assert {case["exact"] for case in out["cases"]} == {True}
    with pytest.raises(ValueError):
        run_series_check("series.triple-product", order=-1)
