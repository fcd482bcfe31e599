"""Exact-series conjecture checks: root bookkeeping, the six registered
operations, and independent low-order oracles.

The oracles here are deliberately naive re-derivations (explicit loops over
small root sets, hand-expanded leading terms) so a bookkeeping slip in the
main builders cannot hide."""

import cmath
import hashlib
import itertools
import math

import pytest
from helpers import reference_aff_eval_conjecture_series, render

from ellverify import catalog, conjectures, kernel, lemmas, series
from ellverify.catalog import UnknownIdentity
from ellverify.conjectures import (
    _LEMMA_SERIES,
    _pair,
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
    assert render(series) == "1"
    assert render(aff_eval_closed_form_series(0, 0, 20)) == "1"


def test_aff_eval_leading_term():
    series = aff_eval_conjecture_series(2, 2, 3, 2, 20)
    assert series.lo == (-6,)
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


def _weights(n, level):
    """The dominant weights of rank ``n - 1`` whose coordinates sum to at most ``level``."""
    return [mu for mu in itertools.product(range(level + 1), repeat=n - 1) if sum(mu) <= level]


AFF_EVAL_REFERENCE_CASES = [
    (n, k_mac, mu, k, 40 if (n, k_mac) == (2, 2) else 8)
    for n, k_mac in ((2, 2), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1))
    for k in range(3)
    for mu in _weights(n, k)
] + [
    (2, 2, (2,), 0, 12),  # a first-layer numerator 1 - r**0: the series is 0
    (2, 1, (3,), 1, 12),  # a first-layer numerator 1 - r**-2
    (3, 1, (2, 1), 0, 8),  # both, at rank two
]


@pytest.mark.parametrize("n, k_mac, mu, k, order", AFF_EVAL_REFERENCE_CASES)
def test_aff_eval_layers_as_progressions_match_the_layer_loop(n, k_mac, mu, k, order):
    # one progression in m per (root, i) declares the binomials the loop over
    # m declares one at a time, in another order
    got = aff_eval_conjecture_series(n, k_mac, mu, k, order)
    assert got == reference_aff_eval_conjecture_series(n, k_mac, mu, k, order)


def test_aff_eval_reference_cases_reach_a_zero_factor_and_a_negative_exponent():
    def first_layer_low(n, k_mac, mu, k):
        # the numerator exponent (halved) of a negative root at m = 1, i = 0
        roots = positive_finite_roots(n)
        return min(k + k_mac * (n - sum(root)) - _pair(root, mu) for root in roots)

    lows = {case[:4]: first_layer_low(*case[:4]) for case in AFF_EVAL_REFERENCE_CASES}
    assert lows[(2, 2, (2,), 0)] == 0
    assert not aff_eval_conjecture_series(2, 2, (2,), 0, 12).terms
    assert lows[(2, 1, (3,), 1)] < 0
    assert aff_eval_conjecture_series(2, 1, (3,), 1, 12).terms
    assert lows[(3, 1, (2, 1), 0)] < 0
    assert not aff_eval_conjecture_series(3, 1, (2, 1), 0, 8).terms
    assert all(low > 0 for case, low in lows.items() if sum(case[2]) <= case[3])


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


@pytest.mark.parametrize("order", [8, 16])
def test_theta_simp2_series_states_the_numeric_lemma(order):
    # both sides of the series form, summed at a = e(z) and v = e(sigma) for
    # seed-0 draws of the numeric check, are its sides times theta0(1/2; sigma),
    # the divisor the series form clears; the series stops below v^(order+1)
    side1, side2 = _LEMMA_SERIES["theta-simp2"](order)
    for index in range(5):
        p = catalog.sample_params("lemma.theta-simp2", 0, index)
        a, v = (cmath.exp(2j * cmath.pi * p[name]) for name in ("z", "sigma"))
        divisor = kernel.theta0(0.5, p["sigma"])
        tol = 1e-14 + 1e4 * abs(v) ** (order + 1)
        for side, numeric in ((side1, lemmas.theta_simp2_lhs), (side2, lemmas.theta_simp2_rhs)):
            value = sum(c * a**i * v**j for (i, j), c in side.terms.items()) / divisor
            want = numeric(p["z"], p["sigma"])
            assert abs(value - want) <= tol * abs(want), (index, order)


@pytest.mark.parametrize("order", [12, 16])
def test_theta_simp3_series_states_the_numeric_lemma(order):
    # both sides of the series form, summed at a = e(t), b = e^{pi i lam} and
    # u = e(tau) for seed-0 draws of the numeric check, are its sides times
    # theta0(1/2; 2 tau)^2 theta0(tau + 1/2; 2 tau) theta0(tau; 2 tau), the
    # divisor the series form clears; the series stops below u^(order+1),
    # and at these draws its tail reaches 4e4 |u|^(order+1)
    side1, side2 = _LEMMA_SERIES["theta-simp3"](order)
    for index in range(5):
        p = catalog.sample_params("lemma.theta-simp3", 0, index)
        t, lam, tau = p["t"], p["lam"], p["tau"]
        a, b, u = (cmath.exp(2j * cmath.pi * x) for x in (t, lam / 2, tau))
        divisor = (
            kernel.theta0(0.5, 2 * tau) ** 2
            * kernel.theta0(tau + 0.5, 2 * tau)
            * kernel.theta0(tau, 2 * tau)
        )
        tol = 1e-13 + 1e6 * abs(u) ** (order + 1)
        for side, numeric in ((side1, lemmas.theta_simp3_lhs), (side2, lemmas.theta_simp3_rhs)):
            value = sum(c * a**i * b**j * u**k for (i, j, k), c in side.terms.items()) / divisor
            want = numeric(t, lam, tau)
            assert abs(value - want) <= tol * abs(want), (index, order)


@pytest.mark.parametrize("order", [12, 16])
def test_sym_rearrange_series_states_the_numeric_lemma(order):
    # both sides of the series form, summed at x = e(t), u = e(tau) and
    # w = e(eta) for seed-0 draws of the numeric check, are its sides times
    # (x/w^2; u, w^8)^2 (1/(x w^2); u, w^8) (u w^6/x; u, w^8)
    # theta0(t + 2 eta; tau) theta0(t + 2 eta; 8 eta), the divisor the series
    # form clears.  The series stops below u^(order+1) and w^(order+1); its
    # factor 1 - x w^2 is the largest per power of w, so the tail shrinks
    # like rho^(order+1), rho = max(|u|, |w| sqrt|x|), and at these draws it
    # reaches 1e3 rho^(order+1)
    side1, side2 = _LEMMA_SERIES["sym-rearrange"](order)
    for index in range(5):
        p = catalog.sample_params("lemma.sym-rearrange", 0, index)
        t, tau, eta = p["t"], p["tau"], p["eta"]
        x, u, w = (cmath.exp(2j * cmath.pi * v) for v in (t, tau, eta))
        w8 = w**8
        divisor = (
            kernel.qpoch2(x / w**2, u, w8) ** 2
            * kernel.qpoch2(1 / (x * w**2), u, w8)
            * kernel.qpoch2(u * w**6 / x, u, w8)
            * kernel.theta0(t + 2 * eta, tau)
            * kernel.theta0(t + 2 * eta, 8 * eta)
        )
        rho = max(abs(u), abs(w) * abs(x) ** 0.5)
        tol = 1e-13 + 1e4 * rho ** (order + 1)
        for side, numeric in ((side1, lemmas.sym_rearrange_lhs), (side2, lemmas.sym_rearrange_rhs)):
            value = sum(c * x**i * u**j * w**k for (i, j, k), c in side.terms.items()) / divisor
            want = numeric(t, tau, eta)
            assert abs(value - want) <= tol * abs(want), (index, order)


#: the twelve doubled-period arguments of theta-simp4's series form, as
#: (coefficient, u-exponent, w-exponent)
SIMP4_DOUBLED_ARGS = [
    (1, 1, -4), (-1, 0, 6), (1, 0, -2), (-1, 0, 2), (1, 1, -2), (1, 1, -2),
    (1, 2, -2), (-1, 0, 8), (1, 0, 12), (-1, 1, 8), (-1, 0, 4), (1, 1, 0),
]


@pytest.mark.parametrize("order, tol", [(28, 3e-7), (40, 7e-13)])
def test_theta_simp4_series_states_the_numeric_lemma(order, tol):
    # both sides of the series form, summed at u = e(tau) and w = e(eta) for
    # seed-0 draws of the numeric check, are its sides times
    # (u^2; u^2)(w^8; w^8) prod_a (a; u^2, w^8) (w^6; u, w^8)(u w^6; u, w^8)
    # (u; u) theta0(tau + 4 eta; tau) (w^4; w^4)(-w^2; w^2), the divisor the
    # series form clears.  At u^a the series reaches about w^-(a + 4), so the
    # terms past the u cap shrink with |u| over a power of |w|, not with |u|:
    # draw 3 (|u| / |w| = 0.88) is the slowest, 2.6e-7 at order 28 and
    # 6.1e-13 at order 40, the other draws at most 5.4e-15
    side1, side2 = _LEMMA_SERIES["theta-simp4"](order)
    qpoch1, qpoch2 = kernel.qpoch1, kernel.qpoch2
    for index in range(5):
        p = catalog.sample_params("lemma.theta-simp4", 0, index)
        tau, eta = p["tau"], p["eta"]
        u, w = (cmath.exp(2j * cmath.pi * x) for x in (tau, eta))
        divisor = (
            qpoch1(u**2, u**2)
            * qpoch1(w**8, w**8)
            * math.prod(qpoch2(c * u**i * w**j, u**2, w**8) for c, i, j in SIMP4_DOUBLED_ARGS)
            * qpoch2(w**6, u, w**8)
            * qpoch2(u * w**6, u, w**8)
            * qpoch1(u, u)
            * kernel.theta0(tau + 4 * eta, tau)
            * qpoch1(w**4, w**4)
            * qpoch1(-(w**2), w**2)
        )
        for side, numeric in ((side1, lemmas.theta_simp4_lhs), (side2, lemmas.theta_simp4_rhs)):
            value = sum(c * u**i * w**j for (i, j), c in side.terms.items()) / divisor
            want = numeric(tau, eta)
            assert abs(value - want) <= tol * abs(want), (index, order)


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
        digest = hashlib.sha256(render(side).encode()).hexdigest()
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


def test_series_products_never_fall_back_to_dense_multiplies(monkeypatch):
    # every factor list the checks multiply is pairs and monomials, so no
    # product seeds its box with a dense series or steps through one; a side
    # declared with dense factors would count its series here
    dense = []
    records = []  # dense series per factor-list product
    init, times = series._Box.__init__, series._Box.times

    def seeded(self, ring, seed=None):
        if seed is not None:
            dense.append(seed)
        init(self, ring, seed)

    def stepped(self, factor, *args):
        if isinstance(factor, LaurentSeries):
            dense.append(factor)
        return times(self, factor, *args)

    def watched(product):
        def counted(*args):
            before = len(dense)
            out = product(*args)
            records.append(len(dense) - before)
            return out

        return counted

    monkeypatch.setattr(series._Box, "__init__", seeded)
    monkeypatch.setattr(series._Box, "times", stepped)
    for name in ("truncated_product", "stabilized_product", "series_theta0"):
        monkeypatch.setattr(conjectures, name, watched(getattr(conjectures, name)))
    for check_id in catalog.identity_ids("series"):
        assert run_series_check(check_id, order=6)["exact"], check_id
    assert len(records) == 78
    assert sum(records) == 0
