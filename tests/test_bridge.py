"""Bridge tests: coordinate conversion, parameter validation, agreement of
the assembled numeric pipeline with the closed-form evaluation, the declared
products (the double product block's gamma form among them) against the
products multiplied by hand, and the pipeline at and next to a theta zero."""

import cmath

import pytest

from ellverify.bridge import (
    AffineParams,
    convert_conventions,
    eval_conj_rhs,
    J_mu_k2,
)
from ellverify import catalog, special
from ellverify.catalog import COMPOUND_TOLERANCE, run_check
from ellverify.special import DomainViolation
from helpers import (
    reference_eval_conj_rhs,
    reference_J_mu_k2_blocks,
    reference_mixed_block,
    reference_single_blocks,
)


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


# ---------------------------------------------------------------------------
# coordinate conversion


def test_convert_round_trip():
    q = 1.5 + 0.2j
    coords = convert_conventions(q, 0.7, 4.5)
    assert close(cmath.exp(2j * cmath.pi * coords.eta), q, 1e-14)


def test_convert_half_plane_and_scalings():
    # |q| > 1 must land the additive base in the lower half plane, with the
    # modulus and weight arguments scaled by the same factor
    for q in (1.2, 2.0 + 0.3j, 1.01):
        coords = convert_conventions(q, 0.7, 4.5)
        assert coords.eta.imag < 0
        assert close(coords.tau, -2 * coords.eta * 4.5, 1e-14)
        assert close(coords.lam, 2 * coords.eta * 0.7, 1e-14)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_accept_valid_point():
    params = AffineParams(1, 2, 1.3 + 0j, 0.5 + 0j, 4.0 + 0j)
    assert params.kappa == 6


def test_params_reject_small_base():
    with pytest.raises(DomainViolation):
        AffineParams(0, 0, 0.9 + 0j, 0.0j, 4.0 + 0j)
    with pytest.raises(DomainViolation):
        AffineParams(0, 0, cmath.exp(0.3j), 0.0j, 4.0 + 0j)


def test_params_reject_shallow_grading():
    # omega too small: the grading variable is not inside the required disc
    with pytest.raises(DomainViolation):
        AffineParams(0, 0, 1.3 + 0j, 0.0j, 1.0 + 0j)
    AffineParams(0, 0, 1.3 + 0j, 0.0j, 3.2 + 0j)  # just inside


def test_params_reject_bad_weight_or_level():
    with pytest.raises(DomainViolation):
        AffineParams(-1, 0, 1.3 + 0j, 0.0j, 4.0 + 0j)
    with pytest.raises(DomainViolation):
        AffineParams(0, -2, 1.3 + 0j, 0.0j, 4.0 + 0j)
    with pytest.raises(DomainViolation):
        AffineParams(1.5, 0, 1.3 + 0j, 0.0j, 4.0 + 0j)


# ---------------------------------------------------------------------------
# assembled pipeline


def test_trivial_weight_normalizes_to_one():
    value = J_mu_k2(0, 0, 1.2, 0.6, 4.5)
    assert close(value, 1.0, 1e-8)


def test_pipeline_matches_closed_form():
    res = run_check("aff-eval", params={"mu": 1, "k": 1, "q": 1.25})
    assert close(res.lhs_value, res.rhs_value, 1e-6)


def test_pipeline_degenerate_weight_vanishes():
    res = run_check("aff-eval", params={"mu": 2, "k": 0, "q": 1.25})
    assert res.rhs_value == 0
    assert abs(res.lhs_value) <= 1e-6


def test_closed_form_trivial_weight():
    assert close(eval_conj_rhs(0, 0, 1.3), 1.0, 1e-12)


# ---------------------------------------------------------------------------
# the declared products against the products multiplied by hand


def _bridge_points():
    """``(mu, k, q, lam, omega)`` of the seed 0-3 draws of aff-eval and
    bridge-unity, and of one complex ``q``."""
    points = [(1, 1, 1.3 + 0.2j, 0.7, 4.5)]
    for cid in ("aff-eval", "bridge-unity"):
        for seed in range(4):
            for index in range(catalog.get_entry(cid).default_samples):
                p = catalog.sample_params(cid, seed, index)
                point = p.get("mu", 0), p.get("k", 0), p["q"], p.get("lam", 2.0), p.get("omega", 4.0)
                points.append(point)
    return points


def test_declared_products_match_the_hand_multiplied_ones(monkeypatch):
    # with ellmac_P read as 1, J_mu_k2 is its product blocks; an exact 0, as
    # eval_conj_rhs's at (mu, k) = (2, 0), must stay one
    monkeypatch.setattr(special, "ellmac_P", lambda *args: 1)
    for mu, k, q, lam, omega in _bridge_points():
        want = reference_J_mu_k2_blocks(mu, k, q, omega)
        assert abs(J_mu_k2(mu, k, q, lam, omega) - want) <= 1e-13 * abs(want), (mu, k, q)
        want = reference_eval_conj_rhs(mu, k, q)
        assert abs(eval_conj_rhs(mu, k, q) - want) <= 1e-13 * abs(want), (mu, k, q)


@pytest.mark.parametrize("kappa", [4, 5, 6, 8])
def test_mixed_block_is_its_gamma_form(monkeypatch, kappa):
    # ((p q^2; p, Q) / (p q^-2; p, Q))^2 is declared as Gamma(p q^-2; p, Q)^2
    # (q^2; p)^2 / (q^2; Q)^2: J_mu_k2 over its single-product blocks, with
    # ellmac_P read as 1, is the double product's ratio
    monkeypatch.setattr(special, "ellmac_P", lambda *args: 1)
    k = kappa - 4
    for q in (1.15, 1.3, 1.5, 1.3 + 0.2j):
        for omega in (3.3, 4.4, 5.5):
            got = J_mu_k2(1, k, q, 0.5, omega) / reference_single_blocks(1, k, q, omega)
            want = reference_mixed_block(k, q, omega)
            assert abs(got - want) <= 1e-13 * abs(want), (q, omega)


@pytest.mark.parametrize("lam", [1.0] + [1 + s * 10.0**-n for n in range(1, 7) for s in (1, -1)])
def test_bridge_unity_holds_at_and_next_to_a_theta_zero(lam):
    # lam = 1 is the additive 2 eta, a zero of ellmac_P's denominator that
    # its numerator shares: the quotient is analytic there
    result = run_check("bridge-unity", params={"q": 1.240, "lam": lam, "omega": 5.359})
    assert result.tolerance == COMPOUND_TOLERANCE
    assert result.passed, result.abs_error


@pytest.mark.parametrize("lam", [0.9, 0.95, 0.974, 1.03])
def test_bridge_unity_is_exact_next_to_the_circle(lam):
    # outside the circle rule but near the zero at lam = 1: the quadrature
    # stops on the quotient, so the small denominator does not amplify its error
    result = run_check("bridge-unity", params={"q": 1.240, "lam": lam, "omega": 5.359})
    assert result.abs_error <= 1e-11
