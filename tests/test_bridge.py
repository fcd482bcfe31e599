"""Bridge tests: coordinate conversion, parameter validation, the
normalizing function, and agreement of the assembled numeric pipeline with
the closed-form evaluation."""

import cmath

import pytest

from ellverify.bridge import (
    AffineParams,
    convert_conventions,
    eval_conj_rhs,
    f22,
    J_mu_k2,
)
from ellverify.catalog import run_check
from ellverify.special import DomainViolation


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
# the normalizing function


def test_f22_deep_grading_expansion():
    # deep grading: the normalizing function is 1 + p*(q**4 - q**2) + O(p**2)
    # in the grading variable p
    q, omega = 1.3, 40.0
    p = q ** (-2 * omega)
    leading = p * (q**4 - q**2)
    assert abs((f22(q, omega) - 1.0) - leading) <= 1e-3 * abs(leading)


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
