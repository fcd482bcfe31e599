"""Structural properties of the integral evaluators: symmetry and
antisymmetry laws, balance/domain guards, and exact zeros of the closed
forms.  Agreement of each integral with its closed form is exercised per
identity through the catalog tests."""

import pytest

from ellverify import catalog, special
from ellverify.kernel import PoleHit


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


# ---------------------------------------------------------------------------
# balanced beta integral


def test_spiridonov_rejects_wrong_parameter_count():
    with pytest.raises(special.BalanceViolation):
        special.spiridonov_lhs([0.2j] * 5, 0.8j, 0.9j)


def test_spiridonov_rejects_unbalanced_parameters():
    s = [0.1 + 0.2j] * 6
    with pytest.raises(special.BalanceViolation):
        special.spiridonov_lhs(s, 0.8j, 0.9j)  # sum(s) != tau + sigma


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spiridonov_rhs_permutation_invariant(seed):
    params = catalog.sample_params("spiridonov", seed, 0)
    s, tau, sigma = params["s"], params["tau"], params["sigma"]
    base = special.spiridonov_rhs(s, tau, sigma)
    shuffled = [s[3], s[0], s[5], s[1], s[4], s[2]]
    assert close(special.spiridonov_rhs(shuffled, tau, sigma), base, 1e-13)
    assert close(special.spiridonov_rhs(s, sigma, tau), base, 1e-13)


# ---------------------------------------------------------------------------
# quarter-shift evaluations


def test_quarter_shift_rhs_modulus_swap():
    tau, sigma = 0.1 + 0.8j, -0.2 + 0.6j
    assert close(special.eval1_rhs(tau, sigma), special.eval1_rhs(sigma, tau), 1e-13)
    assert close(special.eval2_rhs(tau, sigma), special.eval2_rhs(sigma, tau), 1e-13)


def test_quarter_shift_pole_inventory_orientation():
    tau, sigma = 0.1 + 0.8j, 0.2 + 0.7j
    # every pole carries a mandatory side: the path passes above -1/4 and
    # below +1/4, below the upper lattice shells and above the lower ones
    sides = {s.location: s.side for s in special.quarter_shift_poles(tau, sigma, +1)}
    expected = {-0.25: "above", 0.25: "below"}
    for m in (tau, sigma):
        expected.update({-0.25 - m: "above", 0.25 + m: "below", 0.25 - m: "above"})
    assert sides == expected
    mirrored = {s.location: s.side for s in special.quarter_shift_poles(tau, sigma, -1)}
    expected = {0.25: "above", -0.25: "below"}
    for m in (tau, sigma):
        expected.update({0.25 - m: "above", -0.25 + m: "below", -0.25 - m: "above"})
    assert mirrored == expected


# ---------------------------------------------------------------------------
# antisymmetrized one-sided integral


def test_eval3_rhs_antisymmetry_many_draws():
    # the closed form must flip sign with the weight argument; 60 seeded
    # draws across the sampling domain
    for index in range(60):
        params = catalog.sample_params("eval3", 17, index)
        lam, tau, eta = params["lam"], params["tau"], params["eta"]
        plus = special.eval3_rhs(lam, tau, eta)
        minus = special.eval3_rhs(-lam, tau, eta)
        assert abs(plus + minus) <= 1e-10 * max(1.0, abs(plus))


def test_eval3_rhs_exact_zeros():
    tau, eta = 0.1 + 0.55j, 0.07 + 0.4j
    assert special.eval3_rhs(0.0, tau, eta) == 0
    assert special.eval3_rhs(2 * eta, tau, eta) == 0
    assert special.eval3_rhs(-2 * eta, tau, eta) == 0


def test_sym_integral_vanishes_at_origin():
    # the antisymmetrization is exactly zero at lam = 0 by construction
    assert special.I_sym(0.0, 0.1 + 0.55j, 0.07 + 0.4j) == 0


def test_i_tilde_requires_upper_half_moduli():
    with pytest.raises(special.DomainViolation):
        special.I_tilde(0.1, 0.5j, -0.3j)
    with pytest.raises(special.DomainViolation):
        special.I_tilde(0.1, -0.5j, 0.3j)


# ---------------------------------------------------------------------------
# theta-ratio weight


def test_q_factor_is_even():
    mu, sigma, eta = 0.31 + 0.02j, 0.8j, 0.12 + 0.3j
    assert close(special.Q_factor(-mu, sigma, eta), special.Q_factor(mu, sigma, eta), 1e-12)


def test_q_factor_pole_guard():
    sigma, eta = 0.8j, 0.12 + 0.3j
    with pytest.raises(PoleHit):
        special.Q_factor(2 * eta, sigma, eta)
    with pytest.raises(PoleHit):
        special.Q_factor(-2 * eta, sigma, eta)


# ---------------------------------------------------------------------------
# normalized symmetrized function


@pytest.mark.parametrize("mu,kappa", [(3, 4), (1, 4), (0, 3), (4, 6), (3, 8)])
def test_ellmac_index_guard(mu, kappa):
    # mu + 2 congruent to +-1 mod kappa: the normalization is undefined
    with pytest.raises(special.DomainViolation):
        special.ellmac_P(mu, kappa, 0.1, 0.5j, -0.3j)


def test_ellmac_level_guard():
    with pytest.raises(special.DomainViolation):
        special.ellmac_P(1, 3, 0.1, 0.5j, -0.3j)


def test_ellmac_runs_on_valid_point():
    params = catalog.sample_params("ellmac-eval", 0, 0)
    eta = params["eta"]
    value = special.ellmac_P(0, 4, 4 * eta, -8 * eta, eta)
    reference = special.ellmac_eval_rhs(0, 4, eta)
    assert close(value, reference, 1e-8)


# ---------------------------------------------------------------------------
# pole inventories


def test_asym_poles_near_axis_only():
    specs = special.asym_poles(-0.24 + 0.4j, 0.05 + 0.29j)
    assert specs
    for spec in specs:
        assert abs(complex(spec.location).imag) < 1.0


def test_fv_u_poles_structure():
    specs = special.fv_u_poles(0.1 + 0.7j, 0.2 + 0.8j, 0.05 - 0.3j)
    assert specs


def test_fv_u_real_eta_shells_carry_sides():
    tau, sigma = 0.1 + 0.7j, 0.2 + 0.08j
    sides = {s.location: s.side for s in special.fv_u_poles(tau, sigma, 0.125)}
    # above -2 eta and below 2 eta, below the upper shells, above the lower
    expected = {-0.25: "above", 0.25: "below"}
    for m in (tau, sigma):
        expected.update({-0.25 - m: "above", 0.25 + m: "below", 0.25 - m: "above"})
    assert sides == expected
    with pytest.raises(special.DomainViolation):
        special.fv_u(0.5, 0.5, tau, sigma, 0.1)


def test_spiridonov_lhs_reaches_tight_tolerance():
    # a target near the roundoff floor converges within the default budget
    params = catalog.sample_params("spiridonov", 0, 0)
    s, tau, sigma = params["s"], params["tau"], params["sigma"]
    lhs = special.spiridonov_lhs(s, tau, sigma, tol=1e-13)
    assert close(lhs, special.spiridonov_rhs(s, tau, sigma), 1e-12)
