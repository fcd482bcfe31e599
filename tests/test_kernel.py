"""Kernel tests: frozen high-precision reference values plus function-equation
property checks.

Reference values were produced by an independent brute-force evaluation
(mpmath at 40 digits: explicit double loops for the products, the classical
theta_1 series for the Jacobi theta function, a direct bilateral lattice sum
for the level theta)."""

import cmath

import pytest
from hypothesis import assume, given, settings, strategies as st

from ellverify.kernel import (
    NonConvergent,
    PoleHit,
    TruncationPolicy,
    ell_gamma,
    ell_gamma_modular_Q,
    ell_gamma_residue,
    jacobi_theta,
    jacobi_theta_prime0,
    qpoch1,
    qpoch1_add,
    qpoch2,
    theta0,
    theta0_mult,
)
from ellverify.numerics import ExtendedContext


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def level_theta(mu, kappa, lam, tau):
    """Level-kappa theta of characteristic mu from theta0, by the triple product."""
    modulus = 2 * kappa * tau
    prefactor = cmath.exp(1j * cmath.pi * (tau * mu**2 / (2 * kappa) + lam * mu))
    shifted = theta0(0.5 + mu * tau + kappa * tau + kappa * lam, modulus)
    return prefactor * qpoch1_add(modulus, modulus) * shifted


def level_theta_sum(mu, kappa, lam, tau, width=30):
    """The defining lattice sum over n in Z + mu/(2 kappa), |n| <= width."""
    return sum(
        cmath.exp(2j * cmath.pi * kappa * (n * n * tau + n * lam))
        for n in (j + mu / (2 * kappa) for j in range(-width, width + 1))
    )


# ---------------------------------------------------------------------------
# frozen reference values


def test_qpoch1_real():
    assert close(qpoch1(0.5, 0.25), 0.41942244179510759771, 1e-14)


def test_qpoch1_complex():
    got = qpoch1(0.3 + 0.2j, 0.4 - 0.1j)
    assert close(got, 0.53536475960875345031 - 0.18329356136334999801j, 1e-14)


def test_qpoch2_real():
    assert close(qpoch2(0.3, 0.2, 0.1), 0.62140304950936087574, 1e-14)


def test_qpoch2_complex():
    got = qpoch2(0.2 + 0.1j, 0.3, 0.15 + 0.05j)
    assert close(got, 0.69409758044476014914 - 0.15109625292529793005j, 1e-14)


def test_theta0_value():
    got = theta0(0.21 + 0.37j, 0.13 + 0.92j)
    assert close(got, 0.95017508615328136673 - 0.077552759074893282729j, 1e-13)


def test_jacobi_theta_value():
    got = jacobi_theta(0.21 + 0.37j, 0.13 + 0.92j)
    assert close(got, 0.88355908775198819413 + 1.1834073545632234413j, 1e-13)


def test_jacobi_theta_prime0_value():
    got = jacobi_theta_prime0(0.13 + 0.92j)
    assert close(got, 3.0174892618224569344 + 0.28846403300611369621j, 1e-13)


def test_ell_gamma_value():
    got = ell_gamma(0.17 + 0.23j, 0.1 + 0.6j, -0.2 + 0.8j)
    assert close(got, 1.0694348633264238723 + 0.25579878916572785256j, 1e-13)


def test_theta_level_values():
    lam, tau = 0.31 + 0.11j, 0.07 + 0.83j
    ref34 = -0.019685785012094930292 + 0.00088556493793267298693j
    ref01 = 0.99869643094999763746 - 0.0089616110032282384733j
    for level in (level_theta, level_theta_sum):
        assert close(level(3, 4, lam, tau), ref34, 1e-12)
        assert close(level(0, 1, lam, tau), ref01, 1e-12)


def test_extended_context_matches_reference_beyond_double():
    ctx = ExtendedContext(dps=30)
    fine = TruncationPolicy(term_epsilon=1e-28)
    got = qpoch1(ctx.number("0.5"), ctx.number("0.25"), policy=fine, ctx=ctx)
    # reference value carries 20 digits; agreement must beat double precision
    assert abs(got - ctx.number("0.41942244179510759771")) < 1e-19


# ---------------------------------------------------------------------------
# hypothesis strategies: arguments kept in ranges where products converge fast

taus = st.builds(
    complex,
    st.floats(-0.5, 0.5),
    st.floats(0.55, 1.6),
)
small_z = st.builds(
    complex,
    st.floats(-0.45, 0.45),
    st.floats(-0.35, 0.35),
)


@given(u=small_z, q=st.builds(complex, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)))
def test_qpoch1_functional_equation(u, q):
    # (u; q) = (1 - u) (u q; q)
    assert close(qpoch1(u, q), (1 - u) * qpoch1(u * q, q), 1e-12)


@given(u=small_z, q=st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.3, 0.3)),
       r=st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.3, 0.3)))
def test_qpoch2_layer_identity(u, q, r):
    # (u; q, r) = (u; r) (u q; q, r)
    assert close(qpoch2(u, q, r), qpoch1(u, r) * qpoch2(u * q, q, r), 1e-12)


@settings(max_examples=40)
@given(z=small_z, tau=taus)
def test_theta0_quasi_periodicity(z, tau):
    base = theta0(z, tau)
    assert close(theta0(z + 1, tau), base, 1e-10)
    shift = -cmath.exp(-2j * cmath.pi * z) * base
    assert close(theta0(z + tau, tau), shift, 1e-10)
    assert close(theta0(-z, tau), shift, 1e-10)


@settings(max_examples=40)
@given(z=small_z, tau=taus)
def test_jacobi_theta_is_odd(z, tau):
    assert close(jacobi_theta(-z, tau), -jacobi_theta(z, tau), 1e-10)


@settings(max_examples=40)
@given(z=small_z, tau=taus)
def test_jacobi_theta_prime0_finite_difference(z, tau):
    # central difference of jacobi_theta around 0 against the closed form
    h = 1e-5
    fd = (jacobi_theta(h, tau) - jacobi_theta(-h, tau)) / (2 * h)
    assert close(fd, jacobi_theta_prime0(tau), 1e-7)


@settings(max_examples=30)
@given(z=small_z, tau=taus, sigma=taus)
def test_ell_gamma_reflection(z, tau, sigma):
    assume(abs(z) > 0.05)  # z = 0 is a genuine pole
    # reflection through the center of the zero/pole lattice
    prod = ell_gamma(z, tau, sigma) * ell_gamma(tau + sigma - z, tau, sigma)
    assert close(prod, 1.0, 1e-10)


@settings(max_examples=30)
@given(z=small_z, tau=taus, sigma=taus)
def test_ell_gamma_shift(z, tau, sigma):
    assume(abs(z) > 0.05)  # z = 0 is a genuine pole
    # one lattice step in the first parameter inserts a theta0 factor
    lhs = ell_gamma(z + tau, tau, sigma)
    rhs = theta0(z, sigma) * ell_gamma(z, tau, sigma)
    assert close(lhs, rhs, 1e-10)


@settings(max_examples=25)
@given(lam=small_z, tau=taus, mu=st.integers(-3, 6), kappa=st.integers(1, 5))
def test_theta_level_product_matches_series(lam, tau, mu, kappa):
    a = level_theta(mu, kappa, lam, tau)
    b = level_theta_sum(mu, kappa, lam, tau)
    assert close(a, b, 1e-10)


@settings(max_examples=25)
@given(lam=small_z, tau=taus, mu=st.integers(-2, 4), kappa=st.integers(1, 4),
       r=st.integers(-1, 1), s=st.integers(-1, 1))
def test_theta_level_lattice_transform(lam, tau, mu, kappa, r, s):
    base = level_theta(mu, kappa, lam, tau)
    moved = level_theta(mu, kappa, lam + 2 * r + 2 * s * tau, tau)
    factor = cmath.exp(-2j * cmath.pi * kappa * (s * s * tau + s * lam))
    assert close(moved, factor * base, 1e-9)


# ---------------------------------------------------------------------------
# domain validation and failure honesty


def test_qpoch1_rejects_modulus_outside_disk():
    with pytest.raises(NonConvergent):
        qpoch1(0.5, 1.01)


def test_qpoch2_rejects_modulus_outside_disk():
    with pytest.raises(NonConvergent):
        qpoch2(0.5, 1.2, 0.1)


def test_max_terms_cap_is_honest():
    policy = TruncationPolicy(term_epsilon=1e-17, max_terms=5)
    with pytest.raises(NonConvergent):
        qpoch1(0.5, 0.999, policy)


def test_ell_gamma_pole_is_flagged():
    with pytest.raises(PoleHit):
        ell_gamma(0.0, 0.1 + 0.6j, -0.2 + 0.8j)
    with pytest.raises(PoleHit):
        # a descending lattice point: z = -tau - 2 sigma
        ell_gamma(-(0.1 + 0.6j) - 2 * (-0.2 + 0.8j), 0.1 + 0.6j, -0.2 + 0.8j)


def test_theta0_mult_matches_additive():
    z, tau = 0.21 + 0.37j, 0.13 + 0.92j
    u = cmath.exp(2j * cmath.pi * z)
    q = cmath.exp(2j * cmath.pi * tau)
    assert close(theta0_mult(u, q), theta0(z, tau), 1e-12)


def test_qpoch1_add_wraps_exponentials():
    z, tau = 0.2 + 0.3j, 0.1 + 0.9j
    direct = qpoch1(cmath.exp(2j * cmath.pi * z), cmath.exp(2j * cmath.pi * tau))
    assert close(qpoch1_add(z, tau), direct, 1e-14)


def test_modular_Q_is_cubic_polynomial():
    # third finite difference in z must be constant: 6 * leading coefficient
    tau, sigma = 0.2 + 0.7j, -0.1 + 0.5j
    h = 0.25

    def f(z):
        return ell_gamma_modular_Q(z, tau, sigma)

    z0 = 0.1 + 0.05j
    d3 = f(z0 + 3 * h) - 3 * f(z0 + 2 * h) + 3 * f(z0 + h) - f(z0)
    assert close(d3, 6 * h**3 / (3 * tau * sigma), 1e-11)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_ell_gamma_residue_matches_circle_average(k):
    # trapezoid rule on a small circle around the pole converges
    # geometrically, so this pins the residue to machine precision
    tau, sigma = 0.13 + 0.71j, -0.21 + 0.64j
    center = -k * tau
    count, radius = 64, 0.04
    acc = 0j
    for j in range(count):
        w = radius * cmath.exp(2j * cmath.pi * j / count)
        acc += ell_gamma(center + w, tau, sigma) * w
    assert close(acc / count, ell_gamma_residue(tau, sigma, k), 1e-13)


def test_ell_gamma_residue_tower_index_guard():
    with pytest.raises(ValueError):
        ell_gamma_residue(0.5j, 0.6j, k=-1)
