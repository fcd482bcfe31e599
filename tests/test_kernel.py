"""Kernel tests: frozen high-precision reference values plus function-equation
property checks.

Reference values were produced by an independent brute-force evaluation
(mpmath at 40 digits: explicit double loops for the products, the classical
theta_1 series for the Jacobi theta function, a direct bilateral lattice sum
for the level theta)."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ellverify import special
from ellverify.kernel import (
    NonConvergent,
    PoleHit,
    ell_gamma,
    ell_gamma_modular_Q,
    ell_gamma_residue,
    epi,
    jacobi_theta,
    qpoch1,
    qpoch1_add,
    qpoch2,
    theta0,
)


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


def jacobi_theta_prime0(tau):
    """``d/dz jacobi_theta(z; tau)`` at ``z = 0`` as ``special.Q_factor`` and
    ``special.s_minus`` declare it: ``2 pi e^{pi i tau/4} (tau; tau)^3``."""
    return special.product(2 * math.pi * epi(tau / 4), special.Factor("qpoch", tau, 0, (tau,), 3))


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


def test_product_counts_from_its_first_term():
    # a first term below TERM_EPSILON is the empty product; |q| >= 1 raises even then
    assert qpoch1(1e-18 + 1e-18j, 0.5) == qpoch2(0, 0.5, 0.3) == 1
    assert qpoch1(0.3, 0) == 0.7
    for product in (lambda: qpoch1(0, 1.01), lambda: qpoch2(0, 1.2, 0.1)):
        with pytest.raises(NonConvergent, match="needs more than 100000 terms"):
            product()


def test_max_terms_cap_is_honest():
    # |q| = 1 - 1e-6 needs ~3.8e7 factors to reach the threshold, beyond the cap
    with pytest.raises(NonConvergent, match="100000 terms"):
        qpoch1(0.5, 1 - 1e-6)
    # theta0's one loop over both products keeps the cap
    tau = complex(0.2, -cmath.log(1 - 1e-6).real / (2 * cmath.pi))
    with pytest.raises(NonConvergent, match="100000 terms"):
        theta0(0.1 + 0.05j, tau)


def test_ell_gamma_pole_is_flagged():
    tau, sigma = 0.1 + 0.6j, -0.2 + 0.8j
    # x = 1 at z = 0 and 2; at -tau the shift factor theta0(-tau; tau) in the
    # denominator vanishes (as in the array test below); a descending lattice
    # point -tau - 2 sigma
    for z in (0.0, 2.0, -tau, -tau - 2 * sigma):
        with pytest.raises(PoleHit):
            ell_gamma(z, tau, sigma)


def test_theta0_mult_matches_additive():
    z, tau = 0.21 + 0.37j, 0.13 + 0.92j
    u = cmath.exp(2j * cmath.pi * z)
    q = cmath.exp(2j * cmath.pi * tau)
    # the multiplicative form (u; q) (q/u; q)
    assert close(qpoch1(u, q) * qpoch1(q / u, q), theta0(z, tau), 1e-12)


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


# ---------------------------------------------------------------------------
# array path: log series after reduction, against the scalar loops and mpmath

#: (tau, sigma) pairs: moderate moduli, and deep ones with |p|, |q| ~ 0.01
ARRAY_MODULI = [(0.1 + 0.3j, -0.2 + 0.45j), (0.23 + 0.7j, -0.11 + 0.9j)]


def _mp_gamma(z, tau, sigma):
    """30-digit ``prod_{j,k} (1 - y p^j q^k) / (1 - x p^j q^k)``, ``y = pq/x``."""
    with mpmath.workdps(30):
        e = lambda v: mpmath.exp(2j * mpmath.pi * mpmath.mpc(v))  # noqa: E731
        x, p, q = e(z), e(tau), e(sigma)
        total, layer = mpmath.mpc(1), mpmath.mpc(1)
        while abs(layer) > mpmath.mpf(10) ** -34:
            total *= mpmath.qp(p * q / x * layer, q) / mpmath.qp(x * layer, q)
            layer *= p
        return complex(total)


def _mp_theta0(z, tau):
    with mpmath.workdps(30):
        x = mpmath.exp(2j * mpmath.pi * mpmath.mpc(z))
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        return complex(mpmath.qp(x, q) * mpmath.qp(q / x, q))


def _assert_array_matches(array_values, scalar, reference, tol=1e-13):
    for got, want_scalar, want_mp in zip(array_values, scalar, reference):
        assert abs(got - want_mp) <= tol * abs(want_mp), (got, want_mp)
        assert abs(got - want_scalar) <= tol * abs(want_mp), (got, want_scalar)


def _gamma_points(tau, sigma):
    """Arguments on the window and strip edges, and shifted in from outside."""
    low = min(tau.imag, sigma.imag)
    top = (tau + sigma).imag
    heights = [
        -0.99 * low,  # the lower edge of the series strip, |x| = e^{2 pi 0.99 low}
        -0.9 * low,  # |x| > 1: a_n - 1 taken as a difference loses digits here
        0.0,  # the lower edge of the window, where x runs round the unit circle
        0.37 * top,
        top,  # the upper edge of the window, where y runs round the unit circle
        top + 0.99 * low,  # the upper edge of the series strip
        -low - 0.3,  # below the strip: shifted up
        -2.6 * max(tau.imag, sigma.imag),  # three shifts up
        top + 1.7,  # above the strip: shifted down
    ]
    return np.array([complex(0.31 - 0.17 * k, h) for k, h in enumerate(heights)])


@pytest.mark.parametrize("tau,sigma", ARRAY_MODULI)
def test_ell_gamma_array_matches_scalar_and_mpmath(tau, sigma):
    z = _gamma_points(tau, sigma)
    got = ell_gamma(z, tau, sigma)
    scalar = [ell_gamma(v, tau, sigma) for v in z]
    _assert_array_matches(got, scalar, [_mp_gamma(v, tau, sigma) for v in z])


#: Im sigma ~ 0.1, as ellgam-mod's transformed moduli reach: |q| ~ 0.53
SHALLOW_MODULI = (0.37 + 0.55j, -0.21 + 0.1j)


@pytest.mark.parametrize("tau,sigma", ARRAY_MODULI + [SHALLOW_MODULI])
def test_ell_gamma_scalar_matches_mpmath(tau, sigma):
    # the scalar loop on the same points: window and strip edges, and up to
    # several shifts along the larger-Im modulus from below and above
    for v in _gamma_points(tau, sigma):
        want = _mp_gamma(v, tau, sigma)
        got = ell_gamma(complex(v), tau, sigma)
        assert abs(got - want) <= 1e-13 * abs(want), (v, got, want)
        # the moduli in either order give the same function
        assert abs(ell_gamma(complex(v), sigma, tau) - want) <= 1e-13 * abs(want)


def _theta_grid(tau):
    """Three periods out on either side, on period multiples and between them."""
    heights = [k * tau.imag for k in (-3, -2.5, -1, -0.4, 0, 0.5, 1, 1.6, 3)]
    return [complex(0.27 + 0.11 * k, h) for k, h in enumerate(heights)]


@pytest.mark.parametrize("tau", [0.1 + 0.3j, 0.23 + 0.7j])
def test_theta_array_matches_scalar_and_mpmath(tau):
    z = np.array(_theta_grid(tau))
    reference = [_mp_theta0(v, tau) for v in z]
    _assert_array_matches(theta0(z, tau), [theta0(v, tau) for v in z], reference)
    jacobi = jacobi_theta(z, tau)
    for v, got in zip(z, jacobi):
        assert abs(got - jacobi_theta(v, tau)) <= 1e-13 * abs(got)


def test_array_blocks_agree_with_one_block():
    # a batch longer than one block of work cells is cut; the cut changes
    # nothing beyond the order of the roundoff in a product
    tau, sigma = 0.1 + 0.3j, -0.2 + 0.45j
    z = np.linspace(0, 1, 2048, endpoint=False) + 0.05j
    gamma, theta = ell_gamma(z, tau, sigma), theta0(z, tau)
    for k in (0, 777, 2047):
        assert close(gamma[k], ell_gamma(z[k : k + 1], tau, sigma)[0], 1e-15)
        assert close(theta[k], theta0(z[k : k + 1], tau)[0], 1e-15)


def test_ell_gamma_array_zero_is_exact():
    # gamma(tau + sigma) = 0, as on the scalar path: the zero y = 1 is an
    # explicit factor (spiridonov's reciprocal gammas sit on it at t = 0)
    tau, sigma = 0.1 + 0.6j, -0.2 + 0.8j
    assert ell_gamma(np.array([tau + sigma]), tau, sigma)[0] == 0
    assert ell_gamma(tau + sigma, tau, sigma) == 0


def test_ell_gamma_array_pole_is_flagged():
    tau, sigma = 0.1 + 0.6j, -0.2 + 0.8j
    # on the pole x = 1 of the reduced argument, among regular nodes
    with pytest.raises(PoleHit):
        ell_gamma(np.array([0.3 + 0.1j, 2.0 + 0j]), tau, sigma)
    # -tau (Im tau < Im sigma) is shifted up by sigma: there the shift factor
    # theta0(-tau; tau) in the denominator vanishes
    with pytest.raises(PoleHit):
        ell_gamma(np.array([0.3 + 0.1j, -tau]), tau, sigma)
    with pytest.raises(PoleHit):
        ell_gamma(np.array([-tau - 2 * sigma]), tau, sigma)


def test_array_term_count_beyond_cap_is_nonconvergent():
    # |p| = e^{-2 pi 1e-7} needs ~6e7 terms to fall below TERM_EPSILON
    z = np.array([0.1 + 0.05j])
    with pytest.raises(NonConvergent, match="100000 terms"):
        ell_gamma(z, 0.2 + 1e-7j, 0.3 + 0.5j)
    with pytest.raises(NonConvergent, match="100000 terms"):
        theta0(z, 0.2 + 1e-7j)
    with pytest.raises(NonConvergent):
        theta0(z, 0.2 - 0.1j)


# ---------------------------------------------------------------------------
# array path with one modulus per point, as a batch of pointwise draws passes


def _per_point(grids):
    """Columns of points and moduli, from (points, moduli) pairs of a grid."""
    rows = [(z, *moduli) for points, moduli in grids for z in points]
    return [np.array(column) for column in zip(*rows)]


THETA_COLUMNS = _per_point([(_theta_grid(tau), (tau,)) for tau in (0.1 + 0.3j, 0.23 + 0.7j)])
GAMMA_COLUMNS = _per_point(
    [(_gamma_points(tau, sigma), (tau, sigma)) for tau, sigma in ARRAY_MODULI + [SHALLOW_MODULI]]
)


def _assert_close_per_point(got, want, tol):
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * abs(w), (g, w)


@pytest.mark.parametrize("fn", [theta0, jacobi_theta, qpoch1_add])
def test_theta_per_point_moduli_match_scalar(fn):
    z, tau = THETA_COLUMNS
    got = fn(z, tau)
    assert got.shape == z.shape
    _assert_close_per_point(got, [fn(complex(a), complex(b)) for a, b in zip(z, tau)], 1e-14)


def test_qpoch1_add_per_point_counts_factors_from_the_largest_term():
    # |e^{2 pi i z}| ~ 1.2e4 here: stopping where |q|^n alone falls below
    # TERM_EPSILON would drop factors of size 1 + 1e-13
    z = np.array([0.2 - 1.5j, 0.3 + 0.1j])
    tau = np.array([0.1 + 0.3j, 0.23 + 0.7j])
    want = [qpoch1_add(complex(a), complex(b)) for a, b in zip(z, tau)]
    _assert_close_per_point(qpoch1_add(z, tau), want, 1e-14)


def test_ell_gamma_per_point_moduli_match_shared_moduli():
    z, tau, sigma = GAMMA_COLUMNS
    got = ell_gamma(z, tau, sigma)
    # the per-point path is the shared-moduli array path, point by point ...
    shared = np.concatenate(
        [ell_gamma(z[k : k + 9], tau[k], sigma[k]) for k in range(0, len(z), 9)]
    )
    _assert_close_per_point(got, shared, 1e-14)
    # ... and so meets the scalar loop as that path does (the reduction and the
    # shifts differ from the loop's by up to 7e-14 on the shallow moduli)
    scalar = [ell_gamma(complex(a), complex(b), complex(c)) for a, b, c in zip(z, tau, sigma)]
    _assert_close_per_point(got, scalar, 1e-13)


def test_per_point_moduli_broadcast_against_the_points():
    z, tau = THETA_COLUMNS
    grid = theta0(z[:, None], tau[None, :4])
    assert grid.shape == (len(z), 4)
    assert grid[5, 2] == pytest.approx(theta0(complex(z[5]), complex(tau[2])), rel=1e-14)
    # a scalar point against per-point moduli, as theta0(1/2; 2 tau) in a lemma
    _assert_close_per_point(theta0(0.5, tau), [theta0(0.5, complex(t)) for t in tau], 1e-14)


#: points on which the scalar path raises: the pole x = 1, a vanishing shift
#: factor (-tau with Im tau < Im sigma) and a modulus with |q| ~ 1
RAISING_POINTS = [
    ("ell_gamma", (2.0 + 0j, 0.1 + 0.6j, -0.2 + 0.8j), PoleHit),
    ("ell_gamma", (-0.1 - 0.6j, 0.1 + 0.6j, -0.2 + 0.8j), PoleHit),
    ("ell_gamma", (0.1 + 0.05j, 0.2 + 1e-7j, 0.3 + 0.5j), NonConvergent),
    ("theta0", (0.1 + 0.05j, 0.2 + 1e-7j), NonConvergent),
    ("jacobi_theta", (0.1 + 0.05j, 0.2 - 0.1j), NonConvergent),
    ("qpoch1_add", (0.1 + 0.05j, 0.2 + 1e-7j), NonConvergent),
]


@pytest.mark.parametrize("name,bad,error", RAISING_POINTS)
def test_per_point_path_raises_where_a_scalar_point_raises(name, bad, error):
    fn = {"ell_gamma": ell_gamma, "theta0": theta0, "jacobi_theta": jacobi_theta,
          "qpoch1_add": qpoch1_add}[name]
    with pytest.raises(error):
        fn(*bad)
    columns = GAMMA_COLUMNS if name == "ell_gamma" else THETA_COLUMNS
    # the raising point among regular ones, at the front, the middle and the end
    for at in (0, 7, len(columns[0])):
        mixed = [np.insert(column, at, value) for column, value in zip(columns, bad)]
        with pytest.raises(error):
            fn(*mixed)
