"""Supporting lemma identities behind the antisymmetrized integral evaluation.

Each lemma is exposed as an ``<name>_lhs`` / ``<name>_rhs`` pair.  Pointwise
identities take the free variable (``t`` or ``z``) explicitly so callers can
sample it; the three integral lemmas audit and integrate over the
tower-separating cycle themselves (straight path plus residue corrections).

Shorthand convention for the gamma products: a plain ``gamma(z)`` inside the
two integral evaluations and the product identity means the double-modulus
function with periods ``2 tau`` and ``8 eta``.
"""

from __future__ import annotations

from .contour import Path
from .kernel import ell_gamma, qpoch1_add, theta0
from .numerics import STANDARD
from .special import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    I_tilde,
    asym_poles,
    audited_integral,
    gamma_pair_tower_correction,
)

__all__ = [
    "j1_factor",
    "j2_factor",
    "sym_rearrange_lhs",
    "sym_rearrange_rhs",
    "int_rearrange_lhs",
    "int_rearrange_rhs",
    "theta_simp_lhs",
    "theta_simp_rhs",
    "full_sym_lhs",
    "full_sym_rhs",
    "theta_simp2_lhs",
    "theta_simp2_rhs",
    "theta_simp3_lhs",
    "theta_simp3_rhs",
    "theta_simp4_lhs",
    "theta_simp4_rhs",
    "int_eval1_lhs",
    "int_eval1_rhs",
    "int_eval2_lhs",
    "int_eval2_rhs",
]


def j1_factor(t, tau, eta, ctx=STANDARD):
    """Symmetric factor: ``gamma(+-t - 2 eta; tau, 8 eta) theta0(t + 4 eta; 8 eta)``."""
    return (
        ell_gamma(t - 2 * eta, tau, 8 * eta, ctx=ctx)
        * ell_gamma(-t - 2 * eta, tau, 8 * eta, ctx=ctx)
        * theta0(t + 4 * eta, 8 * eta, ctx=ctx)
    )


def j2_factor(t, lam, tau, ctx=STANDARD):
    """Non-symmetric factor carrying the lambda dependence and the level theta."""
    return (
        ctx.epi(-3 * lam)
        * theta0(t + lam, tau, ctx=ctx)
        * theta0(2 * t + 6 * tau - 4 * lam + 0.5, 8 * tau, ctx=ctx)
    )


# ---------------------------------------------------------------------------
# pointwise rearrangements


def sym_rearrange_lhs(t, tau, eta, ctx=STANDARD):
    g = ell_gamma(t - 2 * eta, tau, 8 * eta, ctx=ctx) / ell_gamma(
        t + 2 * eta, tau, 8 * eta, ctx=ctx
    )
    return g / (theta0(t + 2 * eta, tau, ctx=ctx) * theta0(t + 2 * eta, 8 * eta, ctx=ctx))


def sym_rearrange_rhs(t, tau, eta, ctx=STANDARD):
    return (
        -ctx.e2pi(-t - 2 * eta)
        * ell_gamma(t - 2 * eta, tau, 8 * eta, ctx=ctx)
        * ell_gamma(-t - 2 * eta, tau, 8 * eta, ctx=ctx)
    )


def theta_simp_lhs(t, lam, tau, ctx=STANDARD):
    return j2_factor(t, lam, tau, ctx) - j2_factor(-t, -lam, tau, ctx)


def theta_simp_rhs(t, lam, tau, ctx=STANDARD):
    return (
        2
        * theta0(6 * tau + 0.5, 8 * tau, ctx=ctx)
        * ctx.epi(lam - 2 * t)
        * theta0(t + lam, tau, ctx=ctx)
        * theta0(t - 2 * lam + 0.5, 2 * tau, ctx=ctx)
        / theta0(0.5, 2 * tau, ctx=ctx)
    )


def full_sym_lhs(t, lam, tau, ctx=STANDARD):
    return (
        j2_factor(t, lam, tau, ctx)
        - j2_factor(t, -lam, tau, ctx)
        + j2_factor(-t, lam, tau, ctx)
        - j2_factor(-t, -lam, tau, ctx)
    )


def full_sym_rhs(t, lam, tau, ctx=STANDARD):
    front = (
        4
        * theta0(6 * tau + 0.5, 8 * tau, ctx=ctx)
        * theta0(lam, tau, ctx=ctx)
        / theta0(0.5, 2 * tau, ctx=ctx) ** 3
        * ctx.epi(-3 * lam)
    )
    common = ctx.e2pi(-t) * theta0(t + tau + 0.5, 2 * tau, ctx=ctx)
    first = (
        theta0(2 * lam + 0.5, 2 * tau, ctx=ctx)
        / theta0(tau + 0.5, 2 * tau, ctx=ctx)
        * common
        * theta0(t + 0.5, 2 * tau, ctx=ctx) ** 2
    )
    second = (
        theta0(lam + 0.5, tau, ctx=ctx) ** 2
        / theta0(tau, 2 * tau, ctx=ctx)
        * common
        * theta0(t, 2 * tau, ctx=ctx) ** 2
    )
    return front * (first - second)


def theta_simp2_lhs(z, sigma, ctx=STANDARD):
    return theta0(2 * z + 3 * sigma + 0.5, 4 * sigma, ctx=ctx) + ctx.e2pi(-z) * theta0(
        2 * z + sigma + 0.5, 4 * sigma, ctx=ctx
    )


def theta_simp2_rhs(z, sigma, ctx=STANDARD):
    return (
        2
        * theta0(3 * sigma + 0.5, 4 * sigma, ctx=ctx)
        * ctx.e2pi(-z)
        * theta0(z + 0.5, sigma, ctx=ctx)
        / theta0(0.5, sigma, ctx=ctx)
    )


def theta_simp3_lhs(t, lam, tau, ctx=STANDARD):
    return ctx.epi(lam) * theta0(t + lam, tau, ctx=ctx) * theta0(
        t - 2 * lam + 0.5, 2 * tau, ctx=ctx
    ) - ctx.epi(-lam) * theta0(t - lam, tau, ctx=ctx) * theta0(
        t + 2 * lam + 0.5, 2 * tau, ctx=ctx
    )


def theta_simp3_rhs(t, lam, tau, ctx=STANDARD):
    front = (
        2
        * ctx.epi(-3 * lam)
        * theta0(t + tau + 0.5, 2 * tau, ctx=ctx)
        * theta0(lam, tau, ctx=ctx)
        / theta0(0.5, 2 * tau, ctx=ctx) ** 2
    )
    first = (
        theta0(2 * lam + 0.5, 2 * tau, ctx=ctx)
        / theta0(tau + 0.5, 2 * tau, ctx=ctx)
        * theta0(t + 0.5, 2 * tau, ctx=ctx) ** 2
    )
    second = (
        theta0(lam + 0.5, tau, ctx=ctx) ** 2
        / theta0(tau, 2 * tau, ctx=ctx)
        * theta0(t, 2 * tau, ctx=ctx) ** 2
    )
    return front * (first - second)


# ---------------------------------------------------------------------------
# gamma-product identities (shorthand gamma has periods 2 tau, 8 eta)


def _gamma_product(arguments, tau, eta, ctx):
    total = ctx.number(1)
    for z in arguments:
        total = total * ell_gamma(z, 2 * tau, 8 * eta, ctx=ctx)
    return total


def _eta_tau_front(tau, eta, ctx):
    return 2 / (
        qpoch1_add(2 * tau, 2 * tau, ctx=ctx) * qpoch1_add(8 * eta, 8 * eta, ctx=ctx)
    )


def int_eval1_rhs(tau, eta, ctx=STANDARD):
    tau = ctx.number(tau)
    eta = ctx.number(eta)
    arguments = [
        -4 * eta + tau,
        6 * eta,
        -2 * eta + 0.5,
        2 * eta + 0.5,
        -2 * eta + tau,
        6 * eta + tau,
        -2 * eta + tau + 0.5,
        2 * eta + tau + 0.5,
        -2 * eta + 2 * tau,
        8 * eta + 0.5,
        12 * eta + 0.5,
        8 * eta + tau,
        4 * eta,
        tau + 0.5,
    ]
    return -_eta_tau_front(tau, eta, ctx) * _gamma_product(arguments, tau, eta, ctx)


def int_eval2_rhs(tau, eta, ctx=STANDARD):
    tau = ctx.number(tau)
    eta = ctx.number(eta)
    arguments = [
        -4 * eta + tau,
        6 * eta + 0.5,
        -2 * eta,
        2 * eta + 0.5,
        -2 * eta + tau,
        -2 * eta + tau,
        -2 * eta + 2 * tau,
        8 * eta + 0.5,
        12 * eta,
        8 * eta + tau + 0.5,
        4 * eta + 0.5,
        tau,
    ]
    return _eta_tau_front(tau, eta, ctx) * _gamma_product(arguments, tau, eta, ctx)


def _int_eval_lhs(tau, eta, shift, tol, budget, ctx):
    # shift=0: squared theta0 at t; shift=1/2: squared theta0 at t + 1/2
    def entire(t):
        return (
            theta0(t + 4 * eta, 8 * eta, ctx=ctx)
            * ctx.e2pi(-t)
            * theta0(t + shift, 2 * tau, ctx=ctx) ** 2
            * theta0(t + tau + 0.5, 2 * tau, ctx=ctx)
        )

    def f(t):
        return (
            ell_gamma(t - 2 * eta, tau, 8 * eta, ctx=ctx)
            * ell_gamma(-t - 2 * eta, tau, 8 * eta, ctx=ctx)
            * entire(t)
        )

    value = audited_integral(f, Path(), asym_poles(tau, eta), tol, budget, ctx)
    return value + gamma_pair_tower_correction(entire, tau, 8 * eta, eta, ctx)


def int_eval1_lhs(tau, eta, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET, ctx=STANDARD):
    return _int_eval_lhs(ctx.number(tau), ctx.number(eta), 0.0, tol, budget, ctx)


def int_eval2_lhs(tau, eta, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET, ctx=STANDARD):
    return _int_eval_lhs(ctx.number(tau), ctx.number(eta), 0.5, tol, budget, ctx)


def theta_simp4_lhs(tau, eta, ctx=STANDARD):
    """The gamma-product value (identical to the second integral evaluation)."""
    return int_eval2_rhs(tau, eta, ctx=ctx)


def theta_simp4_rhs(tau, eta, ctx=STANDARD):
    tau = ctx.number(tau)
    eta = ctx.number(eta)
    ratio = ell_gamma(6 * eta, tau, 8 * eta, ctx=ctx) / ell_gamma(2 * eta, tau, 8 * eta, ctx=ctx)
    block = (
        qpoch1_add(tau + 0.5, tau, ctx=ctx)
        * theta0(2 * eta + 0.5, tau, ctx=ctx)
        * theta0(tau + 2 * eta + 0.5, tau, ctx=ctx)
        / (qpoch1_add(tau, tau, ctx=ctx) * theta0(tau + 4 * eta, tau, ctx=ctx))
    )
    tail = 1 / (
        qpoch1_add(4 * eta, 4 * eta, ctx=ctx) * qpoch1_add(2 * eta + 0.5, 2 * eta, ctx=ctx)
    )
    return 2 * ratio * block * tail


# ---------------------------------------------------------------------------
# integral rearrangement


def int_rearrange_lhs(lam, tau, eta, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET, ctx=STANDARD):
    return I_tilde(lam, tau, eta, tol, budget, ctx)


def int_rearrange_rhs(lam, tau, eta, tol=DEFAULT_TOL, budget=DEFAULT_BUDGET, ctx=STANDARD):
    lam = ctx.number(lam)
    tau = ctx.number(tau)
    eta = ctx.number(eta)
    # the phase reaches e^{12 pi Im eta} ~ 1e7; inside the integrand it puts
    # the quadrature tolerance, relative to max(1, |value|), on the result
    phase = ctx.epi(-12 * eta)

    def entire(t):
        return phase * theta0(t + 4 * eta, 8 * eta, ctx=ctx) * j2_factor(t, lam, tau, ctx)

    def f(t):
        return phase * j1_factor(t, tau, eta, ctx) * j2_factor(t, lam, tau, ctx)

    value = audited_integral(f, Path(), asym_poles(tau, eta), tol, budget, ctx)
    return value + gamma_pair_tower_correction(entire, tau, 8 * eta, eta, ctx)
