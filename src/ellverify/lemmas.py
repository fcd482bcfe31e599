"""Supporting lemma identities behind the antisymmetrized integral evaluation.

Each lemma is exposed as an ``<name>_lhs`` / ``<name>_rhs`` pair.  Pointwise
identities take the free variable (``t`` or ``z``) explicitly so callers can
sample it; the three integral lemmas declare their integrands in gamma-pair
form and integrate over the tower-separating cycle (straight path plus the
tower correction that :mod:`.special` derives from the same declaration).

The pointwise sides take numpy arrays of parameters, one entry per draw, as
well as numbers; on arrays the gamma products make one kernel call.

Shorthand convention for the gamma products: a plain ``gamma(z)`` inside the
two integral evaluations and the product identity means the double-modulus
function with periods ``2 tau`` and ``8 eta``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .contour import Path
from .kernel import e2pi, ell_gamma, epi, qpoch1_add, theta0
from .special import (
    Factor,
    I_tilde,
    Integrand,
    asym_pair_form,
    audited_integral,
    gamma_pair_tower_correction,
    j1_factors,
)

__all__ = [
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


def j2_factor(t, lam, tau):
    """Non-symmetric factor carrying the lambda dependence and the level theta."""
    return (
        epi(-3 * lam)
        * theta0(t + lam, tau)
        * theta0(2 * t + 6 * tau - 4 * lam + 0.5, 8 * tau)
    )


# ---------------------------------------------------------------------------
# pointwise rearrangements


def sym_rearrange_lhs(t, tau, eta):
    g = ell_gamma(t - 2 * eta, tau, 8 * eta) / ell_gamma(
        t + 2 * eta, tau, 8 * eta
    )
    return g / (theta0(t + 2 * eta, tau) * theta0(t + 2 * eta, 8 * eta))


def sym_rearrange_rhs(t, tau, eta):
    return (
        -e2pi(-t - 2 * eta)
        * ell_gamma(t - 2 * eta, tau, 8 * eta)
        * ell_gamma(-t - 2 * eta, tau, 8 * eta)
    )


def theta_simp_lhs(t, lam, tau):
    return j2_factor(t, lam, tau) - j2_factor(-t, -lam, tau)


def theta_simp_rhs(t, lam, tau):
    return (
        2
        * theta0(6 * tau + 0.5, 8 * tau)
        * epi(lam - 2 * t)
        * theta0(t + lam, tau)
        * theta0(t - 2 * lam + 0.5, 2 * tau)
        / theta0(0.5, 2 * tau)
    )


def full_sym_lhs(t, lam, tau):
    return (
        j2_factor(t, lam, tau)
        - j2_factor(t, -lam, tau)
        + j2_factor(-t, lam, tau)
        - j2_factor(-t, -lam, tau)
    )


def full_sym_rhs(t, lam, tau):
    front = (
        4
        * theta0(6 * tau + 0.5, 8 * tau)
        * theta0(lam, tau)
        / theta0(0.5, 2 * tau) ** 3
        * epi(-3 * lam)
    )
    common = e2pi(-t) * theta0(t + tau + 0.5, 2 * tau)
    first = (
        theta0(2 * lam + 0.5, 2 * tau)
        / theta0(tau + 0.5, 2 * tau)
        * common
        * theta0(t + 0.5, 2 * tau) ** 2
    )
    second = (
        theta0(lam + 0.5, tau) ** 2
        / theta0(tau, 2 * tau)
        * common
        * theta0(t, 2 * tau) ** 2
    )
    return front * (first - second)


def theta_simp2_lhs(z, sigma):
    return theta0(2 * z + 3 * sigma + 0.5, 4 * sigma) + e2pi(-z) * theta0(
        2 * z + sigma + 0.5, 4 * sigma
    )


def theta_simp2_rhs(z, sigma):
    return (
        2
        * theta0(3 * sigma + 0.5, 4 * sigma)
        * e2pi(-z)
        * theta0(z + 0.5, sigma)
        / theta0(0.5, sigma)
    )


def theta_simp3_lhs(t, lam, tau):
    return epi(lam) * theta0(t + lam, tau) * theta0(
        t - 2 * lam + 0.5, 2 * tau
    ) - epi(-lam) * theta0(t - lam, tau) * theta0(
        t + 2 * lam + 0.5, 2 * tau
    )


def theta_simp3_rhs(t, lam, tau):
    front = (
        2
        * epi(-3 * lam)
        * theta0(t + tau + 0.5, 2 * tau)
        * theta0(lam, tau)
        / theta0(0.5, 2 * tau) ** 2
    )
    first = (
        theta0(2 * lam + 0.5, 2 * tau)
        / theta0(tau + 0.5, 2 * tau)
        * theta0(t + 0.5, 2 * tau) ** 2
    )
    second = (
        theta0(lam + 0.5, tau) ** 2
        / theta0(tau, 2 * tau)
        * theta0(t, 2 * tau) ** 2
    )
    return front * (first - second)


# ---------------------------------------------------------------------------
# gamma-product identities (shorthand gamma has periods 2 tau, 8 eta)


def _gamma_product(arguments, tau, eta):
    if isinstance(tau, np.ndarray):
        # a batch of draws: every factor in one kernel call, multiplied in order
        factors = np.stack(np.broadcast_arrays(*arguments))
        return ell_gamma(factors, 2 * tau, 8 * eta).prod(axis=0)
    total = complex(1)
    for z in arguments:
        total = total * ell_gamma(z, 2 * tau, 8 * eta)
    return total


def _eta_tau_front(tau, eta):
    return 2 / (
        qpoch1_add(2 * tau, 2 * tau) * qpoch1_add(8 * eta, 8 * eta)
    )


def int_eval1_rhs(tau, eta):
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
    return -_eta_tau_front(tau, eta) * _gamma_product(arguments, tau, eta)


def int_eval2_rhs(tau, eta):
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
    return _eta_tau_front(tau, eta) * _gamma_product(arguments, tau, eta)


def _int_eval_lhs(tau, eta, shift):
    # shift=0: squared theta0 at t; shift=1/2: squared theta0 at t + 1/2
    f = Integrand(
        j1_factors(tau, eta) + (
            Factor("theta0", shift, 1, (2 * tau,), 2),
            Factor("theta0", tau + 0.5, 1, (2 * tau,)),
        ),
        wind=-1,
    )
    return audited_integral(f, Path()) + gamma_pair_tower_correction(f)


def int_eval1_lhs(tau, eta):
    return _int_eval_lhs(complex(tau), complex(eta), 0.0)


def int_eval2_lhs(tau, eta):
    return _int_eval_lhs(complex(tau), complex(eta), 0.5)


def theta_simp4_lhs(tau, eta):
    """The gamma-product value (identical to the second integral evaluation)."""
    return int_eval2_rhs(tau, eta)


def theta_simp4_rhs(tau, eta):
    ratio = ell_gamma(6 * eta, tau, 8 * eta) / ell_gamma(2 * eta, tau, 8 * eta)
    block = (
        qpoch1_add(tau + 0.5, tau)
        * theta0(2 * eta + 0.5, tau)
        * theta0(tau + 2 * eta + 0.5, tau)
        / (qpoch1_add(tau, tau) * theta0(tau + 4 * eta, tau))
    )
    tail = 1 / (
        qpoch1_add(4 * eta, 4 * eta) * qpoch1_add(2 * eta + 0.5, 2 * eta)
    )
    return 2 * ratio * block * tail


# ---------------------------------------------------------------------------
# integral rearrangement


def int_rearrange_lhs(lam, tau, eta):
    return I_tilde(lam, tau, eta)


def int_rearrange_rhs(lam, tau, eta):
    lam = complex(lam)
    tau = complex(tau)
    eta = complex(eta)
    # j1_factors times j2_factor.  The phase e^{-12 pi i eta} reaches
    # e^{12 pi Im eta} ~ 1e7; inside the integrand it puts the quadrature
    # tolerance, relative to max(1, |value|), on the result
    pair = asym_pair_form(lam, tau, eta)
    f = replace(pair, scale=pair.scale * epi(-3 * lam))
    return audited_integral(f, Path()) + gamma_pair_tower_correction(f)
