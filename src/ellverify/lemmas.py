"""Supporting lemma identities behind the antisymmetrized integral evaluation.

Each lemma is exposed as an ``<name>_lhs`` / ``<name>_rhs`` pair.  Pointwise
identities take the free variable (``t`` or ``z``) explicitly so callers can
sample it; the three integral lemmas declare their integrands in gamma-pair
form and hand each to :func:`.special.audited_integral` as its own pair
form, which integrates the tower-separating cycle (straight path plus the
tower correction derived from the same declaration).

Every product of kernel values is a declaration of constant factors that
:func:`.special.product` evaluates; a side that is a sum is one declaration
with ``terms``, a scale times factors per summand, as the antisymmetrized
integrands are.  The pointwise sides take numpy arrays of parameters, one
entry per draw, as well as numbers: on a batch of draws, the factors of one
kernel function and moduli, across terms too, make one kernel call, and on
a number each factor makes one scalar call (see :class:`.special.Integrand`).

Shorthand convention for the gamma products: a plain ``gamma(z)`` inside the
two integral evaluations and the product identity means the double-modulus
function with periods ``2 tau`` and ``8 eta``.
"""

from __future__ import annotations

from .kernel import e2pi, epi
from .special import (
    Factor,
    I_tilde,
    Integrand,
    asym_pair_form,
    audited_integral,
    j1_factors,
    product,
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


def j2_factor(t, lam, tau, sign=1):
    """The non-symmetric factor carrying the lambda dependence and the level
    theta, as a term ``(sign e^{-3 pi i lam}, factors)`` of a declaration."""
    return sign * epi(-3 * lam), (
        Factor("theta0", t + lam, 0, (tau,)),
        Factor("theta0", 2 * t + 6 * tau - 4 * lam + 0.5, 0, (8 * tau,)),
    )


# ---------------------------------------------------------------------------
# pointwise rearrangements


def sym_rearrange_lhs(t, tau, eta):
    return product(
        1,
        Factor("gamma", t - 2 * eta, 0, (tau, 8 * eta)),
        Factor("gamma", t + 2 * eta, 0, (tau, 8 * eta), -1),
        Factor("theta0", t + 2 * eta, 0, (tau,), -1),
        Factor("theta0", t + 2 * eta, 0, (8 * eta,), -1),
    )


def sym_rearrange_rhs(t, tau, eta):
    return product(
        -e2pi(-t - 2 * eta),
        Factor("gamma", t - 2 * eta, 0, (tau, 8 * eta)),
        Factor("gamma", -t - 2 * eta, 0, (tau, 8 * eta)),
    )


def theta_simp_lhs(t, lam, tau):
    return product(1, terms=(j2_factor(t, lam, tau), j2_factor(-t, -lam, tau, -1)))


def theta_simp_rhs(t, lam, tau):
    return product(
        2 * epi(lam - 2 * t),
        Factor("theta0", 6 * tau + 0.5, 0, (8 * tau,)),
        Factor("theta0", t + lam, 0, (tau,)),
        Factor("theta0", t - 2 * lam + 0.5, 0, (2 * tau,)),
        Factor("theta0", 0.5, 0, (2 * tau,), -1),
    )


def full_sym_lhs(t, lam, tau):
    # theta_simp_lhs(t, lam) - theta_simp_lhs(t, -lam)
    return product(1, terms=(
        j2_factor(t, lam, tau), j2_factor(-t, -lam, tau, -1),
        j2_factor(t, -lam, tau, -1), j2_factor(-t, lam, tau),
    ))


def full_sym_rhs(t, lam, tau):
    # the theta-simp3 side times 2 e^{-2 pi i t} theta0(6 tau + 1/2; 8 tau) / theta0(1/2; 2 tau)
    front, first, second = _theta_simp3_rhs_parts(t, lam, tau)
    return product(
        4 * e2pi(-t) * epi(-3 * lam),
        Factor("theta0", 6 * tau + 0.5, 0, (8 * tau,)),
        Factor("theta0", 0.5, 0, (2 * tau,), -1),
        *front,
        terms=((1, first), (-1, second)),
    )


def theta_simp2_lhs(z, sigma):
    return product(1, terms=(
        (1, (Factor("theta0", 2 * z + 3 * sigma + 0.5, 0, (4 * sigma,)),)),
        (e2pi(-z), (Factor("theta0", 2 * z + sigma + 0.5, 0, (4 * sigma,)),)),
    ))


def theta_simp2_rhs(z, sigma):
    return product(
        2 * e2pi(-z),
        Factor("theta0", 3 * sigma + 0.5, 0, (4 * sigma,)),
        Factor("theta0", z + 0.5, 0, (sigma,)),
        Factor("theta0", 0.5, 0, (sigma,), -1),
    )


def theta_simp3_lhs(t, lam, tau):
    return product(1, terms=tuple((s * epi(s * lam), (
        Factor("theta0", t + s * lam, 0, (tau,)),
        Factor("theta0", t - 2 * s * lam + 0.5, 0, (2 * tau,)),
    )) for s in (1, -1)))


def _theta_simp3_rhs_parts(t, lam, tau):
    """The factors of the theta-simp3 side, ``2 e^{-3 pi i lam}`` times the
    first times the difference of the two others."""
    front = (
        Factor("theta0", t + tau + 0.5, 0, (2 * tau,)),
        Factor("theta0", lam, 0, (tau,)),
        Factor("theta0", 0.5, 0, (2 * tau,), -2),
    )
    first = (
        Factor("theta0", 2 * lam + 0.5, 0, (2 * tau,)),
        Factor("theta0", tau + 0.5, 0, (2 * tau,), -1),
        Factor("theta0", t + 0.5, 0, (2 * tau,), 2),
    )
    second = (
        Factor("theta0", lam + 0.5, 0, (tau,), 2),
        Factor("theta0", tau, 0, (2 * tau,), -1),
        Factor("theta0", t, 0, (2 * tau,), 2),
    )
    return front, first, second


def theta_simp3_rhs(t, lam, tau):
    front, first, second = _theta_simp3_rhs_parts(t, lam, tau)
    return product(2 * epi(-3 * lam), *front, terms=((1, first), (-1, second)))


# ---------------------------------------------------------------------------
# gamma-product identities (shorthand gamma has periods 2 tau, 8 eta)


def _int_eval_rhs(sign, arguments, tau, eta):
    """``sign 2 / ((2 tau; 2 tau)(8 eta; 8 eta))`` times the shorthand gammas
    at ``arguments``."""
    moduli = (2 * tau, 8 * eta)
    return product(
        2 * sign,
        Factor("qpoch", moduli[0], 0, moduli[:1], -1),
        Factor("qpoch", moduli[1], 0, moduli[1:], -1),
        *(Factor("gamma", z, 0, moduli) for z in arguments),
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
    return _int_eval_rhs(-1, arguments, tau, eta)


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
    return _int_eval_rhs(1, arguments, tau, eta)


def _int_eval_lhs(tau, eta, shift):
    # shift=0: squared theta0 at t; shift=1/2: squared theta0 at t + 1/2
    f = Integrand(
        j1_factors(tau, eta) + (
            Factor("theta0", shift, 1, (2 * tau,), 2),
            Factor("theta0", tau + 0.5, 1, (2 * tau,)),
        ),
        wind=-1,
    )
    return audited_integral(f, f)


def int_eval1_lhs(tau, eta):
    return _int_eval_lhs(complex(tau), complex(eta), 0.0)


def int_eval2_lhs(tau, eta):
    return _int_eval_lhs(complex(tau), complex(eta), 0.5)


def theta_simp4_lhs(tau, eta):
    """The gamma-product value (identical to the second integral evaluation)."""
    return int_eval2_rhs(tau, eta)


def theta_simp4_rhs(tau, eta):
    return product(
        2,
        Factor("gamma", 6 * eta, 0, (tau, 8 * eta)),
        Factor("gamma", 2 * eta, 0, (tau, 8 * eta), -1),
        Factor("qpoch", tau + 0.5, 0, (tau,)),
        Factor("theta0", 2 * eta + 0.5, 0, (tau,)),
        Factor("theta0", tau + 2 * eta + 0.5, 0, (tau,)),
        Factor("qpoch", tau, 0, (tau,), -1),
        Factor("theta0", tau + 4 * eta, 0, (tau,), -1),
        Factor("qpoch", 4 * eta, 0, (4 * eta,), -1),
        Factor("qpoch", 2 * eta + 0.5, 0, (2 * eta,), -1),
    )


# ---------------------------------------------------------------------------
# integral rearrangement


def int_rearrange_lhs(lam, tau, eta):
    return I_tilde(lam, tau, eta)


def int_rearrange_rhs(lam, tau, eta):
    # j1_factors times j2_factor, its one term.  The phase e^{-12 pi i eta}
    # reaches e^{12 pi Im eta} ~ 1e7; inside the integrand it puts the
    # quadrature tolerance, relative to max(1, |value|), on the result
    f = asym_pair_form(lam, tau, eta)
    return audited_integral(f, f)
