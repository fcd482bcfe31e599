"""Numeric bridge from the symmetrized elliptic polynomials to the graded
character ratio.

The character-side quantities live in a multiplicative picture with a base
``|q| > 1`` and a grading variable ``q**(-2*omega)`` of small modulus.  The
integral-side machinery (:mod:`.special`) works with additive parameters in
the upper/lower half planes.  This module converts between the two and
assembles the closed product relating them, so the character-side statements
can be tested against certified quadrature of the elliptic side.

All evaluators accept a numerics context; with the default double-precision
context the conversion itself contributes error at machine scale, so the
overall accuracy is set by the quadrature target of the elliptic factor.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from . import special
from .kernel import qpoch1, qpoch2, theta0_mult
from .numerics import STANDARD

__all__ = [
    "AffineParams",
    "AdditiveCoords",
    "convert_conventions",
    "f22",
    "chi_002",
    "J_mu_k2",
    "eval_conj_rhs",
]


@dataclasses.dataclass(frozen=True)
class AffineParams:
    """Validated parameter point for the character-side evaluators.

    ``mu`` and ``k`` are the (nonnegative integer) weight and level; ``kappa``
    is the shifted level actually appearing in the product formulas.  The
    domain constraints guarantee the grading series converges and stays away
    from the poles of the elliptic factor.
    """

    mu: int
    k: int
    q: complex
    lam: complex
    omega: complex

    def __post_init__(self):
        if not isinstance(self.mu, int) or self.mu < 0:
            raise special.DomainViolation("mu must be a nonnegative integer")
        if not isinstance(self.k, int) or self.k < 0:
            raise special.DomainViolation("k must be a nonnegative integer")
        if abs(self.q) <= 1:
            raise special.DomainViolation("need |q| > 1")
        grading = abs(self.q) ** (-2 * complex(self.omega).real)
        if not grading < abs(self.q) ** -6:
            raise special.DomainViolation(
                "need |q**(-2*omega)| < |q**-6| (Re omega > 3 for real q)"
            )

    @property
    def kappa(self):
        return self.k + 4


class AdditiveCoords(NamedTuple):
    eta: complex
    tau: complex
    lam: complex


def convert_conventions(q, lam, omega, ctx=STANDARD):
    """Additive parameters matching a multiplicative ``(q, lam, omega)`` point.

    The base is ``q = e2pi(eta)`` with the principal branch, so ``|q| > 1``
    lands in the lower half plane ``Im(eta) < 0``; the elliptic modulus is
    ``tau = -2*eta*omega`` and the additive weight argument ``2*eta*lam``.
    """
    eta = ctx.log(ctx.number(q)) / (2j * ctx.pi)
    return AdditiveCoords(eta=eta, tau=-2 * eta * omega, lam=2 * eta * lam)


def _qpow(q, exponent, ctx):
    return ctx.exp(ctx.number(exponent) * ctx.log(q))


def f22(q, omega, ctx=STANDARD):
    """Unit-constant-term normalizing function of the rank-one graded trace."""
    q = ctx.number(q)
    p = _qpow(q, -2 * ctx.number(omega), ctx)
    return qpoch1(p * q**2, p, ctx=ctx) / qpoch1(p * q**4, p, ctx=ctx)


def chi_002(q, lam, omega, ctx=STANDARD):
    """Closed form of the graded trace at the zero weight (rank one)."""
    AffineParams(0, 0, complex(q), complex(lam), complex(omega))
    q = ctx.number(q)
    p = _qpow(q, -2 * ctx.number(omega), ctx)
    qlam = _qpow(q, ctx.number(lam), ctx)
    return (
        qlam
        * f22(q, omega, ctx=ctx)
        * qpoch1(qlam**-2 * q**2, p, ctx=ctx)
        * qpoch1(qlam**2 * q**2 * p, p, ctx=ctx)
        * qpoch1(p * q**2, p, ctx=ctx)
    )


def J_mu_k2(mu, k, q, lam, omega, tol=special.DEFAULT_TOL, ctx=STANDARD):
    """Normalized character ratio via the symmetrized elliptic polynomial.

    Assembles the elliptic factor (a certified contour integral evaluated in
    additive coordinates) with the explicit Pochhammer blocks; the result is
    the character-side quantity, normalized so the zero weight gives 1.
    """
    params = AffineParams(mu, k, complex(q), complex(lam), complex(omega))
    kappa = params.kappa
    coords = convert_conventions(q, lam, omega, ctx=ctx)
    q = ctx.number(q)
    omega = ctx.number(omega)
    p = _qpow(q, -2 * omega, ctx)
    Q = q ** (-2 * kappa)

    polynomial = special.ellmac_P(
        mu, kappa, coords.lam, coords.tau, coords.eta, tol=tol, ctx=ctx
    )
    front = polynomial / (2 * ctx.pi * f22(q, omega, ctx=ctx))
    grading_block = (
        qpoch1(q**-4, p, ctx=ctx)
        * qpoch1(p, p, ctx=ctx) ** 3
        / qpoch1(p * q**2, p, ctx=ctx)
    )
    mixed_block = (
        qpoch2(p * q**2, p, Q, ctx=ctx) / qpoch2(p * q**-2, p, Q, ctx=ctx)
    ) ** 2
    weight_block = (
        q ** (mu + 4)
        * qpoch1(q ** (-2 * mu - 6), Q, ctx=ctx)
        * qpoch1(q ** (2 * mu + 2) * Q, Q, ctx=ctx)
        / (qpoch1(q**-4, Q, ctx=ctx) * qpoch1(Q, Q, ctx=ctx))
    )
    return front * grading_block * mixed_block * weight_block


def eval_conj_rhs(mu, k, q, ctx=STANDARD):
    """Closed-form value of the character ratio at the distinguished point.

    This is the theorem side compared against the full integral pipeline at
    ``(lam, omega) = (2, 4)``; it involves no quadrature.
    """
    params = AffineParams(mu, k, complex(q), 2.0, 4.0)
    kappa = params.kappa
    q = ctx.number(q)
    Q = q ** (-2 * kappa)
    return (
        q ** (2 * mu)
        * qpoch1(q**-2, Q, ctx=ctx)
        / qpoch1(q**-4, Q, ctx=ctx)
        * theta0_mult(q ** (-2 * mu - 4), Q, ctx=ctx)
        * qpoch1(q ** (-2 * mu - 6), Q, ctx=ctx)
        * qpoch1(q ** (2 * mu + 2) * Q, Q, ctx=ctx)
        * qpoch1(Q, Q, ctx=ctx)
        * qpoch1(Q * q**-2, Q, ctx=ctx)
        / (
            qpoch1(q**-4, q**-2, ctx=ctx)
            * qpoch1(q**-6, q**-8, ctx=ctx)
            * qpoch1(q**-2, q**-8, ctx=ctx)
        )
    )
