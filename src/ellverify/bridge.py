"""Numeric bridge from the symmetrized elliptic polynomials to the graded
character ratio.

The character-side quantities live in a multiplicative picture with a base
``|q| > 1`` and a grading variable ``q**(-2*omega)`` of small modulus.  The
integral-side machinery (:mod:`.special`) works with additive parameters in
the upper/lower half planes.  This module converts between the two and
assembles the closed product relating them, so the character-side statements
can be tested against audited quadrature of the elliptic side.

The evaluators work in double precision; the conversion itself contributes
error at machine scale, so the overall accuracy is set by the quadrature
target of the elliptic factor.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import NamedTuple

from . import special
from .kernel import qpoch1, qpoch2, theta0_mult

__all__ = [
    "AffineParams",
    "AdditiveCoords",
    "convert_conventions",
    "f22",
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


def convert_conventions(q, lam, omega):
    """Additive parameters matching a multiplicative ``(q, lam, omega)`` point.

    The base is ``q = e2pi(eta)`` with the principal branch, so ``|q| > 1``
    lands in the lower half plane ``Im(eta) < 0``; the elliptic modulus is
    ``tau = -2*eta*omega`` and the additive weight argument ``2*eta*lam``.
    """
    eta = cmath.log(complex(q)) / (2j * math.pi)
    return AdditiveCoords(eta=eta, tau=-2 * eta * omega, lam=2 * eta * lam)


def _qpow(q, exponent):
    return cmath.exp(complex(exponent) * cmath.log(q))


def f22(q, omega):
    """Unit-constant-term normalizing function of the rank-one graded trace."""
    q = complex(q)
    p = _qpow(q, -2 * complex(omega))
    return qpoch1(p * q**2, p) / qpoch1(p * q**4, p)


def J_mu_k2(mu, k, q, lam, omega):
    """Normalized character ratio via the symmetrized elliptic polynomial.

    Assembles the elliptic factor (an audited contour integral evaluated in
    additive coordinates) with the explicit Pochhammer blocks; the result is
    the character-side quantity, normalized so the zero weight gives 1.
    """
    params = AffineParams(mu, k, complex(q), complex(lam), complex(omega))
    kappa = params.kappa
    coords = convert_conventions(q, lam, omega)
    q = complex(q)
    omega = complex(omega)
    p = _qpow(q, -2 * omega)
    Q = q ** (-2 * kappa)

    polynomial = special.ellmac_P(mu, kappa, coords.lam, coords.tau, coords.eta)
    front = polynomial / (2 * math.pi * f22(q, omega))
    grading_block = (
        qpoch1(q**-4, p)
        * qpoch1(p, p) ** 3
        / qpoch1(p * q**2, p)
    )
    mixed_block = (
        qpoch2(p * q**2, p, Q) / qpoch2(p * q**-2, p, Q)
    ) ** 2
    weight_block = (
        q ** (mu + 4)
        * qpoch1(q ** (-2 * mu - 6), Q)
        * qpoch1(q ** (2 * mu + 2) * Q, Q)
        / (qpoch1(q**-4, Q) * qpoch1(Q, Q))
    )
    return front * grading_block * mixed_block * weight_block


def eval_conj_rhs(mu, k, q):
    """Closed-form value of the character ratio at the distinguished point.

    This is the theorem side compared against the full integral pipeline at
    ``(lam, omega) = (2, 4)``; it involves no quadrature.
    """
    params = AffineParams(mu, k, complex(q), 2.0, 4.0)
    kappa = params.kappa
    q = complex(q)
    Q = q ** (-2 * kappa)
    return (
        q ** (2 * mu)
        * qpoch1(q**-2, Q)
        / qpoch1(q**-4, Q)
        * theta0_mult(q ** (-2 * mu - 4), Q)
        * qpoch1(q ** (-2 * mu - 6), Q)
        * qpoch1(q ** (2 * mu + 2) * Q, Q)
        * qpoch1(Q, Q)
        * qpoch1(Q * q**-2, Q)
        / (
            qpoch1(q**-4, q**-2)
            * qpoch1(q**-6, q**-8)
            * qpoch1(q**-2, q**-8)
        )
    )
