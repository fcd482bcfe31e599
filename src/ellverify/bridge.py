"""Numeric bridge from the symmetrized elliptic polynomials to the graded
character ratio.

The character-side quantities live in a multiplicative picture with a base
``|q| > 1`` and a grading variable ``q**(-2*omega)`` of small modulus.  The
integral-side machinery (:mod:`.special`) works with additive parameters in
the upper/lower half planes.  This module converts between the two and
assembles the closed product relating them, so the character-side statements
can be tested against audited quadrature of the elliptic side.  Its products
are :mod:`.special` declarations in the additive coordinates: ``q**n =
e(n eta)``, ``p = q**(-2*omega) = e(tau)`` and ``Q = q**(-2*kappa) =
e(sigma)``, ``sigma = -2 kappa eta``, and the bases ``q**-2`` and ``q**-8``
are the moduli ``-2 eta`` and ``-8 eta``, each in the upper half plane.

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
from .special import Factor

__all__ = [
    "AffineParams",
    "AdditiveCoords",
    "convert_conventions",
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


def J_mu_k2(mu, k, q, lam, omega):
    """Normalized character ratio via the symmetrized elliptic polynomial.

    Assembles the elliptic factor (an audited contour integral evaluated in
    additive coordinates) with the explicit Pochhammer blocks; the result is
    the character-side quantity, normalized so the zero weight gives 1.
    """
    params = AffineParams(mu, k, complex(q), complex(lam), complex(omega))
    eta, tau, lam = convert_conventions(q, lam, omega)
    q = complex(q)
    sigma = -2 * params.kappa * eta

    polynomial = special.ellmac_P(mu, params.kappa, lam, tau, eta)
    blocks = special.product(
        q ** (mu + 4) / (2 * math.pi),
        # the grading block (q^-4; p) (p; p)^3 / (p q^2; p) over the normalizing
        # function (p q^2; p) / (p q^4; p) of the rank-one graded trace
        Factor("qpoch", -4 * eta, 0, (tau,)),
        Factor("qpoch", tau, 0, (tau,), 3),
        Factor("qpoch", tau + 2 * eta, 0, (tau,), -2),
        Factor("qpoch", tau + 4 * eta, 0, (tau,)),
        # the weight block (q^(-2 mu - 6); Q) (q^(2 mu + 2) Q; Q) / ((q^-4; Q) (Q; Q))
        Factor("qpoch", (-2 * mu - 6) * eta, 0, (sigma,)),
        Factor("qpoch", (2 * mu + 2) * eta + sigma, 0, (sigma,)),
        Factor("qpoch", -4 * eta, 0, (sigma,), -1),
        Factor("qpoch", sigma, 0, (sigma,), -1),
        # the mixed block ((p q^2; p, Q) / (p q^-2; p, Q))^2 = (Gamma(p q^-2) (q^2; p) / (q^2; Q))^2,
        # as D(x) = (x; p) D(xQ) = (x; Q) D(xp), D = (.; p, Q), and Gamma(x) = D(pQ/x) / D(x)
        Factor("gamma", tau - 2 * eta, 0, (tau, sigma), 2),
        Factor("qpoch", 2 * eta, 0, (tau,), 2),
        Factor("qpoch", 2 * eta, 0, (sigma,), -2),
    )
    return polynomial * blocks


def eval_conj_rhs(mu, k, q):
    """Closed-form value of the character ratio at the distinguished point.

    This is the theorem side compared against the full integral pipeline at
    ``(lam, omega) = (2, 4)``; it involves no quadrature.
    """
    params = AffineParams(mu, k, complex(q), 2.0, 4.0)
    eta = convert_conventions(q, 2.0, 4.0).eta
    sigma = -2 * params.kappa * eta
    return special.product(
        complex(q) ** (2 * mu),
        Factor("qpoch", -2 * eta, 0, (sigma,)),
        Factor("qpoch", -4 * eta, 0, (sigma,), -1),
        Factor("theta0", (-2 * mu - 4) * eta, 0, (sigma,)),
        Factor("qpoch", (-2 * mu - 6) * eta, 0, (sigma,)),
        Factor("qpoch", (2 * mu + 2) * eta + sigma, 0, (sigma,)),
        Factor("qpoch", sigma, 0, (sigma,)),
        Factor("qpoch", sigma - 2 * eta, 0, (sigma,)),
        Factor("qpoch", -4 * eta, 0, (-2 * eta,), -1),
        Factor("qpoch", -6 * eta, 0, (-8 * eta,), -1),
        Factor("qpoch", -2 * eta, 0, (-8 * eta,), -1),
    )
