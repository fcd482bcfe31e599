"""Elliptic special-function kernel.

Infinite q-Pochhammer products (single and double), theta functions and
the elliptic gamma function, in both multiplicative (nome) and additive
(half-period ratio) conventions.

Conventions
-----------
* multiplicative single product:  ``(u; q) = prod_{n>=0} (1 - u q^n)``
* multiplicative double product:  ``(u; q, r) = prod_{n,m>=0} (1 - u q^n r^m)``
* additive arguments map through ``u = exp(2 pi i z)``; an additive modular
  parameter ``tau`` requires ``Im tau > 0`` so its nome satisfies ``|q| < 1``.
* ``theta0(z; tau) = (z; tau) (tau - z; tau)``
* ``jacobi_theta(z; tau) = i e^{pi i tau/4 - pi i z} (tau; tau) theta0(z; tau)``
* ``ell_gamma(z; tau, sigma) = (tau + sigma - z; tau, sigma) / (z; tau, sigma)``

Truncation
----------
Products stop once the current factor differs from 1 by less than
``TERM_EPSILON``.  Because successive factor deviations decay geometrically
with ratio ``|q|`` (and ``|r|``), the neglected tail of a single product
changes the result by a relative amount of at most about
``4 * TERM_EPSILON / (1 - |q|)``; for double products the bound carries an
extra ``1 / (1 - |r|)``.  Exceeding ``MAX_TERMS`` factors (or layers) before
reaching the threshold raises :class:`NonConvergent`.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "TERM_EPSILON",
    "MAX_TERMS",
    "NonConvergent",
    "PoleHit",
    "qpoch1",
    "qpoch2",
    "qpoch1_add",
    "theta0",
    "theta0_mult",
    "jacobi_theta",
    "jacobi_theta_prime0",
    "ell_gamma",
    "ell_gamma_modular_Q",
]


class NonConvergent(ArithmeticError):
    """An infinite product or series could not reach its truncation target."""


class PoleHit(ArithmeticError):
    """An evaluation point fell on (or numerically indistinguishably close
    to) a pole of the requested function."""


#: a product stops once its current factor is within this of 1
TERM_EPSILON = 1e-17
#: factors (or layers) per product before :class:`NonConvergent` is raised
MAX_TERMS = 100_000
#: a denominator factor smaller than this is treated as an exact pole
POLE_EPSILON = 1e-13


def e2pi(z):
    """``exp(2 pi i z)``, the additive-to-multiplicative convention map."""
    return cmath.exp(2j * math.pi * complex(z))


def epi(z):
    """``exp(pi i z)`` (half-period phases)."""
    return cmath.exp(1j * math.pi * complex(z))


def qpoch1(u, q, pole_epsilon=None):
    """Single q-Pochhammer product ``(u; q) = prod_{n>=0} (1 - u q^n)``.

    Requires ``|q| < 1``.  If ``pole_epsilon`` is given, a factor with
    modulus below it raises :class:`PoleHit` (used for denominators).
    """
    u = complex(u)
    q = complex(q)
    if not abs(q) < 1:
        raise NonConvergent(f"single product requires |q| < 1, got |q| = {abs(q)}")
    total = complex(1)
    term = u
    for _ in range(MAX_TERMS):
        if abs(term) < TERM_EPSILON:
            return total
        factor = 1 - term
        if pole_epsilon is not None and abs(factor) < pole_epsilon:
            raise PoleHit(f"vanishing factor 1 - {term!r} in (u; q)")
        total = total * factor
        term = term * q
    raise NonConvergent(
        f"(u; q) with |u| = {abs(u):.3g}, |q| = {abs(q):.6g} "
        f"did not converge within {MAX_TERMS} factors"
    )


def qpoch2(u, q, r, pole_epsilon=None):
    """Double q-Pochhammer product ``(u; q, r) = prod_{n,m>=0} (1 - u q^n r^m)``.

    Requires ``|q| < 1`` and ``|r| < 1``.  Evaluated as the layered product
    ``prod_{n>=0} (u q^n; r)``; the outer loop stops when an entire layer is
    within the truncation threshold of 1.
    """
    u = complex(u)
    q = complex(q)
    if not abs(q) < 1:
        raise NonConvergent(f"double product requires |q| < 1, got |q| = {abs(q)}")
    total = complex(1)
    layer_arg = u
    for _ in range(MAX_TERMS):
        if abs(layer_arg) < TERM_EPSILON:
            return total
        total = total * qpoch1(layer_arg, r, pole_epsilon)
        layer_arg = layer_arg * q
    raise NonConvergent(
        f"(u; q, r) with |u| = {abs(u):.3g}, |q| = {abs(q):.6g} "
        f"did not converge within {MAX_TERMS} layers"
    )


def qpoch1_add(z, tau):
    """Additive single product ``(z; tau) = prod_{n>=0} (1 - e^{2 pi i (z + n tau)})``."""
    return qpoch1(e2pi(z), e2pi(tau))


def theta0(z, tau):
    """``theta0(z; tau) = (z; tau) (tau - z; tau)`` (additive arguments).

    Entire in ``z``, zeros exactly on the lattice ``Z + tau Z``,
    quasi-periodic: ``theta0(z + 1) = theta0(z)`` and
    ``theta0(z + tau) = theta0(-z) = -e^{-2 pi i z} theta0(z)``.
    """
    q = e2pi(tau)
    return qpoch1(e2pi(z), q) * qpoch1(e2pi(tau - z), q)


def theta0_mult(u, q):
    """Multiplicative form ``theta0(u; q) = (u; q) (q/u; q)``."""
    u = complex(u)
    if u == 0:
        raise PoleHit("theta0 requires a nonzero multiplicative argument")
    q = complex(q)
    return qpoch1(u, q) * qpoch1(q / u, q)


def jacobi_theta(z, tau):
    """First Jacobi theta function.

    ``jacobi_theta(z; tau) = i e^{pi i tau / 4 - pi i z} (tau; tau) theta0(z; tau)``,
    normalized so that it is odd in ``z`` with a simple zero at ``z = 0``.
    """
    q = e2pi(tau)
    prefactor = 1j * epi(tau / 4 - z)
    return prefactor * qpoch1(q, q) * theta0(z, tau)


def jacobi_theta_prime0(tau):
    """``d/dz jacobi_theta(z; tau)`` at ``z = 0``: ``2 pi e^{pi i tau/4} (tau; tau)^3``."""
    eta = qpoch1(e2pi(tau), e2pi(tau))
    return 2 * math.pi * epi(tau / 4) * eta**3


def ell_gamma(z, tau, sigma):
    """Elliptic gamma function (additive arguments).

    ``ell_gamma(z; tau, sigma) = (tau + sigma - z; tau, sigma) / (z; tau, sigma)``

    Meromorphic in ``z`` with poles descending from ``z = 0`` on
    ``Z - tau Z_{>=0} - sigma Z_{>=0}`` and zeros ascending from
    ``z = tau + sigma``.  Satisfies the reflection identity
    ``ell_gamma(z) * ell_gamma(tau + sigma - z) = 1`` and the shift
    ``ell_gamma(z + tau) = theta0(z; sigma) * ell_gamma(z)``.

    Raises :class:`PoleHit` when a denominator factor vanishes to within
    ``POLE_EPSILON``.
    """
    qt = e2pi(tau)
    qs = e2pi(sigma)
    numerator = qpoch2(e2pi(tau + sigma - z), qt, qs)
    denominator = qpoch2(e2pi(z), qt, qs, POLE_EPSILON)
    return numerator / denominator


def ell_gamma_residue(tau, sigma, k=0):
    """Residue of ``ell_gamma(z; tau, sigma)`` at the tower pole ``z = -k tau``.

    At ``z = 0`` the residue is ``-1 / (2 pi i (tau; tau)(sigma; sigma))``;
    each step down the tau tower divides by another ``theta0(-j tau; sigma)``
    via the shift equation.
    """
    if k < 0:
        raise ValueError(f"tower index must be >= 0, got {k}")
    two_pi_i = 2j * math.pi
    base = -1 / (
        two_pi_i
        * qpoch1_add(tau, tau)
        * qpoch1_add(sigma, sigma)
    )
    for j in range(1, k + 1):
        base = base / theta0(-j * tau, sigma)
    return base


def ell_gamma_modular_Q(z, tau, sigma):
    """Cubic exponent polynomial of the elliptic gamma modular relation.

    Returns ``Q(z; tau, sigma)`` such that

    ``ell_gamma(z/sigma; tau/sigma, -1/sigma) =
    e^{pi i Q(z; tau, sigma)} ell_gamma((z - sigma)/tau; -1/tau, -sigma/tau)
    * ell_gamma(z; tau, sigma)``.
    """
    z = complex(z)
    tau = complex(tau)
    sigma = complex(sigma)
    ts = tau * sigma
    cubic = z**3 / (3 * ts)
    quadratic = -(tau + sigma - 1) / (2 * ts) * z**2
    linear = (tau**2 + sigma**2 + 3 * ts - 3 * tau - 3 * sigma + 1) / (6 * ts) * z
    constant = (tau + sigma - 1) * (1 / tau + 1 / sigma - 1) / 12
    return cubic + quadratic + linear + constant
