"""Elliptic special-function kernel.

Infinite q-Pochhammer products (single and double), theta functions,
the elliptic gamma function and theta functions of given level, in both
multiplicative (nome) and additive (half-period ratio) conventions.

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
``TruncationPolicy.term_epsilon``.  Because successive factor deviations
decay geometrically with ratio ``|q|`` (and ``|r|``), the neglected tail of
a single product changes the result by a relative amount of at most about
``tail_bound_factor * term_epsilon / (1 - |q|)``; for double products the
bound carries an extra ``1 / (1 - |r|)``.  Exceeding ``max_terms`` before
reaching the threshold raises :class:`NonConvergent`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import STANDARD

__all__ = [
    "TruncationPolicy",
    "ModularParam",
    "NonConvergent",
    "PoleHit",
    "DEFAULT_POLICY",
    "qpoch1",
    "qpoch2",
    "qpoch1_add",
    "theta0",
    "theta0_mult",
    "jacobi_theta",
    "jacobi_theta_prime0",
    "ell_gamma",
    "ell_gamma_modular_Q",
    "theta_level",
]


class NonConvergent(ArithmeticError):
    """An infinite product or series could not reach its truncation target."""


class PoleHit(ArithmeticError):
    """An evaluation point fell on (or numerically indistinguishably close
    to) a pole of the requested function."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for infinite products and theta series.

    Attributes
    ----------
    term_epsilon:
        Stop once the current factor satisfies ``|factor - 1| < term_epsilon``
        (for series: once trailing terms fall below this threshold relative
        to the accumulated sum).
    max_terms:
        Hard cap on factors/terms per product before :class:`NonConvergent`
        is raised.
    tail_bound_factor:
        Safety factor in the documented geometric tail bound.
    """

    term_epsilon: float = 1e-17
    max_terms: int = 100_000
    tail_bound_factor: float = 4.0


DEFAULT_POLICY = TruncationPolicy()

#: a denominator factor smaller than this is treated as an exact pole
POLE_EPSILON = 1e-13


@dataclass(frozen=True)
class ModularParam:
    """A modular parameter carried in both conventions.

    ``tau`` is the additive parameter (upper half-plane), ``nome`` the
    multiplicative one (punctured unit disk); they are linked by
    ``nome = exp(2 pi i tau)``.  Construct through :meth:`from_tau` or
    :meth:`from_nome`; both validate their domain.
    """

    tau: complex
    nome: complex

    @classmethod
    def from_tau(cls, tau, ctx=STANDARD) -> "ModularParam":
        tau = ctx.number(tau)
        if not tau.imag > 0:
            raise ValueError(f"additive modular parameter needs Im > 0, got {tau!r}")
        return cls(tau=tau, nome=ctx.e2pi(tau))

    @classmethod
    def from_nome(cls, nome, ctx=STANDARD) -> "ModularParam":
        nome = ctx.number(nome)
        if not 0 < abs(nome) < 1:
            raise ValueError(f"nome must lie in the punctured unit disk, got {nome!r}")
        # principal branch: Im tau = -log|nome| / 2pi > 0
        tau = ctx.log(nome) / (2j * ctx.pi)
        return cls(tau=tau, nome=nome)


def qpoch1(u, q, policy=None, ctx=STANDARD, pole_epsilon=None):
    """Single q-Pochhammer product ``(u; q) = prod_{n>=0} (1 - u q^n)``.

    Requires ``|q| < 1``.  If ``pole_epsilon`` is given, a factor with
    modulus below it raises :class:`PoleHit` (used for denominators).
    """
    pol = policy or DEFAULT_POLICY
    u = ctx.number(u)
    q = ctx.number(q)
    if not abs(q) < 1:
        raise NonConvergent(f"single product requires |q| < 1, got |q| = {abs(q)}")
    total = ctx.number(1)
    term = u
    for _ in range(pol.max_terms):
        if abs(term) < pol.term_epsilon:
            return total
        factor = 1 - term
        if pole_epsilon is not None and abs(factor) < pole_epsilon:
            raise PoleHit(f"vanishing factor 1 - {term!r} in (u; q)")
        total = total * factor
        term = term * q
    raise NonConvergent(
        f"(u; q) with |u| = {abs(u):.3g}, |q| = {abs(q):.6g} "
        f"did not converge within {pol.max_terms} factors"
    )


def qpoch2(u, q, r, policy=None, ctx=STANDARD, pole_epsilon=None):
    """Double q-Pochhammer product ``(u; q, r) = prod_{n,m>=0} (1 - u q^n r^m)``.

    Requires ``|q| < 1`` and ``|r| < 1``.  Evaluated as the layered product
    ``prod_{n>=0} (u q^n; r)``; the outer loop stops when an entire layer is
    within the truncation threshold of 1.
    """
    pol = policy or DEFAULT_POLICY
    u = ctx.number(u)
    q = ctx.number(q)
    if not abs(q) < 1:
        raise NonConvergent(f"double product requires |q| < 1, got |q| = {abs(q)}")
    total = ctx.number(1)
    layer_arg = u
    for _ in range(pol.max_terms):
        if abs(layer_arg) < pol.term_epsilon:
            return total
        total = total * qpoch1(layer_arg, r, pol, ctx, pole_epsilon)
        layer_arg = layer_arg * q
    raise NonConvergent(
        f"(u; q, r) with |u| = {abs(u):.3g}, |q| = {abs(q):.6g} "
        f"did not converge within {pol.max_terms} layers"
    )


def qpoch1_add(z, tau, policy=None, ctx=STANDARD, pole_epsilon=None):
    """Additive single product ``(z; tau) = prod_{n>=0} (1 - e^{2 pi i (z + n tau)})``."""
    return qpoch1(ctx.e2pi(z), ctx.e2pi(tau), policy, ctx, pole_epsilon)


def theta0(z, tau, policy=None, ctx=STANDARD):
    """``theta0(z; tau) = (z; tau) (tau - z; tau)`` (additive arguments).

    Entire in ``z``, zeros exactly on the lattice ``Z + tau Z``,
    quasi-periodic: ``theta0(z + 1) = theta0(z)`` and
    ``theta0(z + tau) = theta0(-z) = -e^{-2 pi i z} theta0(z)``.
    """
    q = ctx.e2pi(tau)
    return qpoch1(ctx.e2pi(z), q, policy, ctx) * qpoch1(ctx.e2pi(tau - z), q, policy, ctx)


def theta0_mult(u, q, policy=None, ctx=STANDARD):
    """Multiplicative form ``theta0(u; q) = (u; q) (q/u; q)``."""
    u = ctx.number(u)
    if u == 0:
        raise PoleHit("theta0 requires a nonzero multiplicative argument")
    q = ctx.number(q)
    return qpoch1(u, q, policy, ctx) * qpoch1(q / u, q, policy, ctx)


def jacobi_theta(z, tau, policy=None, ctx=STANDARD):
    """First Jacobi theta function.

    ``jacobi_theta(z; tau) = i e^{pi i tau / 4 - pi i z} (tau; tau) theta0(z; tau)``,
    normalized so that it is odd in ``z`` with a simple zero at ``z = 0``.
    """
    q = ctx.e2pi(tau)
    prefactor = 1j * ctx.epi(tau / 4 - z)
    return prefactor * qpoch1(q, q, policy, ctx) * theta0(z, tau, policy, ctx)


def jacobi_theta_prime0(tau, policy=None, ctx=STANDARD):
    """``d/dz jacobi_theta(z; tau)`` at ``z = 0``: ``2 pi e^{pi i tau/4} (tau; tau)^3``."""
    eta = qpoch1(ctx.e2pi(tau), ctx.e2pi(tau), policy, ctx)
    return 2 * ctx.pi * ctx.epi(tau / 4) * eta**3


def ell_gamma(z, tau, sigma, policy=None, ctx=STANDARD, pole_epsilon=POLE_EPSILON):
    """Elliptic gamma function (additive arguments).

    ``ell_gamma(z; tau, sigma) = (tau + sigma - z; tau, sigma) / (z; tau, sigma)``

    Meromorphic in ``z`` with poles descending from ``z = 0`` on
    ``Z - tau Z_{>=0} - sigma Z_{>=0}`` and zeros ascending from
    ``z = tau + sigma``.  Satisfies the reflection identity
    ``ell_gamma(z) * ell_gamma(tau + sigma - z) = 1`` and the shift
    ``ell_gamma(z + tau) = theta0(z; sigma) * ell_gamma(z)``.

    Raises :class:`PoleHit` when a denominator factor vanishes to within
    ``pole_epsilon``.
    """
    qt = ctx.e2pi(tau)
    qs = ctx.e2pi(sigma)
    numerator = qpoch2(ctx.e2pi(tau + sigma - z), qt, qs, policy, ctx)
    denominator = qpoch2(ctx.e2pi(z), qt, qs, policy, ctx, pole_epsilon)
    return numerator / denominator


def ell_gamma_residue(tau, sigma, k=0, policy=None, ctx=STANDARD):
    """Residue of ``ell_gamma(z; tau, sigma)`` at the tower pole ``z = -k tau``.

    At ``z = 0`` the residue is ``-1 / (2 pi i (tau; tau)(sigma; sigma))``;
    each step down the tau tower divides by another ``theta0(-j tau; sigma)``
    via the shift equation.
    """
    if k < 0:
        raise ValueError(f"tower index must be >= 0, got {k}")
    two_pi_i = 2j * ctx.pi
    base = -1 / (
        two_pi_i
        * qpoch1_add(tau, tau, policy, ctx)
        * qpoch1_add(sigma, sigma, policy, ctx)
    )
    for j in range(1, k + 1):
        base = base / theta0(-j * tau, sigma, policy, ctx)
    return base


def ell_gamma_modular_Q(z, tau, sigma, ctx=STANDARD):
    """Cubic exponent polynomial of the elliptic gamma modular relation.

    Returns ``Q(z; tau, sigma)`` such that

    ``ell_gamma(z/sigma; tau/sigma, -1/sigma) =
    e^{pi i Q(z; tau, sigma)} ell_gamma((z - sigma)/tau; -1/tau, -sigma/tau)
    * ell_gamma(z; tau, sigma)``.
    """
    z = ctx.number(z)
    tau = ctx.number(tau)
    sigma = ctx.number(sigma)
    ts = tau * sigma
    cubic = z**3 / (3 * ts)
    quadratic = -(tau + sigma - 1) / (2 * ts) * z**2
    linear = (tau**2 + sigma**2 + 3 * ts - 3 * tau - 3 * sigma + 1) / (6 * ts) * z
    constant = (tau + sigma - 1) * (1 / tau + 1 / sigma - 1) / 12
    return cubic + quadratic + linear + constant


def theta_level(mu, kappa, lam, tau, mode="product", policy=None, ctx=STANDARD):
    """Theta function of level ``kappa`` and characteristic ``mu``.

    Defined by the lattice sum over ``n`` in ``Z + mu/(2 kappa)`` of
    ``e^{2 pi i kappa (n^2 tau + n lam)}``; transforms under
    ``lam -> lam + 2 r + 2 s tau`` by ``e^{-2 pi i kappa (s^2 tau + s lam)}``.

    ``mode="product"`` uses the triple-product form

    ``e^{pi i tau mu^2 / (2 kappa) + pi i lam mu} (2 kappa tau; 2 kappa tau)
    * theta0(1/2 + mu tau + kappa tau + kappa lam; 2 kappa tau)``

    while ``mode="series"`` sums the definition directly with a symmetric
    window widened until the trailing terms fall below the truncation
    threshold.
    """
    if kappa != int(kappa) or kappa < 1:
        raise ValueError(f"level must be a positive integer, got {kappa!r}")
    kappa = int(kappa)
    pol = policy or DEFAULT_POLICY
    lam = ctx.number(lam)
    tau = ctx.number(tau)
    if not tau.imag > 0:
        raise NonConvergent(f"theta_level requires Im tau > 0, got {tau!r}")

    if mode == "product":
        prefactor = ctx.epi(tau * mu**2 / (2 * kappa) + lam * mu)
        scale = qpoch1_add(2 * kappa * tau, 2 * kappa * tau, pol, ctx)
        shifted = theta0(
            0.5 + mu * tau + kappa * tau + kappa * lam, 2 * kappa * tau, pol, ctx
        )
        return prefactor * scale * shifted
    if mode != "series":
        raise ValueError(f"mode must be 'product' or 'series', got {mode!r}")

    def term(j):
        n = j + mu / (2 * kappa)
        return ctx.e2pi(kappa * (n**2 * tau + n * lam))

    total = term(0)
    quiet = 0
    for j in range(1, pol.max_terms):
        step = term(j) + term(-j)
        total = total + step
        if abs(step) < pol.term_epsilon * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 3:
                return total
        else:
            quiet = 0
    raise NonConvergent(
        f"level-{kappa} theta series did not settle within {pol.max_terms} terms "
        f"(Im tau = {tau.imag:.3g} may be too small)"
    )
