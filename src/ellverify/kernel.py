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

``theta0``, ``jacobi_theta`` and ``ell_gamma`` also take a numpy array ``z``.
There ``ell_gamma`` is ``(1 - y)/(1 - x) exp(F(x) - F(y))``, ``x = e^{2 pi i z}``,
``y = pq/x``, on the log series ``F(w) = sum_{n>=1} w^n (a_n - 1)/n``,
``a_n = 1/((1 - p^n)(1 - q^n))`` (Felder & Varchenko, Adv. Math. 156 (2000)),
valid for ``-m < Im z < Im(tau + sigma) + m``, ``m = min(Im tau, Im sigma)``;
``a_n - 1`` is formed as ``(p^n + q^n - p^n q^n) a_n``, never as a difference.
The fewest shifts ``ell_gamma(z + tau) = theta0(z; sigma) ell_gamma(z)`` by
the larger-Im modulus bring ``z`` into ``0 <= Im z <= Im(tau + sigma)``, where
``|x|, |y| <= 1``; the sum stops at the first power of its ratio
``max|w| max(|p|, |q|)`` below ``TERM_EPSILON``.  ``theta0`` reduces ``z`` into
``0 <= Im z < Im tau`` by ``theta0(z + tau) = -e^{-2 pi i z} theta0(z)``, then
takes ``(x; q)(q/x; q)`` as one outer product.  A node on a pole (``x = 1`` or
a vanishing shift factor) raises :class:`PoleHit`, a term count beyond
``MAX_TERMS`` :class:`NonConvergent`.  Scalar calls keep the loops: on a
2-core x86_64 host (CPython 3.11.7, numpy 2.4.6) a one-element array took
4.4x the scalar loop for ``theta0`` and 2.6x for ``ell_gamma`` at ``Im tau =
0.7``, and the pointwise checks make only scalar calls.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

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
#: node x term cells in one block of the array path's work arrays
_BLOCK_CELLS = 1 << 12


def e2pi(z):
    """``exp(2 pi i z)``, the additive-to-multiplicative convention map."""
    return cmath.exp(2j * math.pi * complex(z))


def epi(z):
    """``exp(pi i z)`` (half-period phases)."""
    return cmath.exp(1j * math.pi * complex(z))


def _term_count(ratio):
    """Terms of a geometric series of ``ratio`` down to ``TERM_EPSILON``."""
    count = math.ceil(math.log(TERM_EPSILON) / math.log(ratio)) if 0 < ratio < 1 else 1
    if not ratio < 1 or count > MAX_TERMS:
        raise NonConvergent(f"series of ratio {ratio:.6g} needs more than {MAX_TERMS} terms")
    return max(1, count)


@functools.lru_cache(maxsize=32)
def _theta_powers(tau):
    """``q^n`` for ``n = 0 ..`` down to ``TERM_EPSILON``."""
    return np.exp(2j * math.pi * tau * np.arange(_term_count(abs(e2pi(tau))) + 1))


@functools.lru_cache(maxsize=32)
def _gamma_coefficients(tau, sigma):
    """The ratio ``max(|p|, |q|)`` and ``(a_n - 1) / n`` for ``n = 1 ..``."""
    ratio = max(abs(e2pi(tau)), abs(e2pi(sigma)))
    n = np.arange(1, _term_count(ratio) + 1)
    pn, qn = np.exp(2j * math.pi * tau * n), np.exp(2j * math.pi * sigma * n)
    return ratio, (pn + qn - pn * qn) / (n * (1 - pn) * (1 - qn))


def _power_sum(w, ratio, coeffs):
    """``sum_n coeffs[n - 1] w**n`` for each entry of ``w`` (``|w| <= 1``),
    to the first power of ``max|w| * ratio`` below ``TERM_EPSILON``."""
    coeffs = coeffs[: _term_count(float(np.abs(w).max()) * ratio)]
    out = np.empty(len(w), dtype=complex)
    rows = max(1, _BLOCK_CELLS // len(coeffs))
    for start in range(0, len(w), rows):
        powers = w[start : start + rows][None]
        while len(powers) < len(coeffs):
            powers = np.concatenate((powers, powers[: len(coeffs) - len(powers)] * powers[-1]))
        # a plain sum: a BLAS product may start threads for a few hundred cells
        out[start : start + rows] = (powers * coeffs[:, None]).sum(axis=0)
    return out


def _theta0_array(z, tau):
    qn = _theta_powers(tau)
    k = np.floor(z.imag / tau.imag)
    w = z - k * tau
    value = np.empty(len(z), dtype=complex)
    rows = max(1, _BLOCK_CELLS // (2 * len(qn)))
    for start in range(0, len(z), rows):
        block = w[start : start + rows]
        xv = np.exp(2j * math.pi * np.stack((block, tau - block)))
        value[start : start + rows] = (1 - qn[:, None, None] * xv).prod(axis=(0, 1))
    # theta0(w + k tau) = (-1)^k e^{-2 pi i (k w + tau k (k - 1) / 2)} theta0(w)
    return value * np.exp(1j * math.pi * (k - 2 * k * w - tau * k * (k - 1))) if k.any() else value


def _ell_gamma_array(z, tau, sigma):
    tau, sigma = sorted((complex(tau), complex(sigma)), key=lambda m: -m.imag)
    ratio, coeffs = _gamma_coefficients(tau, sigma)
    top = (tau + sigma).imag
    k = np.ceil(np.maximum(-z.imag, 0) / tau.imag)
    k -= np.ceil(np.maximum(z.imag - top, 0) / tau.imag)
    w = z + k * tau
    xy = np.exp(2j * math.pi * np.concatenate((w, tau + sigma - w)))
    x, y = xy.reshape(2, -1)
    if np.any(np.abs(1 - x) < POLE_EPSILON):
        raise PoleHit("ell_gamma argument on its pole lattice")
    logs = _power_sum(xy, ratio, coeffs).reshape(2, -1)
    value = (1 - y) / (1 - x) * np.exp(logs[0] - logs[1])
    # ell_gamma(z) = ell_gamma(z + k tau) / prod_{0 <= j < k} theta0(z + j tau; sigma)
    for j in range(int(k.max(initial=0))):
        shift = _theta0_array(z[k > j] + j * tau, sigma)
        if np.any(np.abs(shift) < POLE_EPSILON):
            raise PoleHit("ell_gamma argument on its pole lattice")
        value[k > j] /= shift
    # and for k < 0, times prod_{1 <= j <= -k} theta0(z - j tau; sigma)
    for j in range(1, 1 - int(k.min(initial=0))):
        value[k <= -j] *= _theta0_array(z[k <= -j] - j * tau, sigma)
    return value


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
    if isinstance(z, np.ndarray):
        return _theta0_array(z.ravel(), tau).reshape(z.shape)
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
    if isinstance(z, np.ndarray):
        return 1j * np.exp(1j * math.pi * (tau / 4 - z)) * qpoch1(q, q) * theta0(z, tau)
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
    if isinstance(z, np.ndarray):
        return _ell_gamma_array(z.ravel(), tau, sigma).reshape(z.shape)
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
