"""Elliptic special-function kernel.

Infinite q-Pochhammer products (single and double), theta functions and
the elliptic gamma function, in multiplicative (nome) and additive
(half-period ratio) conventions.  Elsewhere a product of these values is a
``special.product`` declaration, with no exception.

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
Every product and series takes its term count up front from the ratio of
its terms (``|q|``, and ``|r|`` for the layers of a double product) and its
first term, down to the first power below ``TERM_EPSILON``; a product whose
first term is already below it is empty.  Because successive factor
deviations decay geometrically with ratio ``|q|``, the neglected tail of a
single product changes the result by a relative amount of at most about
``4 * TERM_EPSILON / (1 - |q|)``; for double products the bound carries an
extra ``1 / (1 - |r|)``.  A ratio of 1 or more, or a count beyond
``MAX_TERMS``, raises :class:`NonConvergent`.

``ell_gamma`` is ``(1 - y)/(1 - x) exp(sum_n c_n (x^n - y^n))``,
``x = e^{2 pi i z}``, ``y = pq/x``, ``c_n = (a_n - 1)/n``,
``a_n = 1/((1 - p^n)(1 - q^n))``, on the log series of Felder & Varchenko
(Adv. Math. 156 (2000)), valid for ``-m < Im z < Im(tau + sigma) + m``,
``m = min(Im tau, Im sigma)``; ``a_n - 1`` is formed as
``(p^n + q^n - p^n q^n) a_n``, never as a difference, and the ``c_n`` are
tabulated once per moduli pair.  The fewest shifts
``ell_gamma(z + tau) = theta0(z; sigma) ell_gamma(z)`` by the larger-Im
modulus bring ``z`` into ``0 <= Im z <= Im(tau + sigma)``, where
``|x|, |y| <= 1``; the sum stops at the first power of its ratio
``max(|x|, |y|) max(|p|, |q|)`` below ``TERM_EPSILON``.  A point on a pole
(``x = 1``, or a shift factor that vanishes in a denominator) raises
:class:`PoleHit`.
No double product ``qpoch2`` is taken.

``theta0``, ``jacobi_theta``, ``ell_gamma`` and ``qpoch1_add`` also take
numpy arrays, ``z`` and the moduli alike, broadcast together.  Scalars run
the formulas above as one plain loop over Python complex numbers, and
scalar ``theta0`` is the one loop over ``(1 - x q^n)(1 - q^{n+1}/x)``; on a
2-core x86_64 host (CPython 3.11.7, numpy 2.4.6) a one-element array took
5-6x the scalar loop for ``ell_gamma``.  So a single draw of a pointwise
check makes scalar calls, while a batch of draws (``catalog.run_batch``)
passes one modulus per draw and each quadrature passes its node array with
scalar moduli.  A modulus of ``theta0``, ``jacobi_theta`` or ``ell_gamma``
is a number or one axis ``(N,)`` of moduli, one per draw; more axes raise
``ValueError``.  Against moduli per draw ``z`` may stack rows of arguments
``(G, N)``, as a group of factors does, so their tables stay one column per
draw.  An array ``theta0`` reduces ``z`` into ``0 <= Im z < Im tau`` by
``theta0(z + tau) = -e^{-2 pi i z} theta0(z)``, then takes
``(x; q)(q/x; q)`` as one outer product.  Scalar moduli keep their cached
tables (``_theta_powers``, ``_gamma_coefficients``); a modulus per draw
gets its powers as running products, cached by the bytes of its array, so
the factors of a batch that share moduli build them once, and
``jacobi_theta`` takes its ``(tau; tau)`` from the same powers.  The
``theta0`` shift factors of ``ell_gamma`` are taken at the shifted points
alone; for moduli per draw their selection of moduli gets its table
outside the cache, which it would only miss and churn.  Every point takes
as many terms as the slowest point of its array needs.  Only ``theta0``'s
work array, the largest the kernel makes, is cut: into blocks of whole
columns of at most ``_BLOCK_CELLS`` cells, or one column.  The power sums
of ``ell_gamma`` and the product of ``qpoch1_add`` take their arrays
whole, so a caller passes its whole array in one call.
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
    "jacobi_theta",
    "ell_gamma",
    "ell_gamma_modular_Q",
]


class NonConvergent(ArithmeticError):
    """An infinite product or series could not reach its truncation target."""


class PoleHit(ArithmeticError):
    """An evaluation point fell on (or numerically indistinguishably close
    to) a pole of the requested function."""


#: a product or series takes its terms down to the first one below this
TERM_EPSILON = 1e-17
#: the most terms (factors or layers) of one product or series; more raise :class:`NonConvergent`
MAX_TERMS = 100_000
#: a denominator factor smaller than this is treated as an exact pole
POLE_EPSILON = 1e-13
#: point x term cells in one block of ``theta0``'s work array
_BLOCK_CELLS = 1 << 13


def e2pi(z):
    """``exp(2 pi i z)``, the additive-to-multiplicative convention map."""
    if isinstance(z, np.ndarray):
        return np.exp(2j * math.pi * z)
    return cmath.exp(2j * math.pi * complex(z))


def epi(z):
    """``exp(pi i z)`` (half-period phases)."""
    if isinstance(z, np.ndarray):
        return np.exp(1j * math.pi * z)
    return cmath.exp(1j * math.pi * complex(z))


def _rows(z, *moduli):
    """The broadcast shape, ``z`` as rows ``(G, N)`` and the moduli as one
    entry per column ``(N,)``, broadcast over the rows and never tiled.  A
    modulus of more than one axis raises ``ValueError``."""
    z = np.asarray(z, dtype=complex)
    moduli = [np.asarray(m, dtype=complex) for m in moduli]
    columns = moduli[0].shape
    # a group's rows against its moduli, the common case, needs no broadcast
    if len(columns) == 1 and z.shape[-1:] == columns and all(m.shape == columns for m in moduli):
        return z.shape, z.reshape(-1, columns[0]), moduli
    if any(m.ndim > 1 for m in moduli):
        raise ValueError("a modulus is a number or one axis of moduli")
    shape = np.broadcast_shapes(z.shape, *(m.shape for m in moduli))
    columns = shape[-1:] or (1,)
    z = np.broadcast_to(z, shape).reshape(-1, columns[0])
    return shape, z, [np.broadcast_to(m, columns) for m in moduli]


def _part(modulus, columns):
    """The entries of a per-column ``modulus`` at ``columns``; a scalar as it is."""
    return modulus[columns] if isinstance(modulus, np.ndarray) else modulus


def _term_count(ratio, start=1.0):
    """Terms of a geometric series of ``ratio`` from ``start`` down to ``TERM_EPSILON``."""
    count = math.ceil(math.log(TERM_EPSILON / start) / math.log(ratio)) if 0 < ratio < 1 else 1
    if not ratio < 1 or count > MAX_TERMS:
        raise NonConvergent(f"series of ratio {ratio:.6g} needs more than {MAX_TERMS} terms")
    return max(1, count)


@functools.lru_cache(maxsize=32)
def _theta_powers(tau):
    """``q^n`` for ``n = 0 ..`` down to ``TERM_EPSILON``."""
    return np.exp(2j * math.pi * tau * np.arange(_term_count(abs(e2pi(tau))) + 1))


@functools.lru_cache(maxsize=32)
def _gamma_coefficients(tau, sigma):
    """The ratio ``max(|p|, |q|)``, a list of ``(a_n - 1) / n`` for
    ``n = 1 ..`` for the scalar loop, and the list as one numpy column for
    the array path."""
    p, q = e2pi(tau), e2pi(sigma)
    ratio = max(abs(p), abs(q))
    coeffs, pn, qn = [], 1, 1
    for n in range(1, _term_count(ratio) + 1):
        pn *= p
        qn *= q
        coeffs.append((pn + qn - pn * qn) / (n * (1 - pn) * (1 - qn)))
    return ratio, coeffs, np.array(coeffs)[:, None]


def _theta_power_table(tau):
    """:func:`_theta_powers` for moduli ``tau`` given per column: one column
    per modulus, as many powers as the largest ``|q|`` needs, and two middle
    axes of length 1."""
    q = e2pi(tau)
    count = _term_count(float(np.abs(q).max()))
    # running products, as scalar theta0's a *= q: one exp per point, not per power
    qn = np.empty((count + 1, len(q)), complex)
    qn[0], qn[1:] = 1, q
    np.cumprod(qn, axis=0, out=qn)
    return qn[:, None, None]


@functools.lru_cache(maxsize=8)
def _theta_power_columns(key):
    """:func:`_theta_power_table` of the moduli whose complex array has the
    bytes ``key``, read-only: the factors of a batch that share moduli build
    it once."""
    qn = _theta_power_table(np.frombuffer(key, dtype=complex))
    qn.flags.writeable = False  # shared by every caller
    return qn


@functools.lru_cache(maxsize=2)
def _gamma_coefficient_columns(tau_key, sigma_key):
    """:func:`_gamma_coefficients`' column for moduli given per column, as the
    bytes of their complex arrays: the largest ratio, and one column per
    modulus pair, as long as the slowest pair needs, with a middle axis of
    length 1."""
    p, q = (e2pi(np.frombuffer(key, dtype=complex)) for key in (tau_key, sigma_key))
    ratio = float(np.maximum(np.abs(p), np.abs(q)).max())
    count = _term_count(ratio)
    # running products, as the scalar table's pn *= p
    pn, qn = np.empty((2, count, len(p)), complex)
    pn[:], qn[:] = p, q
    np.cumprod(pn, axis=0, out=pn)
    np.cumprod(qn, axis=0, out=qn)
    n = np.arange(1, count + 1)[:, None]
    coeffs = (pn + qn - pn * qn) / (n * (1 - pn) * (1 - qn))
    coeffs.flags.writeable = False  # shared by every caller
    return ratio, coeffs[:, None]


def _power_sum(w, ratio, coeffs):
    """``sum_n coeffs[n - 1] w**n`` for each entry of ``w`` (``|w| <= 1``),
    to the first power of ``max|w| * ratio`` below ``TERM_EPSILON``: ``w``
    flat against one column of ``coeffs``, or rows against one per column.
    """
    coeffs = coeffs[: _term_count(float(np.abs(w).max()) * ratio)]
    powers = w[None]
    while len(powers) < len(coeffs):
        powers = np.concatenate((powers, powers[: len(coeffs) - len(powers)] * powers[-1]))
    # a plain sum: a BLAS product may start threads for a few hundred cells
    return (powers * coeffs).sum(axis=0)


def _theta0_array(z, tau, qn=None):
    """``theta0`` at the points ``z``: a flat array against one modulus
    ``tau``, or rows ``(G, N)`` against one modulus per column, whose power
    table ``qn`` is looked up in the cache unless given."""
    if isinstance(tau, np.ndarray):
        qn = _theta_power_columns(tau.tobytes()) if qn is None else qn
    else:
        qn = _theta_powers(tau)[:, None, None]
    k = np.floor(z.imag / tau.imag)
    w = z - k * tau
    value = np.empty(z.shape, dtype=complex)
    # blocks of whole columns, as many as _BLOCK_CELLS work cells hold, and one at least
    step = max(1, _BLOCK_CELLS // (2 * len(qn) * max(1, math.prod(z.shape[:-1]))))
    for start in range(0, z.shape[-1], step):
        block = slice(start, start + step)
        part = w[..., block]
        xv = np.exp(2j * math.pi * np.array((part, _part(tau, block) - part)))
        q = qn if qn.shape[-1] == 1 else qn[..., block]
        value[..., block] = (1 - q * xv).prod(axis=(0, 1))
    # theta0(w + k tau) = (-1)^k e^{-2 pi i (k w + tau k (k - 1) / 2)} theta0(w)
    return value * np.exp(1j * math.pi * (k - 2 * k * w - tau * k * (k - 1))) if k.any() else value


def _theta0_at(z, offset, tau, at):
    """``theta0(z + offset; tau)`` at the points ``at`` of ``z``, as one row.
    For a modulus per column, the points' moduli are a selection that no
    later call repeats, so their table is built outside the cache: it would
    miss there and evict the tables the batch's factors share."""
    if isinstance(tau, np.ndarray):
        columns = np.nonzero(at)[-1]
        tau = tau[columns]
        return _theta0_array((z[at] + offset[columns])[None], tau, _theta_power_table(tau))[0]
    return _theta0_array(z[at] + offset, tau)


def _larger_im_first(tau, sigma):
    """The moduli as complex numbers, the one of larger imaginary part first
    (per point when they are arrays)."""
    if isinstance(tau, np.ndarray):
        swap = sigma.imag > tau.imag
        return np.where(swap, sigma, tau), np.where(swap, tau, sigma)
    tau, sigma = complex(tau), complex(sigma)
    return (sigma, tau) if sigma.imag > tau.imag else (tau, sigma)


def _ell_gamma_array(z, tau, sigma):
    """``ell_gamma`` at the points ``z``: a flat array against two moduli, or
    rows ``(G, N)`` against two moduli per column."""
    tau, sigma = _larger_im_first(tau, sigma)
    if isinstance(tau, np.ndarray):
        ratio, coeffs = _gamma_coefficient_columns(tau.tobytes(), sigma.tobytes())
    else:
        ratio, _, coeffs = _gamma_coefficients(tau, sigma)
    top = (tau + sigma).imag
    k = np.ceil(np.maximum(-z.imag, 0) / tau.imag)
    k -= np.ceil(np.maximum(z.imag - top, 0) / tau.imag)
    w = z + k * tau
    xy = np.exp(2j * math.pi * np.concatenate((w, tau + sigma - w)))
    x, y = xy[: len(z)], xy[len(z) :]
    if np.any(np.abs(1 - x) < POLE_EPSILON):
        raise PoleHit("ell_gamma argument on its pole lattice")
    logs = _power_sum(xy, ratio, coeffs)
    value = (1 - y) / (1 - x) * np.exp(logs[: len(z)] - logs[len(z) :])
    # ell_gamma(z) = ell_gamma(z + k tau) / prod_{0 <= j < k} theta0(z + j tau; sigma)
    for j in range(int(k.max(initial=0))):
        at = k > j
        shift = _theta0_at(z, j * tau, sigma, at)
        if np.any(np.abs(shift) < POLE_EPSILON):
            raise PoleHit("ell_gamma argument on its pole lattice")
        value[at] /= shift
    # and for k < 0, times prod_{1 <= j <= -k} theta0(z - j tau; sigma)
    for j in range(1, 1 - int(k.min(initial=0))):
        at = k <= -j
        value[at] *= _theta0_at(z, -j * tau, sigma, at)
    return value


def _ell_gamma_scalar(z, tau, sigma):
    """The array path's series and window as a plain loop over one point."""
    tau, sigma = _larger_im_first(tau, sigma)
    ratio, coeffs, _ = _gamma_coefficients(tau, sigma)
    z = complex(z)
    top = (tau + sigma).imag
    k = math.ceil(max(-z.imag, 0) / tau.imag) - math.ceil(max(z.imag - top, 0) / tau.imag)
    w = z + k * tau
    x, y = e2pi(w), e2pi(tau + sigma - w)
    if abs(1 - x) < POLE_EPSILON:
        raise PoleHit("ell_gamma argument on its pole lattice")
    total, xn, yn = 0j, 1, 1
    for c in coeffs[: _term_count(max(abs(x), abs(y)) * ratio)]:
        xn *= x
        yn *= y
        total += c * (xn - yn)
    value = (1 - y) / (1 - x) * cmath.exp(total)
    for j in range(k):
        shift = theta0(z + j * tau, sigma)
        if abs(shift) < POLE_EPSILON:
            raise PoleHit("ell_gamma argument on its pole lattice")
        value /= shift
    for j in range(1, 1 - k):
        value *= theta0(z - j * tau, sigma)
    return value


def _factor_count(u, q):
    """Factors ``u q^n`` of a product down to ``TERM_EPSILON``, none when
    ``|u|`` is already below it; ``|q| >= 1`` raises even then."""
    count = _term_count(abs(q), max(abs(u), TERM_EPSILON))
    return count if abs(u) >= TERM_EPSILON else 0


def qpoch1(u, q):
    """Single q-Pochhammer product ``(u; q) = prod_{n>=0} (1 - u q^n)``.

    Requires ``|q| < 1``.
    """
    u = complex(u)
    q = complex(q)
    total = complex(1)
    for _ in range(_factor_count(u, q)):
        total = total * (1 - u)
        u = u * q
    return total


def qpoch2(u, q, r):
    """Double q-Pochhammer product ``(u; q, r) = prod_{n,m>=0} (1 - u q^n r^m)``.

    Requires ``|q| < 1`` and ``|r| < 1``.  Evaluated as the layered product
    ``prod_{n>=0} (u q^n; r)``, whose layers are counted as a layer's factors are.
    """
    u = complex(u)
    q = complex(q)
    total = complex(1)
    for _ in range(_factor_count(u, q)):
        total = total * qpoch1(u, r)
        u = u * q
    return total


def qpoch1_add(z, tau):
    """Additive single product ``(z; tau) = prod_{n>=0} (1 - e^{2 pi i (z + n tau)})``.

    ``z`` and ``tau`` may be numpy arrays that broadcast together; then every
    point takes as many factors as the slowest point needs.
    """
    if not (isinstance(z, np.ndarray) or isinstance(tau, np.ndarray)):
        return qpoch1(e2pi(z), e2pi(tau))
    term, q = e2pi(np.asarray(z, dtype=complex)), e2pi(np.asarray(tau, dtype=complex))
    count = _term_count(float(np.abs(q).max()), float(np.abs(term).max()))
    # the terms u q^n as running products, as qpoch1's term *= q
    terms = np.empty((count, *np.broadcast_shapes(term.shape, q.shape)), complex)
    terms[0], terms[1:] = term, q
    np.cumprod(terms, axis=0, out=terms)
    return (1 - terms).prod(axis=0)


def theta0(z, tau):
    """``theta0(z; tau) = (z; tau) (tau - z; tau)`` (additive arguments).

    Entire in ``z``, zeros exactly on the lattice ``Z + tau Z``,
    quasi-periodic: ``theta0(z + 1) = theta0(z)`` and
    ``theta0(z + tau) = theta0(-z) = -e^{-2 pi i z} theta0(z)``.
    """
    if isinstance(tau, np.ndarray):
        shape, z, (tau,) = _rows(z, tau)
        return _theta0_array(z, tau).reshape(shape)
    if isinstance(z, np.ndarray):
        return _theta0_array(z.ravel(), tau).reshape(z.shape)
    # one loop over (1 - x q^n)(1 - q^{n+1}/x), x = e^{2 pi i z}
    q, a, b = e2pi(tau), e2pi(z), e2pi(tau - z)
    total = complex(1)
    for _ in range(_term_count(abs(q), max(abs(a), abs(b)))):
        total *= (1 - a) * (1 - b)
        a *= q
        b *= q
    return total


def _euler_columns(tau):
    """``(tau; tau)`` for moduli given per column: the product of ``1 - q^n``
    over the rows ``n >= 1`` of the power table that :func:`theta0` caches."""
    tau = tau.astype(complex, copy=False)
    return (1 - _theta_power_columns(tau.tobytes())[1:, 0, 0]).prod(axis=0).reshape(tau.shape)


def jacobi_theta(z, tau):
    """First Jacobi theta function.

    ``jacobi_theta(z; tau) = i e^{pi i tau / 4 - pi i z} (tau; tau) theta0(z; tau)``,
    normalized so that it is odd in ``z`` with a simple zero at ``z = 0``.
    """
    euler = _euler_columns(tau) if isinstance(tau, np.ndarray) else qpoch1_add(tau, tau)
    return 1j * epi(tau / 4 - z) * euler * theta0(z, tau)


def ell_gamma(z, tau, sigma):
    """Elliptic gamma function (additive arguments).

    ``ell_gamma(z; tau, sigma) = (tau + sigma - z; tau, sigma) / (z; tau, sigma)``

    Meromorphic in ``z`` with poles descending from ``z = 0`` on
    ``Z - tau Z_{>=0} - sigma Z_{>=0}`` and zeros ascending from
    ``z = tau + sigma``.  Satisfies the reflection identity
    ``ell_gamma(z) * ell_gamma(tau + sigma - z) = 1`` and the shift
    ``ell_gamma(z + tau) = theta0(z; sigma) * ell_gamma(z)``.

    Summed on the log series after the shifts described in the module
    docstring.  Raises :class:`PoleHit` when the reduced argument sits on
    the pole ``x = 1``, or a shift factor in a denominator vanishes, to
    within ``POLE_EPSILON``.
    """
    if isinstance(tau, np.ndarray) or isinstance(sigma, np.ndarray):
        shape, z, (tau, sigma) = _rows(z, tau, sigma)
        return _ell_gamma_array(z, tau, sigma).reshape(shape)
    if isinstance(z, np.ndarray):
        return _ell_gamma_array(z.ravel(), tau, sigma).reshape(z.shape)
    return _ell_gamma_scalar(z, tau, sigma)


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
    * ell_gamma(z; tau, sigma)``.  The arguments may be numpy arrays.
    """
    # powers as products: numpy takes a complex ** 3 through exp and log, where
    # Python multiplies (the same products, so scalars keep every bit)
    ts = tau * sigma
    zz = z * z
    cubic = zz * z / (3 * ts)
    quadratic = -(tau + sigma - 1) / (2 * ts) * zz
    linear = (tau * tau + sigma * sigma + 3 * ts - 3 * tau - 3 * sigma + 1) / (6 * ts) * z
    constant = (tau + sigma - 1) * (1 / tau + 1 / sigma - 1) / 12
    return cubic + quadratic + linear + constant
