"""Integrands and closed forms of the verified identity family.

Contents: a balanced elliptic beta integral, two quarter-shift integral
evaluations, an antisymmetrized theta hypergeometric integral with its
product evaluation, the three-dimensional-representation hypergeometric
function ``fv_u``, the level-kappa hypergeometric theta functions, the
normalized symmetrized ratio ``ellmac_P`` with its two special-value closed
forms, and the three-term modular relations (the supporting lemmas are in
:mod:`.lemmas`).  ``ellmac_P`` integrates its quotient: the reciprocal
denominator, and near its zeros a mean over a small circle, weight the terms.

Functions receive additive parameters (moduli in the upper half-plane) and
return builtin complex numbers.  Each integral evaluator declares its
integrand once, as an :class:`Integrand`: kernel factors
``f(shift + slope t; moduli) ** power`` times a phase that has no poles and,
for a sum such as :func:`I_sym` or :func:`ellmac_P`, one term per sign of
``lam`` (and per point), so that the sum is one quadrature.  A closed form
is the same declaration with every slope 0, evaluated by :func:`product`; what is not a
product of kernel values (a phase, a square root) is its scale.  Every
product of kernel values in the package is such a declaration, the scales
of the gamma-pair forms and the products of :mod:`.bridge` too, its double
product block as a gamma times two ``(z; tau)`` factors.  On a node array,
and on a batch of draws (one shift, modulus or scale entry per draw), the
factors that share a kernel function and moduli, those of the
terms included, make one kernel call on their stacked arguments; a number
takes one scalar kernel call per factor.  Every
integral evaluator ends in one call, :func:`audited_integral`, which derives
the pole inventory from the factors (:func:`pole_inventory`), picks the path
from it, audits the path and then runs the periodic trapezoid rule from a
first batch sized by the audit clearance, the strip half-width in the path
parameter that no listed pole enters.  A path the audit rejects raises
:class:`~ellverify.contour.PoleOnPath`, and a quadrature that converges far
slower than its clearance predicts raises its subclass
:class:`~ellverify.contour.MissedPole`.

An integral over a cycle that separates two gamma towers is the straight
period plus one tower correction, :func:`gamma_pair_tower_correction`, which
:func:`audited_integral` adds when given the integrand's gamma-pair form: a
declaration whose first two factors are ``gamma(a + t)`` and
``gamma(a - t)``, so that every crossed pole is a simple pole of one of them
and the rest of the declaration, its terms included, is the entire part.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import CLEARANCE, Path, PoleOnPath, PoleSpec, integrate, pole_audit
from .kernel import (
    PoleHit,
    e2pi,
    ell_gamma,
    ell_gamma_residue,
    epi,
    jacobi_theta,
    qpoch1_add,
    theta0,
)

__all__ = [
    "BalanceViolation",
    "DomainViolation",
    "Factor",
    "Integrand",
    "product",
    "pole_inventory",
    "audited_integral",
    "spiridonov_lhs",
    "spiridonov_rhs",
    "eval1_lhs",
    "eval1_rhs",
    "eval2_lhs",
    "eval2_rhs",
    "gamma_pair_tower_correction",
    "j1_factors",
    "asym_pair_form",
    "I_tilde",
    "I_sym",
    "eval3_rhs",
    "fv_u",
    "fv_val1_rhs",
    "fv_val2_rhs",
    "Q_factor",
    "htf_I_tilde",
    "delta_tilde",
    "delta_tilde_series",
    "lattice_distance",
    "ellmac_P",
    "ellmac_val_rhs",
    "ellmac_eval_rhs",
    "s_minus",
    "s_plus",
    "mod_minus_rhs",
    "mod_plus_rhs",
]

#: a denominator of :func:`Q_factor` below this (relative to theta'(0)) is a pole
Q_POLE_EPSILON = 1e-12
#: :func:`delta_tilde_series` stops once the Gaussian weight of a term is below this
SERIES_TAIL = 1e-13


class BalanceViolation(ValueError):
    """The six elliptic beta parameters do not sum to tau + sigma."""


class DomainViolation(ValueError):
    """Parameters violate a stated precondition of the identity."""


def _require(condition, message):
    if not condition:
        raise DomainViolation(message)


# ---------------------------------------------------------------------------
# integrands declared as factor lists


#: the kernel function of each factor kind, by its name in this module: looked
#: up at call time, so a wrapper bound to that name here sees every call
_KERNELS = {
    "gamma": "ell_gamma", "theta0": "theta0", "jacobi": "jacobi_theta", "qpoch": "qpoch1_add"
}


@dataclass(frozen=True)
class Factor:
    """``f(shift + slope t; *moduli) ** power`` for one kernel function ``f``.

    ``kind`` names ``f``: ``"gamma"`` is :func:`ell_gamma` (two moduli),
    ``"theta0"``, ``"jacobi"`` and ``"qpoch"`` are :func:`theta0`,
    :func:`jacobi_theta` and :func:`qpoch1_add` (one modulus).  ``slope`` is
    an integer and ``power`` a nonzero one; only the sign of ``power`` matters
    to the poles.  A factor of slope 0 is a constant, with no poles in ``t``;
    :func:`pole_inventory` knows no zeros of ``(z; tau)``, so a ``"qpoch"``
    factor is declared only so.  ``t`` may be a numpy array, and so may the
    shift and the moduli, one entry per draw of a batch.
    """

    kind: str
    shift: complex
    slope: int
    moduli: tuple
    power: int = 1

    def __call__(self, t):
        value = globals()[_KERNELS[self.kind]](self.shift + self.slope * t, *self.moduli)
        return value if self.power == 1 else value**self.power


@dataclass(frozen=True)
class Integrand:
    """``scale * e2pi(wind * t)`` times the product of ``factors`` at ``t``,
    times ``sum_k s_k prod(fs_k)`` over the ``(s_k, fs_k)`` of ``terms``, if any.

    The scale, the phase and each ``s_k`` have no poles, so every pole is a
    factor's.  On a numpy array ``t`` of nodes, or on a batch of draws (a
    shift, a modulus or a scale holds one entry per draw), the factors, term
    factors too, that share a kind and the values of their moduli are one
    group, which makes one kernel call on its stacked arguments: rows of
    nodes against one modulus, or rows of draws against a modulus per draw,
    which the kernel broadcasts over the rows; arrays of moduli group by
    their bytes, as the kernel's caches key them.  Each term takes its
    product from its own rows, and the kernel blocks its own work arrays.  A
    number ``t`` with numbers everywhere takes one scalar kernel call per
    factor; whether a declaration is a batch is found once, from the types
    of its values, so a declaration called again on numbers pays no scan.
    """

    factors: tuple
    scale: complex = 1
    wind: int = 0
    terms: tuple = ()

    @functools.cached_property
    def _per_draw(self):
        """Whether a scale, a shift or a modulus holds one entry per draw."""
        values = [self.scale, *(s for s, _ in self.terms)]
        for f in self.factors + sum((fs for _, fs in self.terms), ()):
            values.append(f.shift)
            values += f.moduli
        return np.ndarray in set(map(type, values))

    @functools.cached_property
    def _groups(self):
        """``(kind, moduli, shifts, slopes, powers, slots, starts)`` of each
        group: a lone factor's own, ``starts`` ``None``; or rows, the slot of
        each run of rows, 0 for ``factors`` and ``k + 1`` for term ``k``, and
        its first row.  ``None`` for slopes all 0 or powers all 1."""
        members = {}
        for slot, factors in enumerate((self.factors, *(fs for _, fs in self.terms))):
            for f in factors:
                # moduli by value: a number as itself, an array by its bytes
                key = [m.tobytes() if type(m) is np.ndarray else m for m in f.moduli]
                members.setdefault((f.kind, *key), []).append((slot, f))
        groups = []
        for group in members.values():
            slots, factors = [slot for slot, _ in group], [f for _, f in group]
            first = factors[0]
            if len(factors) == 1:
                slopes = first.slope or None
                powers = None if first.power == 1 else first.power
                groups.append((first.kind, first.moduli, first.shift, slopes, powers, slots, None))
                continue
            shifts = [f.shift for f in factors]
            if np.ndarray in set(map(type, shifts)):
                # a row per factor, a column per draw: scalar shifts fill their rows
                rows = np.empty((len(shifts), max(getattr(x, "size", 1) for x in shifts)), complex)
                for row, shift in zip(rows, shifts):
                    row[...] = shift
                shifts = rows
            else:
                shifts = np.array(shifts, complex)[:, None]
            slopes = [[f.slope] for f in factors]
            powers = [[f.power] for f in factors]
            starts = [i for i, slot in enumerate(slots) if i == 0 or slot != slots[i - 1]]
            groups.append((
                first.kind, first.moduli, shifts,
                np.array(slopes) if any(f.slope for f in factors) else None,
                None if all(f.power == 1 for f in factors) else np.array(powers),
                [slots[i] for i in starts], starts,
            ))
        return tuple(groups)

    def __call__(self, t):
        phase = np.exp(2j * math.pi * self.wind * t) if self.wind else 1
        if isinstance(t, np.ndarray) or self._per_draw:
            parts = [self.scale * phase if self.wind else self.scale, *(s for s, _ in self.terms)]
            for kind, moduli, shifts, slopes, powers, slots, starts in self._groups:
                z = shifts if slopes is None else shifts + slopes * t
                values = globals()[_KERNELS[kind]](z, *moduli)
                if powers is not None:
                    values = values**powers
                if starts is None:
                    rows = (values,)
                elif len(slots) > 1:
                    rows = np.multiply.reduceat(values, starts)
                else:
                    rows = (values.prod(axis=0),)
                for slot, row in zip(slots, rows):
                    parts[slot] = parts[slot] * row
            return parts[0] * sum(parts[2:], parts[1]) if self.terms else parts[0]
        value = complex(self.scale) * phase
        for factor in self.factors:
            value = value * factor(t)
        if self.terms:
            value = value * sum(s * math.prod(f(t) for f in fs) for s, fs in self.terms)
        return value


def product(scale, *factors, terms=()):
    """The closed form ``scale`` times ``factors``, each of slope 0, times the
    sum of ``terms`` if any (see :class:`Integrand`): a number, or one entry
    per draw where a shift, a modulus or a scale is an array."""
    return Integrand(factors, scale, terms=terms)(0)


def _cone(start, steps, lo, hi):
    """Points ``start + sum_i n_i steps[i]`` (``n_i >= 0``) with ``lo < Im < hi``."""
    points = [complex(start)]
    for step in steps:
        edge = lo if step.imag < 0 else hi
        points = [
            p + n * step
            for p in points
            for n in range(max(0, math.ceil((edge - p.imag) / step.imag)))
        ]
    return [p for p in points if lo < p.imag < hi]


def pole_inventory(integrand):
    """Poles of ``integrand``'s factors and term factors within 1 of the real
    axis, reduced modulo 1, each with the side the path must pass on.

    A factor's argument ``z`` is singular on the lattice points below, each
    plus any integer: ``-j tau - k sigma`` for a gamma, the gamma zeros
    ``(j + 1) tau + (k + 1) sigma`` for a reciprocal gamma (``j, k >= 0``),
    and ``j tau`` for every integer ``j`` for a reciprocal theta; a theta in
    the numerator has none.  A pole stays listed when a zero of another
    factor cancels it.  A pole off the axis must stay on its side of the
    axis, as the straight period keeps it.  A pole on the axis takes its
    tower's side: the path passes above a member of a descending gamma tower,
    and below a member of an ascending one or a reciprocal-theta zero.
    """
    specs = []
    for factor in integrand.factors + sum((fs for _, fs in integrand.terms), ()):
        if factor.kind != "gamma" and factor.power > 0:
            continue
        moduli = [complex(m) for m in factor.moduli]
        _require(all(m.imag > 0 for m in moduli), "moduli must lie in the upper half-plane")
        shift = complex(factor.shift)
        reach = abs(factor.slope)
        lo, hi = shift.imag - reach, shift.imag + reach
        if factor.kind != "gamma":
            (tau,) = moduli
            arguments = _cone(0, (tau,), lo, hi) + _cone(-tau, (-tau,), lo, hi)
            descending = False
        elif factor.power > 0:
            arguments = _cone(0, [-m for m in moduli], lo, hi)
            descending = factor.slope > 0
        else:
            arguments = _cone(sum(moduli), moduli, lo, hi)
            descending = factor.slope < 0
        for z in arguments:
            # a slope of 2 puts two classes of poles in each period
            for m in range(reach):
                t = (z + m - shift) / factor.slope
                t = complex(t.real - math.floor(t.real + 0.5), t.imag)
                if t.imag:
                    side = "below" if t.imag > 0 else "above"
                else:
                    side = "above" if descending else "below"
                specs.append(PoleSpec(t, side))
    return list(dict.fromkeys(specs))


def audited_integral(integrand, pair=None):
    """The cycle integral of ``integrand``, plus the tower correction of its
    gamma-pair form ``pair`` if given.

    The cycle passes each pole of :func:`pole_inventory` on its listed side,
    and every path the audit passes gives its integral.  With no pole on the
    real axis the path is the straight period; otherwise it is the
    :class:`Path` of height ``min(0.1, 1/2 least |Im|)`` of the off-axis poles
    that passes above an axis pole at ``x0`` (or below one at ``x0 + 1/2``).
    A pole too close to it or on the wrong side raises :class:`PoleOnPath`.
    The audit clearance, the strip half-width in the path parameter that no
    listed pole enters, sizes the quadrature (:func:`integrate`).
    """
    poles = pole_inventory(integrand)
    axis = [p for p in poles if p.location.imag == 0]
    path = Path()
    if axis:
        least = min((abs(p.location.imag) for p in poles if p.location.imag), default=math.inf)
        above = [p.location.real for p in axis if p.side == "above"]
        path = Path(min(0.1, 0.5 * least), above[0] if above else axis[0].location.real + 0.5)
    report = pole_audit(path, poles)
    if not report.ok:
        bad = [e for e in report.entries if not e.ok]
        raise PoleOnPath(f"audit of {path} rejected {len(bad)} pole(s): {bad[:3]}")
    value = integrate(integrand, path, clearance=report.clearance).value
    return value if pair is None else value + gamma_pair_tower_correction(pair)


# ---------------------------------------------------------------------------
# balanced elliptic beta integral


def spiridonov_lhs(s, tau, sigma):
    """Contour side of the balanced six-parameter beta integral.

    ``s`` holds six parameters with positive imaginary part summing to
    ``tau + sigma`` (checked to 1e-12); the integrand
    ``prod_i gamma(+-t + s_i) / gamma(+-2t)`` runs over the straight period.
    """
    s = [complex(v) for v in s]
    if len(s) != 6:
        raise BalanceViolation(f"need exactly 6 parameters, got {len(s)}")
    balance = sum(s) - complex(tau) - complex(sigma)
    if abs(balance) > 1e-12:
        raise BalanceViolation(f"sum(s) - tau - sigma = {complex(balance):.3e}")

    moduli = (complex(tau), complex(sigma))
    factors = [Factor("gamma", si, e, moduli) for si in s for e in (1, -1)]
    # reciprocal gammas via reflection, gamma(tau + sigma -+ 2t): finite at
    # the half-integer lattice zeros the path runs through
    factors += [Factor("gamma", sum(moduli), e, moduli) for e in (-2, 2)]
    return audited_integral(Integrand(tuple(factors)))


def spiridonov_rhs(s, tau, sigma):
    """Product side: ``2 prod_{i<j} gamma(s_i + s_j) / ((tau;tau)(sigma;sigma))``."""
    moduli = (tau, sigma)
    pairs = [Factor("gamma", s[i] + s[j], 0, moduli) for i in range(6) for j in range(i + 1, 6)]
    return product(
        2, *pairs, Factor("qpoch", tau, 0, (tau,), -1), Factor("qpoch", sigma, 0, (sigma,), -1)
    )


# ---------------------------------------------------------------------------
# quarter-shift evaluations


def _quarter_shift_lhs(tau, sigma, sign):
    # sign=+1: gamma(t+1/4)/gamma(t-1/4) with theta0 denominators at t-1/4;
    # sign=-1: the mirrored variant with denominators at t+1/4
    a = sign * 0.25
    factors = [Factor("gamma", a, 1, (tau, sigma)), Factor("gamma", -a, 1, (tau, sigma), -1)]
    for modulus in (tau, sigma):
        factors += [Factor("theta0", 0.5, 1, (modulus,)), Factor("theta0", -a, 1, (modulus,), -1)]
    return audited_integral(Integrand(tuple(factors)))


def _quarter_shift_rhs(tau, sigma, phase, power):
    """``phase (gamma(1/4) / gamma(3/4)) ** power`` over ``(tau; tau)
    (tau + 1/2; 2 tau) (sigma; sigma) (sigma + 1/2; 2 sigma)``."""
    return product(
        phase,
        Factor("gamma", 0.25, 0, (tau, sigma), power),
        Factor("gamma", 0.75, 0, (tau, sigma), -power),
        Factor("qpoch", tau, 0, (tau,), -1),
        Factor("qpoch", tau + 0.5, 0, (2 * tau,), -1),
        Factor("qpoch", sigma, 0, (sigma,), -1),
        Factor("qpoch", sigma + 0.5, 0, (2 * sigma,), -1),
    )


def eval1_lhs(tau, sigma):
    """Path above -1/4 and below +1/4."""
    return _quarter_shift_lhs(tau, sigma, 1)


def eval1_rhs(tau, sigma):
    return _quarter_shift_rhs(tau, sigma, -(1 + 1j), 1)


def eval2_lhs(tau, sigma):
    """Path below -1/4 and above +1/4."""
    return _quarter_shift_lhs(tau, sigma, -1)


def eval2_rhs(tau, sigma):
    return _quarter_shift_rhs(tau, sigma, -(1 - 1j), -1)


# ---------------------------------------------------------------------------
# antisymmetrized theta hypergeometric integral


def gamma_pair_tower_correction(f):
    """Residue sum moving the straight-period integral of ``f`` onto its
    separating cycle.

    ``f`` is a gamma-pair form: its first two factors are
    ``gamma(a + t; tau, sigma)`` and ``gamma(a - t; tau, sigma)``, and the rest
    of the declaration, its terms included, is the entire part, so one walk
    takes one residue per crossed member for all terms.  The cycle keeps the
    descending tower ``-a - k tau`` of the first factor below the path and the
    ascending tower ``a + k tau`` of the second above it.  Tower members on the
    wrong side of the axis are crossed; each contributes ``-2 pi i`` times its
    residue (an upper pole is entered from below, and the lower pole's
    reversed local variable supplies the matching sign).  Raises
    :class:`DomainViolation` when a member is within
    :data:`~ellverify.contour.CLEARANCE` of the axis.
    """
    up, down = f.factors[:2]
    entire = replace(f, factors=f.factors[2:])
    a = complex(up.shift)
    tau, sigma = (complex(m) for m in up.moduli)
    total = complex(0)
    k = 0
    while True:
        upper = -a - k * tau
        if abs(upper.imag) < CLEARANCE:
            raise DomainViolation(
                f"tower pole -a - {k} tau is within {CLEARANCE} of the path"
            )
        if upper.imag < 0:
            break
        residue = ell_gamma_residue(tau, sigma, k)
        lower = a + k * tau
        cof_up = down(upper) * entire(upper)
        cof_dn = up(lower) * entire(lower)
        total = total + residue * (cof_up + cof_dn)
        k += 1
    return -2j * math.pi * total


def j1_factors(tau, eta):
    """Symmetric factor ``gamma(+-t - 2 eta; tau, 8 eta) theta0(t + 4 eta; 8 eta)``,
    as a factor list that starts with the gamma pair."""
    return (
        Factor("gamma", -2 * eta, 1, (tau, 8 * eta)),
        Factor("gamma", -2 * eta, -1, (tau, 8 * eta)),
        Factor("theta0", 4 * eta, 1, (8 * eta,)),
    )


def _asym_forms(lam, tau, eta, signs):
    """The integrand of :func:`I_tilde` and its gamma-pair form, with a term
    ``s e^{-3 pi i s lam}`` times the factors in ``s lam`` for each ``s`` in ``signs``."""
    lam, tau, eta = complex(lam), complex(tau), complex(eta)
    _require(tau.imag > 0 and eta.imag > 0, "requires Im(tau) > 0 and Im(eta) > 0")
    terms = tuple((s * epi(-3 * s * lam), (
        Factor("theta0", s * lam, 1, (tau,)),
        Factor("theta0", 6 * tau - 4 * s * lam + 0.5, 2, (8 * tau,)),
    )) for s in signs)
    f = Integrand((
        Factor("gamma", -2 * eta, 1, (tau, 8 * eta)),
        Factor("gamma", 2 * eta, 1, (tau, 8 * eta), -1),
        Factor("theta0", 2 * eta, 1, (tau,), -1),
        Factor("theta0", -4 * eta, 1, (8 * eta,)),
        Factor("theta0", 2 * eta, 1, (8 * eta,), -1),
    ), terms=terms)
    return f, Integrand(j1_factors(tau, eta), epi(-12 * eta), terms=terms)


def asym_pair_form(lam, tau, eta):
    """The integrand of :func:`I_tilde` in gamma-pair form: :func:`j1_factors`
    times ``e^{-12 pi i eta}`` and the one term of :func:`I_tilde`."""
    return _asym_forms(lam, tau, eta, (1,))[1]


def I_tilde(lam, tau, eta):
    """One-sided integral: phase ``e^{-3 pi i lam}`` times the separating-cycle
    integral of the gamma-ratio / theta-ratio / level-theta integrand.

    The cycle passes above the descending pole tower hanging from ``2 eta``
    and below the ascending tower rising from ``-2 eta`` (the separation
    that makes the beta-integral evaluations of the symmetrized integrand
    valid).  It is realized as straight-path quadrature plus the tower
    correction of the gamma-pair form :func:`asym_pair_form`.
    """
    return audited_integral(*_asym_forms(lam, tau, eta, (1,)))


def I_sym(lam, tau, eta):
    """Antisymmetrization ``I_tilde(lam) - I_tilde(-lam)`` as one integral, a
    term for each sign of ``lam``: one audited quadrature and one tower walk."""
    return audited_integral(*_asym_forms(lam, tau, eta, (1, -1)))


def eval3_rhs(lam, tau, eta):
    return product(
        epi(-12 * eta) * epi(-3 * lam),
        Factor("gamma", 6 * eta, 0, (tau, 8 * eta)),
        Factor("gamma", 2 * eta, 0, (tau, 8 * eta), -1),
        Factor("qpoch", 8 * tau, 0, (8 * tau,), -1),
        Factor("theta0", -4 * eta, 0, (tau,), -1),
        Factor("qpoch", 4 * eta, 0, (4 * eta,), -1),
        Factor("qpoch", 2 * eta + 0.5, 0, (2 * eta,), -1),
        *(Factor("theta0", lam + k * eta, 0, (tau,)) for k in (0, -2, 2)),
    )


# ---------------------------------------------------------------------------
# hypergeometric function of the three-dimensional representation


def _fv_forms(scale, mu, tau, sigma, eta, terms):
    """``scale`` times the integrand of :func:`fv_u`, whose ``theta(lam + t;
    tau)`` each of ``terms`` carries, and its gamma-pair form ``gamma(2 eta
    +- t) theta(mu + t; sigma)`` times a constant and the terms, or ``None``
    for Im(eta) >= 0.  For Im(eta) < 0 the straight path crosses the pair
    ``+-2 eta`` and, once the moduli are shallower than ``|Im 2 eta|``,
    further tower members, which are refused."""
    f = Integrand((
        Factor("gamma", 2 * eta, 1, (tau, sigma)),
        Factor("gamma", -2 * eta, 1, (tau, sigma), -1),
        Factor("jacobi", -2 * eta, 1, (tau,), -1),
        Factor("jacobi", mu, 1, (sigma,)),
        Factor("jacobi", -2 * eta, 1, (sigma,), -1),
    ), scale, terms=terms)
    if eta.imag >= 0:
        return f, None
    depth = abs((2 * eta).imag)
    _require(
        tau.imag - depth >= CLEARANCE and sigma.imag - depth >= CLEARANCE,
        "moduli too shallow: tower members beyond +-2 eta reach the axis",
    )
    return f, Integrand(
        (
            Factor("gamma", 2 * eta, 1, (tau, sigma)),
            Factor("gamma", 2 * eta, -1, (tau, sigma)),
            Factor("jacobi", mu, 1, (sigma,)),
        ),
        product(
            scale * epi(-(tau + sigma) / 4), *(Factor("qpoch", m, 0, (m,), -1) for m in (tau, sigma))
        ),
        terms=terms,
    )


def fv_u(lam, mu, tau, sigma, eta):
    """Hypergeometric integral ``u`` for the three-dimensional representation.

    ``e^{-pi i lam mu / 2 eta}`` times the cycle integral of the gamma-ratio
    phase factor against the two first-theta-function ratios.  The cycle
    always passes above the pole at ``-2 eta`` and below the one at
    ``2 eta``: the straight period for Im(eta) > 0, straight quadrature plus
    the tower correction of the gamma-pair form for Im(eta) < 0.  For real eta the poles sit on the axis
    and must lie half a period apart, ``4 eta = 1/2 (mod 1)``; the path then
    passes above ``-2 eta`` and below ``2 eta``.
    """
    lam = complex(lam)
    mu = complex(mu)
    tau = complex(tau)
    sigma = complex(sigma)
    eta = complex(eta)
    _require(tau.imag > 0 and sigma.imag > 0, "requires Im(tau) > 0 and Im(sigma) > 0")
    if eta.imag == 0:
        quarter = 4 * float(eta.real) - 0.5
        _require(abs(quarter - round(quarter)) < 1e-12, "real eta needs 4 eta = 1/2 (mod 1)")
    terms = ((1, (Factor("jacobi", lam, 1, (tau,)),)),)
    return epi(-lam * mu / (2 * eta)) * audited_integral(*_fv_forms(1, mu, tau, sigma, eta, terms))


def fv_val1_rhs(tau, sigma):
    """Closed form of ``u(1/2, 1/2, tau, sigma, -1/8)``."""
    return _quarter_shift_rhs(tau, sigma, -(1 + 1j), -1)


def fv_val2_rhs(tau, sigma):
    """Closed form of ``u(1/2, 1/2, tau, sigma, 1/8)``.

    The gamma ratio here follows the phase chain through the quarter-shift
    evaluation (see the package notes on the adjudicated variant).
    """
    return _quarter_shift_rhs(tau, sigma, -(1 - 1j), 1)


def Q_factor(mu, sigma, eta):
    """Weight ``theta(4 eta) theta'(0) / (theta(mu - 2 eta) theta(mu + 2 eta))``."""
    mu = complex(mu)
    sigma = complex(sigma)
    eta = complex(eta)
    # theta'(0) = 2 pi e^{pi i sigma / 4} (sigma; sigma)^3
    front = 2 * math.pi * epi(sigma / 4)
    factors = (
        Factor("jacobi", 4 * eta, 0, (sigma,)),
        Factor("qpoch", sigma, 0, (sigma,), 3),
        Factor("jacobi", mu - 2 * eta, 0, (sigma,), -1),
        Factor("jacobi", mu + 2 * eta, 0, (sigma,), -1),
    )
    # each kernel value once: the guard reads the denominators before their power
    values = [replace(f, power=1)(0) for f in factors]
    scale = max(1.0, abs(front * values[1] ** 3))
    if abs(values[2]) < Q_POLE_EPSILON * scale or abs(values[3]) < Q_POLE_EPSILON * scale:
        raise PoleHit(f"Q has a pole at mu = {complex(mu)!r}")
    # then product's scalar loop over them
    value = front
    for f, v in zip(factors, values):
        value = value * (v if f.power == 1 else v**f.power)
    return value


# ---------------------------------------------------------------------------
# level-kappa hypergeometric theta functions and the P normalization


def _check_htf_domain(mu, kappa, tau, eta):
    _require(int(kappa) == kappa and kappa >= 4, "level must be an integer >= 4")
    _require(complex(eta).imag < 0, "requires Im(eta) < 0")
    _require(complex(tau).imag > 0, "requires Im(tau) > 0")
    for j in range(1, 9):
        drift = j * complex(tau) + 4 * complex(eta)
        if abs(drift.imag) < 1e-9 and abs(drift.real - round(drift.real)) < 1e-9:
            raise DomainViolation(f"j tau + 4 eta is an integer at j = {j}")


def _htf_integral(mu, kappa, points, tau, eta):
    """The sum of ``w`` times :func:`htf_I_tilde` at ``x`` over the pairs
    ``(w, x)`` of ``points``, as one integral: each pair is a term
    ``w e^{-pi i x mu}`` times its factors in ``x``."""
    kappa = int(kappa)
    tau, eta = complex(tau), complex(eta)
    terms = tuple((w * epi(-x * mu), (
        Factor("jacobi", x, 1, (tau,)),
        Factor("theta0", 0.5 + mu * tau + kappa * tau - kappa * x, 2, (2 * kappa * tau,)),
    )) for w, x in points)
    level = 2 * kappa * tau
    scale = product(epi(tau * mu**2 / (2 * kappa)), Factor("qpoch", level, 0, (level,)))
    return audited_integral(*_fv_forms(scale, 2 * eta * mu, tau, -2 * eta * kappa, eta, terms))


def htf_I_tilde(mu, kappa, lam, tau, eta):
    """Integral form of the level-kappa hypergeometric theta function.

    Second modulus is ``-2 eta kappa`` and the integrand carries the
    level-(2 kappa) theta factor.  The defining cycle keeps ``-2 eta`` below
    and ``2 eta`` above it even once Im(eta) < 0 flips those poles across the
    real axis, so the straight-path integral is completed by the tower
    correction of its gamma-pair form.  The explicit
    ``e^{pi i tau mu^2 / 2 kappa - pi i lam mu} (2 kappa tau; 2 kappa tau)``
    prefactor is the integrand's scale and, in ``lam``, its one term.
    """
    _check_htf_domain(mu, kappa, tau, eta)
    return _htf_integral(mu, kappa, ((1, complex(lam)),), tau, eta)


def _delta_weight(mu, kappa, eta):
    """The factor ``e^{2 pi i eta mu^2 / kappa} Q`` of :func:`delta_tilde`."""
    eta = complex(eta)
    return e2pi(eta * mu**2 / kappa) * Q_factor(2 * eta * mu, -2 * eta * kappa, eta)


def delta_tilde(mu, kappa, lam, tau, eta):
    """Non-symmetric hypergeometric theta function (integral route)."""
    return _delta_weight(mu, kappa, eta) * htf_I_tilde(mu, kappa, lam, tau, eta)


def delta_tilde_series(mu, kappa, lam, tau, eta):
    """Defining series over ``j in 2 kappa Z + mu``: each term is ``fv_u``
    weighted by ``Q`` and a Gaussian factor in j.

    Requires Im(tau + 4 eta) > 0 for convergence; the window grows until the
    Gaussian bound on the next term drops below :data:`SERIES_TAIL`.
    """
    _check_htf_domain(mu, kappa, tau, eta)
    kappa = int(kappa)
    lam = complex(lam)
    tau = complex(tau)
    eta = complex(eta)
    decay = (tau + 4 * eta).imag
    _require(decay > 0, "series needs Im(tau + 4 eta) > 0")
    sigma = -2 * eta * kappa

    total = complex(0)
    for step in range(0, 64):
        converged = False
        for j in ((mu + 2 * kappa * step,) if step == 0 else (mu + 2 * kappa * step, mu - 2 * kappa * step)):
            gauss = epi((tau + 4 * eta) * j**2 / (2 * kappa))
            if abs(gauss) < SERIES_TAIL:
                converged = True
                continue
            term = (
                fv_u(lam, 2 * eta * j, tau, sigma, eta)
                * Q_factor(2 * eta * j, sigma, eta)
                * gauss
            )
            total = total + term
        if converged and step > 0:
            return total
    raise DomainViolation("series window exceeded 64 steps without tail cutoff")


def lattice_distance(z, tau):
    """Distance from ``z`` to the lattice ``Z + tau Z``."""
    z = complex(z)
    tau = complex(tau)
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    b -= round(b)
    a -= round(a)
    return abs(a + b * tau)


#: :func:`ellmac_P` at a ``lam`` within half the radius ``CIRCLE_RADIUS |2 eta|``
#: of a zero of its denominator is the mean of its values at ``CIRCLE_POINTS``
#: points on the circle of that radius about ``lam``
CIRCLE_RADIUS = 0.05
CIRCLE_POINTS = 8


def ellmac_P(mu, kappa, lam, tau, eta):
    """Normalized symmetrized function at shifted index mu + 2.

    Defined only when ``mu + 2`` is not congruent to +-1 modulo kappa.  It is
    ``delta_tilde(z) - delta_tilde(-z)`` over ``theta(z) theta(z - 2 eta)
    theta(z + 2 eta)`` at ``z = lam``, integrated as the quotient: ``z`` is
    the terms ``(w, z)`` and ``(-w, -z)``, ``w`` the reciprocal denominator,
    so the quadrature stops on the quotient and its estimate is the
    quotient's.  The quotient is analytic where the denominator vanishes;
    near such a zero the points are ``CIRCLE_POINTS`` on the circle of radius
    ``CIRCLE_RADIUS |2 eta|`` about ``lam`` (0.05 in the bridge's ``lam``),
    each ``w`` over ``CIRCLE_POINTS``: by Cauchy's formula their mean is the
    quotient at the centre, and the trapezoid rule on a circle converges
    geometrically (Trefethen & Weideman 2014).  Either way the value is one
    audited quadrature, one tower walk and one ``Q``.
    """
    kappa = int(kappa)
    if (mu + 2) % kappa in (1 % kappa, (-1) % kappa):
        raise DomainViolation(f"mu + 2 = {mu + 2} is +-1 mod {kappa}")
    _check_htf_domain(mu + 2, kappa, tau, eta)
    lam = complex(lam)
    tau = complex(tau)
    eta = complex(eta)
    prefactor = epi(-(4 * eta + tau) * (mu + 2) ** 2 / (2 * kappa) + 0.75 * tau)
    radius = CIRCLE_RADIUS * abs(2 * eta)
    zs = [lam]
    if not all(lattice_distance(lam - zero, tau) >= radius / 2 for zero in (0, 2 * eta, -2 * eta)):
        zs = [lam + radius * epi((2 * k + 1) / CIRCLE_POINTS) for k in range(CIRCLE_POINTS)]
    points = []
    for z in zs:
        denominator = product(1, *(Factor("jacobi", z + k * eta, 0, (tau,)) for k in (-2, 0, 2)))
        w = 1 / (len(zs) * denominator)
        points += [(w, z), (-w, -z)]
    integral = _htf_integral(mu + 2, kappa, points, tau, eta)
    return prefactor * _delta_weight(mu + 2, kappa, eta) * integral


def ellmac_val_rhs(tau, eta):
    """Lambda-independent closed form of the (0, 4) normalized function."""
    return product(
        -2 * math.pi,
        Factor("gamma", -6 * eta, 0, (tau, -8 * eta)),
        Factor("gamma", -2 * eta, 0, (tau, -8 * eta), -1),
        Factor("qpoch", -4 * eta, 0, (-4 * eta,)),
        Factor("qpoch", -2 * eta, 0, (-4 * eta,), -1),
        Factor("theta0", 4 * eta, 0, (tau,), -1),
        Factor("qpoch", tau, 0, (tau,), -3),
    )


def ellmac_eval_rhs(mu, kappa, eta):
    """Closed form of the normalized function at the evaluation point
    ``lam = 4 eta``, ``tau = -8 eta``."""
    tau = -2 * int(kappa) * eta
    return product(
        -2 * math.pi * epi(-12 * eta - 2 * (mu + 2) * eta),
        Factor("gamma", -6 * eta, 0, (tau, -8 * eta)),
        Factor("gamma", -2 * eta, 0, (tau, -8 * eta), -1),
        Factor("theta0", 2 * (mu + 2) * eta, 0, (tau,)),
        Factor("qpoch", tau, 0, (tau,), 2),
        Factor("qpoch", -8 * eta, 0, (-8 * eta,), -1),
        Factor("qpoch", -4 * eta, 0, (-4 * eta,), -2),
        Factor("qpoch", -2 * eta, 0, (-2 * eta,), -1),
    )


# ---------------------------------------------------------------------------
# three-term modular relations


def _s_factor(tau, eta, sign):
    """``2 sign theta(1/2) theta'(0) / (theta(1/4) theta(3/4)) u(1/2, -sign/2,
    1 / (8 eta), m, sign/8)`` of modulus ``m = -sign tau / (8 eta)``."""
    tau = complex(tau)
    eta = complex(eta)
    m = -sign * tau / (8 * eta)
    # theta'(0) = 2 pi e^{pi i m / 4} (m; m)^3
    block = product(
        2 * math.pi * epi(m / 4),
        Factor("jacobi", 0.5, 0, (m,)),
        Factor("qpoch", m, 0, (m,), 3),
        Factor("jacobi", 0.75, 0, (m,), -1),
        Factor("jacobi", 0.25, 0, (m,), -1),
    )
    return 2 * sign * block * fv_u(0.5, -0.5 * sign, 1 / (8 * eta), m, 0.125 * sign)


def s_minus(tau, eta):
    return _s_factor(tau, eta, -1)


def s_plus(tau, eta):
    return _s_factor(tau, eta, 1)


def _mod_rhs(tau, eta, sign):
    # the constant of mod_minus_rhs (sign 1) or mod_plus_rhs (-1)
    tau = complex(tau)
    eta = complex(eta)
    exponent = 4 + 216 * eta**2 - 42 * eta * (tau - sign) + 3 * sign * tau + 4 * tau**2
    exponent = exponent / (12 * tau)
    return 4 * math.sqrt(2) * math.pi * 1j * tau * epi(exponent)


def mod_minus_rhs(tau, eta):
    return _mod_rhs(tau, eta, 1)


def mod_plus_rhs(tau, eta):
    """Constant for the second modular relation.

    The leading sign is fixed by cross-checking against the independently
    validated evaluation pipeline (see the package notes on the adjudicated
    variant); both sign readings differ by the odd half-period shift in the
    ``u(1/2, -1/2, ...)`` weight.
    """
    return _mod_rhs(tau, eta, -1)
