"""Shared test helpers: a numeric value for exact series, the canonical text
of a series, a series rebuilt under tighter caps, a reference enumeration of the series product builders,
a reference build of the evaluation conjecture's factors, reference forms
of the pointwise lemma sides that are sums, the bridge's products multiplied
by hand, a recorder for the quadratures the integral evaluators run, and the
audit clearance of a declared integrand."""

import cmath
import math

from ellverify import contour, special
from ellverify.kernel import e2pi, epi, qpoch1, qpoch2
from ellverify.special import Factor, product
from ellverify.conjectures import AffineRootLayer
from ellverify.series import (
    NonTerminating,
    NotInvertible,
    SeriesRing,
    binomial_factors,
    pochhammer_factors,
    stabilized_product,
)


def series_value(series, **values):
    """Numeric value of a truncated series at ``values`` (one per ring variable)."""
    order = [values[v] for v in series.ring.variables]
    total = 0j
    for key, coeff in series.terms.items():
        term = complex(coeff)
        for value, exp in zip(order, key):
            if exp:
                term *= value**exp
        total += term
    return total


def render(series):
    """Canonical text form of ``series`` (exponent-lex term order) for golden files."""
    terms = series.terms
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms):
        coeff = terms[key]
        pairs = zip(series.ring.variables, key)
        body = "*".join(f"{v}^{e}" if e != 1 else v for v, e in pairs if e != 0)
        magnitude = abs(coeff)
        if not body:
            text = str(magnitude)
        elif magnitude == 1:
            text = body
        else:
            text = f"{magnitude}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


def narrowed(series, **caps):
    """``series`` rebuilt from its terms in the ring with ``caps`` replaced."""
    ring = SeriesRing(series.ring.variables, {**series.ring.caps, **caps})
    out = ring.zero()
    for key, coeff in series.terms.items():
        out = out + ring.term(coeff, **dict(zip(ring.variables, key)))
    return out


def _reference_pair(ring, coeff, mono):
    return coeff, tuple(mono.exps.get(v, 0) for v in ring.variables)


def reference_binomial_factors(ring, mono, power=1):
    """:func:`ellverify.series.binomial_factors` by ``Mono`` arithmetic: a
    ``Mono`` per doubling and a ``SeriesRing.negligible`` test on each."""
    if mono.coeff == 0 or ring.negligible(mono):
        return []
    if power == 1:
        return [_reference_pair(ring, -mono.coeff, mono)]
    exps = [mono.exps.get(v, 0) for v in ring.caps]
    if min(exps, default=0) < 0:
        raise NotInvertible("negative exponent in a truncated variable")
    if not any(exps):
        raise NotInvertible("divisor free of every truncated variable")
    factors = []
    while not ring.negligible(mono):
        factors.append(_reference_pair(ring, mono.coeff, mono))
        mono = mono * mono
    return factors


def _reference_progression(ring, argument, modulus):
    """``argument * modulus**n`` for n = 0, 1, ... while the caps keep it."""
    if argument.coeff == 0:
        return
    if modulus.coeff == 0:
        yield argument
        return
    for v in ring.caps:
        if modulus.exps.get(v, 0) < 0:
            raise NonTerminating(f"modulus lowers the truncated variable {v!r}")
    if ring.negligible(argument):
        return
    if not any(modulus.exps.get(v, 0) > 0 for v in ring.caps):
        raise NonTerminating(
            "neither factor advances a truncated variable; the product "
            "never leaves the stored range"
        )
    while not ring.negligible(argument):
        yield argument
        argument = argument * modulus


def reference_pochhammer_factors(ring, argument, modulus, power=1):
    progression = _reference_progression(ring, argument, modulus)
    return [f for x in progression for f in reference_binomial_factors(ring, x, power)]


def reference_pochhammer2_factors(ring, argument, modulus1, modulus2, power=1):
    progression = _reference_progression(ring, argument, modulus1)
    return [
        f for x in progression for f in reference_pochhammer_factors(ring, x, modulus2, power)
    ]


def reference_theta0_factors(ring, argument, modulus):
    forward = reference_pochhammer_factors(ring, argument, modulus)
    return forward + reference_pochhammer_factors(ring, modulus / argument, modulus)


def reference_aff_eval_conjecture_series(n, k_mac, mu, k, order):
    """:func:`ellverify.conjectures.aff_eval_conjecture_series` with its
    layers m >= 1 declared one binomial at a time: a loop over m whose bound
    admits every m with a factor below the cap, for the weight ``mu`` given
    as a tuple of fundamental coordinates."""
    kappa_bar = k + k_mac * n
    lead = k_mac * sum(m * l * (n - l) for l, m in enumerate(mu, start=1))

    def pair(root):
        return sum(c * m for c, m in zip(root, mu))

    def build(ring):
        cap = ring.caps["r"]

        def factor(exponent, power=1):
            return binomial_factors(ring, ring.mono(1, r=2 * exponent), power)

        factors = [ring.term(1, r=-lead)]
        step_bar = ring.mono(1, r=2 * kappa_bar)
        step_n = ring.mono(1, r=2 * k_mac * n)
        for i in range(1, k_mac):
            factors += pochhammer_factors(ring, ring.mono(1, r=2 * i), step_bar)
            factors += pochhammer_factors(ring, ring.mono(1, r=2 * n * i), step_bar, -1)
            factors += pochhammer_factors(ring, ring.mono(1, r=2 * n * i), step_n)
            factors += pochhammer_factors(ring, ring.mono(1, r=2 * i), step_n, -1)
        layer0 = AffineRootLayer(n, 0)
        for root in layer0.finite_roots:
            shift = pair(root) + k_mac * sum(root)
            for i in range(k_mac):
                factors += factor(shift + i)
                factors += factor(k_mac * sum(root) + i, -1)
        reach = max(abs(pair(root)) + k_mac * n for root in layer0.finite_roots)
        top = cap // 2 + reach + k_mac + 1
        layers = AffineRootLayer(n, 1)
        m = 1
        while min(kappa_bar, k_mac * n) * m <= top:
            for root in layers.finite_roots:
                shift = pair(root) + k_mac * sum(root)
                for i in range(k_mac):
                    factors += factor(m * kappa_bar + shift + i)
                    factors += factor(m * k_mac * n + k_mac * sum(root) + i, -1)
            for i in range(k_mac):
                factors += factor(m * kappa_bar + i) * layers.imaginary_multiplicity
                factors += factor(m * k_mac * n + i, -1) * layers.imaginary_multiplicity
            m += 1
        return factors

    return stabilized_product(("r",), {"r": order + 1}, build)


# ---------------------------------------------------------------------------
# the pointwise lemma sides that are sums, as Python sums and products of
# products of slope-0 factors, one product per term


def _j2_product(t, lam, tau):
    return product(
        epi(-3 * lam),
        Factor("theta0", t + lam, 0, (tau,)),
        Factor("theta0", 2 * t + 6 * tau - 4 * lam + 0.5, 0, (8 * tau,)),
    )


def reference_theta_simp_lhs(t, lam, tau):
    return _j2_product(t, lam, tau) - _j2_product(-t, -lam, tau)


def reference_full_sym_lhs(t, lam, tau):
    return reference_theta_simp_lhs(t, lam, tau) - reference_theta_simp_lhs(t, -lam, tau)


def reference_full_sym_rhs(t, lam, tau):
    front = product(
        2 * e2pi(-t),
        Factor("theta0", 6 * tau + 0.5, 0, (8 * tau,)),
        Factor("theta0", 0.5, 0, (2 * tau,), -1),
    )
    return front * reference_theta_simp3_rhs(t, lam, tau)


def reference_theta_simp2_lhs(z, sigma):
    return product(1, Factor("theta0", 2 * z + 3 * sigma + 0.5, 0, (4 * sigma,))) + product(
        e2pi(-z), Factor("theta0", 2 * z + sigma + 0.5, 0, (4 * sigma,))
    )


def reference_theta_simp3_lhs(t, lam, tau):
    def term(lam):
        return product(
            epi(lam),
            Factor("theta0", t + lam, 0, (tau,)),
            Factor("theta0", t - 2 * lam + 0.5, 0, (2 * tau,)),
        )

    return term(lam) - term(-lam)


def reference_theta_simp3_rhs(t, lam, tau):
    front = product(
        2 * epi(-3 * lam),
        Factor("theta0", t + tau + 0.5, 0, (2 * tau,)),
        Factor("theta0", lam, 0, (tau,)),
        Factor("theta0", 0.5, 0, (2 * tau,), -2),
    )
    first = product(
        1,
        Factor("theta0", 2 * lam + 0.5, 0, (2 * tau,)),
        Factor("theta0", tau + 0.5, 0, (2 * tau,), -1),
        Factor("theta0", t + 0.5, 0, (2 * tau,), 2),
    )
    second = product(
        1,
        Factor("theta0", lam + 0.5, 0, (tau,), 2),
        Factor("theta0", tau, 0, (2 * tau,), -1),
        Factor("theta0", t, 0, (2 * tau,), 2),
    )
    return front * (first - second)


#: ``(check id, side): reference`` of each lemma side declared with terms
REFERENCE_LEMMA_SIDES = {
    ("lemma.theta-simp", "lhs"): reference_theta_simp_lhs,
    ("lemma.full-sym", "lhs"): reference_full_sym_lhs,
    ("lemma.full-sym", "rhs"): reference_full_sym_rhs,
    ("lemma.theta-simp2", "lhs"): reference_theta_simp2_lhs,
    ("lemma.theta-simp3", "lhs"): reference_theta_simp3_lhs,
    ("lemma.theta-simp3", "rhs"): reference_theta_simp3_rhs,
}


# ---------------------------------------------------------------------------
# the bridge's products by hand, in the multiplicative convention: the
# factors of bridge.J_mu_k2 other than ellmac_P, and bridge.eval_conj_rhs


def _moduli(k, q, omega):
    """``(q, p, Q)`` of a multiplicative point, ``Q = q^(-2 kappa)``."""
    q = complex(q)
    return q, cmath.exp(-2 * complex(omega) * cmath.log(q)), q ** (-2 * (k + 4))


def reference_mixed_block(k, q, omega):
    """``((p q^2; p, Q) / (p q^-2; p, Q))^2``, on the double product."""
    q, p, Q = _moduli(k, q, omega)
    return (qpoch2(p * q**2, p, Q) / qpoch2(p * q**-2, p, Q)) ** 2


def reference_single_blocks(mu, k, q, omega):
    """The blocks of ``J_mu_k2`` but ``ellmac_P`` and the mixed block."""
    q, p, Q = _moduli(k, q, omega)
    f22 = qpoch1(p * q**2, p) / qpoch1(p * q**4, p)
    grading_block = qpoch1(q**-4, p) * qpoch1(p, p) ** 3 / qpoch1(p * q**2, p)
    weight_block = (
        q ** (mu + 4)
        * qpoch1(q ** (-2 * mu - 6), Q)
        * qpoch1(q ** (2 * mu + 2) * Q, Q)
        / (qpoch1(q**-4, Q) * qpoch1(Q, Q))
    )
    return grading_block * weight_block / (2 * math.pi * f22)


def reference_J_mu_k2_blocks(mu, k, q, omega):
    return reference_single_blocks(mu, k, q, omega) * reference_mixed_block(k, q, omega)


def reference_eval_conj_rhs(mu, k, q):
    q = complex(q)
    Q = q ** (-2 * (k + 4))
    u = q ** (-2 * mu - 4)
    return (
        q ** (2 * mu)
        * qpoch1(q**-2, Q)
        / qpoch1(q**-4, Q)
        * qpoch1(u, Q)
        * qpoch1(Q / u, Q)
        * qpoch1(q ** (-2 * mu - 6), Q)
        * qpoch1(q ** (2 * mu + 2) * Q, Q)
        * qpoch1(Q, Q)
        * qpoch1(Q * q**-2, Q)
        / (qpoch1(q**-4, q**-2) * qpoch1(q**-6, q**-8) * qpoch1(q**-2, q**-8))
    )


def record_quadratures(monkeypatch):
    """List that collects ``(integrand, path, result)`` of every quadrature
    that :mod:`ellverify.special` runs while ``monkeypatch`` is active."""
    runs = []
    integrate = special.integrate

    def recording(f, path, *args, **kwargs):
        result = integrate(f, path, *args, **kwargs)
        runs.append((f, path, result))
        return result

    monkeypatch.setattr(special, "integrate", recording)
    return runs


def audit_clearance(integrand, path):
    """The strip half-width in the path parameter that no listed pole of
    ``integrand`` enters, the audit clearance
    :func:`ellverify.special.audited_integral` passes to the quadrature."""
    return contour.pole_audit(path, special.pole_inventory(integrand)).clearance
