"""Series engine tests: ring axioms, frozen expansions, truncation coherence,
and the soundness mechanism for factors that shift capped variables down.

The numeric cross-checks at the bottom compare exact truncated expansions
against the floating-point product kernels on points where the discarded
tail is below roundoff.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellverify.kernel import qpoch1, qpoch2, theta0_mult
from helpers import series_value
from ellverify.series import (
    Mono,
    NonTerminating,
    NotInvertible,
    SeriesRing,
    binomial_factors,
    pochhammer_factors,
    pochhammer2_factors,
    series_pochhammer,
    series_theta0,
    stabilized_product,
    truncated_product,
)


RING = SeriesRing(("x", "y"), {"y": 7})


def euler(cap):
    ring = SeriesRing(("p",), {"p": cap})
    return ring, series_pochhammer(ring, ring.mono(1, p=1), ring.mono(1, p=1))


# ---------------------------------------------------------------------------
# construction and rendering


def test_pentagonal_golden():
    _, ep = euler(16)
    assert ep.render() == "1 - p - p^2 + p^5 + p^7 - p^12 - p^15"


def test_render_zero_and_fractions():
    assert RING.zero().render() == "0"
    s = RING.term(Fraction(1, 2), x=-1) - RING.term(3, y=2) + RING.one()
    assert s.render() == "1/2*x^-1 + 1 - 3*y^2"


def test_integral_fraction_is_stored_as_int():
    s = RING.constant(Fraction(4, 2))
    (coeff,) = s.terms.values()
    assert type(coeff) is int and coeff == 2
    assert s.render() == "2"
    half = RING.term(Fraction(1, 2), x=1)
    assert all(type(c) is int for c in (half * 2 + half * half * 4).terms.values())


def test_term_beyond_cap_prunes_to_zero():
    assert not RING.term(1, y=7).terms
    assert RING.term(1, y=-7).terms


def test_ring_validation():
    with pytest.raises(ValueError):
        SeriesRing(("x", "x"), {})
    with pytest.raises(ValueError):
        SeriesRing(("x",), {"y": 3})
    with pytest.raises(ValueError):
        SeriesRing(("x",), {"x": 0})
    with pytest.raises(ValueError):
        RING.mono(1, z=2)


def test_mono_arithmetic():
    a = Mono(2, {"x": 1, "y": -2})
    b = Mono(Fraction(1, 2), {"y": 2})
    assert (a * b).exps == {"x": 1}
    assert (a / b).coeff == 4
    assert (a**-1).coeff == Fraction(1, 2)
    assert (a**0).exps == {}
    with pytest.raises(ZeroDivisionError):
        Mono(0).reciprocal()


# ---------------------------------------------------------------------------
# ring axioms


def _series(draw_terms):
    terms = {}
    for xe, ye, num in draw_terms:
        terms[(xe, ye)] = terms.get((xe, ye), 0) + Fraction(num)
    out = RING.zero()
    for (xe, ye), coeff in terms.items():
        out = out + RING.term(coeff, x=xe, y=ye)
    return out


# Exponents in the capped variable stay nonnegative: that is the subring
# where truncation is an ideal and the ring axioms hold on the nose.  (With
# negative capped exponents plain multiplication is only boundedly sound;
# see test_negative_capped_exponents_break_plain_associativity.)
term_strategy = st.tuples(
    st.integers(-2, 2), st.integers(0, 4), st.integers(-5, 5)
)
series_strategy = st.builds(_series, st.lists(term_strategy, max_size=5))


@settings(max_examples=60)
@given(a=series_strategy, b=series_strategy, c=series_strategy)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * RING.one() == a
    assert a + RING.zero() == a
    assert a - a == RING.zero()


@settings(max_examples=30)
@given(a=series_strategy)
def test_pow_matches_repeated_mul(a):
    assert a**3 == a * a * a
    assert a**0 == RING.one()


def test_negative_power_is_refused():
    # division is declared as reciprocal binomial factors, not as a power
    s = RING.one() - RING.term(1, y=1)
    with pytest.raises(ValueError):
        s**-1


def test_equality_requires_matching_ring():
    other = SeriesRing(("x", "y"), {"y": 9})
    assert other.one() != RING.one()


def test_negative_capped_exponents_break_plain_associativity():
    # y^3 * y^4 prunes to zero before y^-1 can pull it back under the cap;
    # chains mixing signs in a capped variable must go through
    # truncated_product / stabilized_product instead of bare ``*``.
    a, b, c = RING.term(1, y=-1), RING.term(1, y=3), RING.term(1, y=4)
    assert (a * b) * c == RING.term(1, y=6)
    assert a * (b * c) == RING.zero()
    assert truncated_product(RING, [a, b, c]) == RING.term(1, y=6)


# ---------------------------------------------------------------------------
# truncation semantics


def test_truncation_coherence():
    _, wide = euler(14)
    _, narrow = euler(6)
    assert wide.truncate(p=6) == narrow


def test_truncate_cannot_raise_cap():
    _, narrow = euler(6)
    with pytest.raises(ValueError):
        narrow.truncate(p=10)


def test_coefficient_of_slices():
    ring = SeriesRing(("p", "t"), {"p": 5})
    s = series_pochhammer(ring, ring.mono(1, p=1, t=2), ring.mono(1, p=1))
    # p^1 coefficient of prod (1 - t^2 p^m) is -t^2
    assert s.coefficient_of("p", 1) == -ring.term(1, t=2)
    assert s.coefficient_of("p", 0) == ring.one()


# ---------------------------------------------------------------------------
# inversion


def test_invert_round_trip():
    ring, ep = euler(12)
    assert ep.invert() * ep == ring.one()
    # partition generating function
    assert ep.invert().coefficient_of("p", 6) == ring.constant(11)


def test_invert_requires_unit_constant():
    ring, _ = euler(6)
    with pytest.raises(NotInvertible):
        ring.term(1, p=1).invert()


def test_invert_rejects_negative_capped_exponent():
    ring = SeriesRing(("p",), {"p": 6})
    with pytest.raises(NotInvertible):
        (ring.one() + ring.term(1, p=-1)).invert()


def test_invert_rejects_uncapped_remainder():
    s = RING.one() + RING.term(1, x=1)
    with pytest.raises(NotInvertible):
        s.invert()


# ---------------------------------------------------------------------------
# product builders


def test_pochhammer_nonterminating_guards():
    ring = SeriesRing(("x", "s"), {"s": 5})
    with pytest.raises(NonTerminating):
        series_pochhammer(ring, ring.mono(1, x=1), ring.mono(1, x=1))
    with pytest.raises(NonTerminating):
        series_pochhammer(ring, ring.mono(1, s=1), ring.mono(1, s=-1))


def test_pochhammer_negligible_argument_is_empty():
    ring = SeriesRing(("s",), {"s": 4})
    assert pochhammer_factors(ring, ring.mono(1, s=4), ring.mono(1, s=1)) == []
    assert pochhammer_factors(ring, ring.mono(0), ring.mono(1, s=1)) == []


def test_double_product_matches_explicit_grid():
    ring = SeriesRing(("u",), {"u": 8})
    got = truncated_product(
        ring,
        pochhammer2_factors(ring, ring.mono(1, u=1), ring.mono(1, u=1), ring.mono(1, u=1)),
    )
    want = ring.one()
    for a in range(8):
        for b in range(8):
            want = want * (ring.one() - ring.term(1, u=1 + a + b))
    assert got == want


def test_theta_product_special_value():
    # product-form theta at the half period: theta0(-1; v) = 2 (-v; v)^2
    ring = SeriesRing(("v",), {"v": 12})
    lhs = series_theta0(ring, ring.mono(-1), ring.mono(1, v=1))
    rhs = 2 * series_pochhammer(ring, ring.mono(-1, v=1), ring.mono(1, v=1)) ** 2
    assert lhs == rhs


# ---------------------------------------------------------------------------
# downward shifts in capped variables


def shifted_reference(shift, cap):
    """x**-shift * (x^2; x) computed in an amply elevated ring by hand."""
    wide = SeriesRing(("x",), {"x": cap + shift})
    full = series_pochhammer(wide, wide.mono(1, x=2), wide.mono(1, x=1))
    ring = SeriesRing(("x",), {"x": cap})
    out = ring.zero()
    for (e,), c in full.terms.items():
        out = out + ring.term(c, x=e - shift)
    return out


def test_truncated_product_handles_negative_factor():
    ring = SeriesRing(("x",), {"x": 8})
    factors = [ring.term(1, x=-2)] + pochhammer_factors(
        ring, ring.mono(1, x=2), ring.mono(1, x=1)
    )
    got = truncated_product(ring, factors)
    # sound only as far as the enumeration reached: compare after truncating
    assert got.truncate(x=6) == shifted_reference(2, 8).truncate(x=6)


def test_stabilized_product_is_exact_to_the_cap():
    def build(ring):
        return [ring.term(1, x=-2)] + pochhammer_factors(
            ring, ring.mono(1, x=2), ring.mono(1, x=1)
        )

    got = stabilized_product(("x",), {"x": 8}, build)
    assert got == shifted_reference(2, 8)
    assert got.min_exponent("x") == -2


def test_stabilized_product_crossed_budgets():
    # the downward shift in w is bounded by how far u is enumerated
    def build(ring):
        return (
            [ring.one() - ring.term(1, u=1, w=-1)]
            + pochhammer_factors(ring, ring.mono(1, w=1), ring.mono(1, w=1))
            + pochhammer_factors(ring, ring.mono(1, u=1), ring.mono(1, u=1))
        )

    got = stabilized_product(("u", "w"), {"u": 5, "w": 5}, build)
    wide = SeriesRing(("u", "w"), {"u": 14, "w": 14})
    ref = wide.one() - wide.term(1, u=1, w=-1)
    for n in range(1, 14):
        ref = ref * (wide.one() - wide.term(1, w=n))
        ref = ref * (wide.one() - wide.term(1, u=n))
    assert got == ref.truncate(u=5, w=5)


# ---------------------------------------------------------------------------
# cross-check against a naive dict-of-terms reference
#
# The reference keeps a series as ``{exponent tuple: coefficient}`` and does
# every operation term by term.


def ref_clean(ring, terms, caps=None):
    """Drop zero coefficients and exponents at or past ``caps`` (the ring's)."""
    caps = ring.caps if caps is None else caps
    slots = [(i, caps[v]) for i, v in enumerate(ring.variables) if v in caps]
    return {
        k: c for k, c in terms.items() if c != 0 and all(k[i] < cap for i, cap in slots)
    }


def ref_add(ring, a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return ref_clean(ring, out)


def ref_mul(ring, a, b, caps=None):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return ref_clean(ring, out, caps)


def ref_invert(ring, a):
    """Geometric-series inverse, or None where the engine must refuse."""
    zero = (0,) * len(ring.variables)
    capped = [i for i, v in enumerate(ring.variables) if v in ring.caps]
    constant = a.get(zero)
    if not constant:
        return None
    for k in a:
        if k != zero and (
            any(k[i] < 0 for i in capped) or not any(k[i] > 0 for i in capped)
        ):
            return None
    remainder = ref_clean(ring, {k: -Fraction(c) / constant for k, c in a.items() if k != zero})
    out, power = {zero: 1}, remainder
    while power:
        out = ref_add(ring, out, power)
        power = ref_mul(ring, power, remainder)
    return {k: Fraction(c) / constant for k, c in out.items()}


def from_terms(ring, terms):
    out = ring.zero()
    for k, c in terms.items():
        out = out + ring.term(c, **dict(zip(ring.variables, k)))
    return out


coefficients = st.one_of(
    st.integers(-3, 3), st.integers(1, 4).map(lambda k: Fraction(1, k))
)


@st.composite
def rings(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    caps = {v: draw(st.integers(1, 5)) for v in names if draw(st.booleans())}
    return SeriesRing(names, caps)


@st.composite
def term_dicts(draw, ring, capped_low=-2, size=4):
    """Terms with exponents from -2 up, and from ``capped_low`` in capped variables."""
    terms = {}
    for _ in range(draw(st.integers(0, size))):
        key = tuple(
            draw(st.integers(capped_low if v in ring.caps else -2, ring.caps.get(v, 3)))
            for v in ring.variables
        )
        terms[key] = terms.get(key, 0) + draw(coefficients)
    return ref_clean(ring, terms)


def assert_matches(series, terms):
    assert series.terms == terms
    # the stored box is the bounding box of the terms
    lows = [min((k[i] for k in terms), default=0) for i in range(len(series.lo))]
    highs = [max((k[i] + 1 for k in terms), default=0) for i in range(len(series.lo))]
    assert series.lo == tuple(lows)
    assert series.coeffs.shape == tuple(h - l for h, l in zip(highs, lows))
    # integral values are stored as int, whatever arithmetic produced them
    assert not any(
        isinstance(c, Fraction) and c.denominator == 1 for c in series.terms.values()
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dense_storage_matches_dict_reference(data):
    ring = data.draw(rings())
    a_terms = data.draw(term_dicts(ring))
    b_terms = data.draw(term_dicts(ring))
    a, b = from_terms(ring, a_terms), from_terms(ring, b_terms)
    assert_matches(a, a_terms)
    assert_matches(a + b, ref_add(ring, a_terms, b_terms))
    assert_matches(a - b, ref_add(ring, a_terms, {k: -c for k, c in b_terms.items()}))
    assert_matches(a * b, ref_mul(ring, a_terms, b_terms))
    power = data.draw(st.integers(0, 3))
    want = {(0,) * len(ring.variables): 1}
    for _ in range(power):
        want = ref_mul(ring, want, a_terms)
    assert_matches(a**power, want)

    # a unit plus terms of positive capped degree, which is mostly invertible
    unit = {(0,) * len(ring.variables): data.draw(coefficients.filter(bool))}
    u_terms = ref_add(ring, unit, data.draw(term_dicts(ring, capped_low=1)))
    for terms in (a_terms, u_terms):
        inverse = ref_invert(ring, terms)
        if inverse is None:
            with pytest.raises(NotInvertible):
                from_terms(ring, terms).invert()
        else:
            assert_matches(from_terms(ring, terms).invert(), inverse)

    v = data.draw(st.sampled_from(ring.variables))
    i = ring.variables.index(v)
    exponent = data.draw(st.integers(-2, 4))
    assert_matches(
        a.coefficient_of(v, exponent),
        {k[:i] + (0,) + k[i + 1 :]: c for k, c in a_terms.items() if k[i] == exponent},
    )
    assert a.min_exponent(v) == min((k[i] for k in a_terms), default=0)
    cap = data.draw(st.integers(1, ring.caps.get(v, 5)))
    narrow = a.truncate(**{v: cap})
    assert narrow.ring == ring.with_caps(**{v: cap})
    assert_matches(narrow, ref_clean(narrow.ring, a_terms))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pochhammer_binomials_match_one_minus_mono(data):
    # each factor 1 - c m is written as its two cells; it must be the series
    # the general subtraction builds, storage and integrality flag included
    ring = data.draw(rings())
    exps = lambda: {  # noqa: E731
        v: data.draw(st.integers(-2, ring.caps.get(v, 3))) for v in ring.variables
    }
    argument = Mono(data.draw(coefficients), exps())
    modulus = Mono(data.draw(coefficients), exps())
    try:
        factors = pochhammer_factors(ring, argument, modulus)
    except NonTerminating:
        return
    current = argument
    for factor in factors:
        want = ring.one() - ring.from_mono(current)
        assert factor == want and factor._integral == want._integral
        assert_matches(factor, want.terms)
        current = current * modulus


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncated_product_matches_dict_reference(data):
    ring = data.draw(rings())
    factors = data.draw(
        st.lists(term_dicts(ring, size=3), min_size=1, max_size=4)
    )
    full = {(0,) * len(ring.variables): 1}
    for terms in factors:
        full = ref_mul(ring, full, terms, caps={})
    got = truncated_product(ring, [from_terms(ring, terms) for terms in factors])
    assert_matches(got, ref_clean(ring, full))


@st.composite
def monos(draw, ring):
    """A monomial with exponents from -1 up to each cap (3 for uncapped)."""
    exps = {v: draw(st.integers(-1, ring.caps.get(v, 3))) for v in ring.variables}
    return Mono(draw(coefficients.filter(bool)), exps)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reciprocal_binomials_divide_exactly(data):
    ring = data.draw(rings())
    m = data.draw(monos(ring))
    try:
        inverse = binomial_factors(ring, m, -1)
    except NotInvertible:
        if m.exps:  # a constant divisor is refused: its doubling never ends
            with pytest.raises(NotInvertible):
                (ring.one() - ring.from_mono(m)).invert()
        return
    assert truncated_product(ring, binomial_factors(ring, m) + inverse) == ring.one()
    assert truncated_product(ring, inverse) == (ring.one() - ring.from_mono(m)).invert()
    # the doubling stops at the first square the caps discard
    assert ring.negligible(m ** 2 ** len(inverse))


def test_reciprocal_binomials_refuse_what_invert_refuses():
    ring = SeriesRing(("x", "p"), {"p": 6})
    with pytest.raises(NotInvertible):  # negative capped exponent
        binomial_factors(ring, ring.mono(1, p=-1, x=1), -1)
    with pytest.raises(NotInvertible):  # free of every capped variable
        binomial_factors(ring, ring.mono(2, x=1), -1)
    with pytest.raises(NotInvertible):
        pochhammer_factors(ring, ring.mono(1, x=1), ring.mono(1, p=1), -1)
    with pytest.raises(ValueError):
        binomial_factors(ring, ring.mono(1, p=1), 2)


def test_negligible_divisor_gives_no_factor():
    ring = SeriesRing(("x", "p"), {"p": 6})
    for power in (1, -1):
        assert binomial_factors(ring, ring.mono(1, p=6), power) == []
        assert binomial_factors(ring, ring.mono(1, p=7, x=-2), power) == []
        assert binomial_factors(ring, ring.mono(0, p=1), power) == []


def test_reciprocal_pochhammer_is_the_partition_series():
    ring, ep = euler(20)
    p = ring.mono(1, p=1)
    inverse = truncated_product(ring, pochhammer_factors(ring, p, p, -1))
    assert inverse == ep.invert()
    assert inverse.coefficient_of("p", 19) == ring.constant(490)


# ---------------------------------------------------------------------------
# numeric cross-checks against the floating-point kernels


def test_evaluate_matches_qpoch1():
    ring, ep = euler(40)
    got = series_value(ep, p=0.3)
    assert abs(got - qpoch1(0.3, 0.3)) < 1e-12


def test_evaluate_matches_qpoch2():
    ring = SeriesRing(("u", "w"), {"u": 26, "w": 26})
    s = truncated_product(
        ring,
        pochhammer2_factors(ring, ring.mono(1, u=1), ring.mono(1, u=1), ring.mono(1, w=1)),
    )
    got = series_value(s, u=0.25, w=0.3)
    assert abs(got - qpoch2(0.25, 0.25, 0.3)) < 1e-12


def test_evaluate_matches_theta0_mult():
    ring = SeriesRing(("x", "v"), {"v": 36})
    s = series_theta0(ring, ring.mono(1, x=1), ring.mono(1, v=1))
    got = series_value(s, x=0.4 + 0.1j, v=0.22)
    assert abs(got - theta0_mult(0.4 + 0.1j, 0.22)) < 1e-12
