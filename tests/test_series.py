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
    LaurentSeries,
    Mono,
    NonTerminating,
    NotInvertible,
    SeriesRing,
    pochhammer_factors,
    series_pochhammer,
    series_pochhammer2,
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
    got = series_pochhammer2(
        ring, ring.mono(1, u=1), ring.mono(1, u=1), ring.mono(1, u=1)
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
    terms = {
        (e - shift,): c for (e,), c in full.terms.items() if e - shift < cap
    }
    return LaurentSeries(SeriesRing(("x",), {"x": cap}), terms)


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
# numeric cross-checks against the floating-point kernels


def test_evaluate_matches_qpoch1():
    ring, ep = euler(40)
    got = series_value(ep, p=0.3)
    assert abs(got - qpoch1(0.3, 0.3)) < 1e-12


def test_evaluate_matches_qpoch2():
    ring = SeriesRing(("u", "w"), {"u": 26, "w": 26})
    s = series_pochhammer2(
        ring, ring.mono(1, u=1), ring.mono(1, u=1), ring.mono(1, w=1)
    )
    got = series_value(s, u=0.25, w=0.3)
    assert abs(got - qpoch2(0.25, 0.25, 0.3)) < 1e-12


def test_evaluate_matches_theta0_mult():
    ring = SeriesRing(("x", "v"), {"v": 36})
    s = series_theta0(ring, ring.mono(1, x=1), ring.mono(1, v=1))
    got = series_value(s, x=0.4 + 0.1j, v=0.22)
    assert abs(got - theta0_mult(0.4 + 0.1j, 0.22)) < 1e-12
