"""Series engine tests: ring axioms, frozen expansions, truncation coherence,
and the soundness mechanism for factors that shift capped variables down.

The numeric cross-checks at the bottom compare exact truncated expansions
against the floating-point product kernels on points where the discarded
tail is below roundoff.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellverify.kernel import qpoch1, qpoch2
from helpers import (
    narrowed,
    reference_binomial_factors,
    reference_pochhammer2_factors,
    reference_pochhammer_factors,
    reference_theta0_factors,
    render,
    series_value,
)
from ellverify.series import (
    LaurentSeries,
    Mono,
    NonTerminating,
    NotInvertible,
    NotStabilized,
    SeriesRing,
    _cancelled,
    binomial_factors,
    pochhammer_factors,
    pochhammer2_factors,
    series_pochhammer,
    series_theta0,
    stabilized_product,
    theta0_factors,
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
    assert render(ep) == "1 - p - p^2 + p^5 + p^7 - p^12 - p^15"


def test_render_zero_and_signs():
    assert render(RING.zero()) == "0"
    s = RING.term(-2, x=-1) - RING.term(3, y=2) + RING.one()
    assert render(s) == "-2*x^-1 + 1 - 3*y^2"


def test_a_non_integral_request_raises_a_named_error():
    s = RING.one() + RING.term(1, y=1)
    for request in (
        lambda: Mono(Fraction(1, 2)),
        lambda: RING.term(0.5),
        lambda: s * Fraction(1, 2),
        lambda: s + 0.5,
    ):
        with pytest.raises(TypeError):
            request()
    # only a unit has an integer inverse
    for request in (Mono(2).reciprocal, Mono(0).reciprocal, RING.constant(2).invert):
        with pytest.raises(NotInvertible):
            request()
    assert RING.constant(-1).invert() == RING.constant(-1)
    inverse = Mono(-1, {"x": 1}).reciprocal()
    assert type(inverse.coeff) is int and inverse.coeff == -1 and inverse.exps == {"x": -1}


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
    b = Mono(-1, {"y": 2})
    assert (a * b).exps == {"x": 1}
    assert (a / b).coeff == -2 and (a / b).exps == {"x": 1, "y": -4}
    assert b.reciprocal().coeff == -1
    assert (b * b.reciprocal()).exps == {} and (b * b.reciprocal()).coeff == 1
    for m in (a, Mono(0), Mono(3, {"y": 1})):
        with pytest.raises(NotInvertible):
            m.reciprocal()


# ---------------------------------------------------------------------------
# ring axioms


def _series(draw_terms):
    terms = {}
    for xe, ye, num in draw_terms:
        terms[(xe, ye)] = terms.get((xe, ye), 0) + num
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
    assert narrowed(wide, p=6) == narrow


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
    assert narrowed(got, x=6) == narrowed(shifted_reference(2, 8), x=6)


def test_stabilized_product_is_exact_to_the_cap():
    def build(ring):
        return [ring.term(1, x=-2)] + pochhammer_factors(
            ring, ring.mono(1, x=2), ring.mono(1, x=1)
        )

    got = stabilized_product(("x",), {"x": 8}, build)
    assert got == shifted_reference(2, 8)
    assert got.lo == (-2,)


def test_stabilized_product_names_a_budget_that_keeps_growing():
    # a dip as deep as the working cap asks for a higher cap every round
    def build(ring):
        return [(1, (-ring.caps["x"],))]

    with pytest.raises(NotStabilized, match="^negative budget failed to stabilize$"):
        stabilized_product(("x",), {"x": 4}, build)


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
    assert got == narrowed(ref, u=5, w=5)


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
    """Geometric-series inverse, or None where the engine must refuse: a
    constant term that is not a unit has no integer inverse."""
    zero = (0,) * len(ring.variables)
    capped = [i for i, v in enumerate(ring.variables) if v in ring.caps]
    constant = a.get(zero)
    if constant not in (1, -1):
        return None
    for k in a:
        if k != zero and (
            any(k[i] < 0 for i in capped) or not any(k[i] > 0 for i in capped)
        ):
            return None
    # a unit is its own inverse
    remainder = ref_clean(ring, {k: -c * constant for k, c in a.items() if k != zero})
    out, power = {zero: 1}, remainder
    while power:
        out = ref_add(ring, out, power)
        power = ref_mul(ring, power, remainder)
    return {k: c * constant for k, c in out.items()}


def from_terms(ring, terms):
    out = ring.zero()
    for k, c in terms.items():
        out = out + ring.term(c, **dict(zip(ring.variables, k)))
    return out


coefficients = st.integers(-3, 3)


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
    assert_matches(b * a, ref_mul(ring, a_terms, b_terms))
    # with negative capped exponents a power is exact only if no partial
    # product drops its terms past the caps
    want = {(0,) * len(ring.variables): 1}
    for power in range(4):
        assert_matches(a**power, ref_clean(ring, want))
        want = ref_mul(ring, want, a_terms, caps={})
    # no product wrote to an operand's coefficients
    assert_matches(a, a_terms)
    assert_matches(b, b_terms)

    # a constant plus terms of positive capped degree, invertible when the
    # constant is a unit
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
    cap = data.draw(st.integers(1, ring.caps.get(v, 5)))
    narrow = narrowed(a, **{v: cap})
    assert narrow.ring == SeriesRing(ring.variables, {**ring.caps, v: cap})
    assert_matches(narrow, ref_clean(narrow.ring, a_terms))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pochhammer_binomials_match_one_minus_mono(data):
    # each factor is a pair (c, e) standing for 1 + c x^e; alone in a product
    # it must be the series the general subtraction builds, and the list must
    # run until the first discarded term
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
    if argument.coeff != 0 and not ring.negligible(argument):
        assert factors
    current = argument
    for factor in factors:
        coeff, exponents = factor
        assert exponents == tuple(current.exps.get(v, 0) for v in ring.variables)
        want = ring.one() - ring.from_mono(current)
        got = truncated_product(ring, [factor])
        assert got == want
        assert_matches(got, want.terms)
        current = current * modulus
    assert current.coeff == 0 or ring.negligible(current)


def test_zero_modulus_keeps_the_first_factor():
    # (m; 0)_inf = 1 - m: only the n = 0 factor survives, whatever the
    # zero modulus' exponents, for the product and for its reciprocal
    ring = SeriesRing(("x", "p"), {"p": 5})
    m = ring.mono(1, p=1)
    once = ring.one() - ring.from_mono(m)
    for modulus in (Mono(0), Mono(0, {"p": 1}), Mono(0, {"p": -1, "x": 2})):
        assert truncated_product(ring, pochhammer_factors(ring, m, modulus)) == once
        inverse = truncated_product(ring, pochhammer_factors(ring, m, modulus, -1))
        assert inverse == once.invert()
        double = pochhammer2_factors(ring, m, modulus, ring.mono(1, p=1))
        assert double == pochhammer_factors(ring, m, ring.mono(1, p=1))
    assert pochhammer_factors(ring, ring.mono(1, p=5), Mono(0)) == []


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


def test_a_non_integral_pair_raises_a_named_error():
    # a hand-built pair is read as Mono reads its coefficient, a pair of
    # exponent 0 too, which the product folds into its scale
    ring = SeriesRing(("x",), {"x": 4})
    for pair in ((Fraction(1, 2), (1,)), (0.5, (1,)), (0.5, (0,))):
        with pytest.raises(TypeError, match="int coefficient expected"):
            truncated_product(ring, [pair])


def test_monomials_past_every_cap_give_zero():
    # the monomials lift the unit term past the cap plus the whole negative
    # budget, so nothing the binomials do can bring a term back below it
    ring = SeriesRing(("x", "y"), {"y": 3})
    lift = [ring.term(1, y=2), ring.term(2, x=1, y=2), ring.term(1, y=2)]
    assert truncated_product(ring, lift + [(1, (0, -1)), (-1, (1, 1))]) == ring.zero()
    # a deep enough dip brings y**6 back as y**2
    got = truncated_product(ring, lift + [(1, (0, -4)), (-1, (1, 1))])
    assert got == ring.term(2, x=1, y=2)


@st.composite
def mixed_factors(draw, ring):
    """A factor list mixing binomial pairs (negative capped exponents and
    uncapped variables included, and pairs well past a cap), reciprocal
    pairs, monomials and dense series, each with its ``{exponent tuple:
    coefficient}`` reference."""
    zero = (0,) * len(ring.variables)
    factors, refs = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(("pair", "pair", "pair", "past", "reciprocal", "monomial", "dense"))
        )
        if kind == "dense":
            terms = draw(term_dicts(ring, size=3))
            factors.append(from_terms(ring, terms))
            refs.append(terms)
        elif kind == "monomial":
            exps = tuple(draw(st.integers(-2, ring.caps.get(v, 4) - 1)) for v in ring.variables)
            coeff = draw(coefficients)
            factors.append(ring.term(coeff, **dict(zip(ring.variables, exps))))
            refs.append({exps: coeff} if coeff else {})
        else:
            if kind == "pair":
                # up to past the cap, where a later dip can bring a term back
                exps = tuple(
                    draw(st.integers(-2, ring.caps.get(v, 2) + 1)) for v in ring.variables
                )
                pairs = [(draw(coefficients.filter(bool)), exps)]
            elif kind == "past":
                # from the cap up to 6 past it in one capped variable: idle
                # unless the dips and the seed can bring its term back
                far = draw(st.sampled_from(sorted(ring.caps)))
                exps = tuple(
                    draw(st.integers(ring.caps[v], ring.caps[v] + 6) if v == far
                         else st.integers(-2, ring.caps.get(v, 2) + 1))
                    for v in ring.variables
                )
                pairs = [(draw(coefficients.filter(bool)), exps)]
            else:
                try:
                    pairs = binomial_factors(ring, draw(monos(ring)), -1)
                except NotInvertible:
                    continue
            for coeff, exps in pairs:
                factors.append((coeff, exps))
                refs.append({zero: 1, exps: coeff} if exps != zero else {zero: 1 + coeff})
    return factors, refs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mixed_factor_lists_match_dict_reference(data):
    # pairs are applied in place, monomials gathered, dense series spread
    # cell by cell; the product must be exact to the caps whatever the order.
    # With two capped variables a pair can sit past one cap while it dips in
    # the other, so a later dip must find the terms the budget kept.
    ring = data.draw(rings().filter(lambda ring: len(ring.caps) >= 2))
    factors, refs = data.draw(mixed_factors(ring))
    full = {(0,) * len(ring.variables): 1}
    for terms in refs:
        full = ref_mul(ring, full, terms, caps={})
    assert_matches(truncated_product(ring, factors), ref_clean(ring, full))


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
    square = m
    for _ in inverse:
        square = square * square
    assert ring.negligible(square)


@st.composite
def cancelling_factors(draw, ring):
    """A factor list whose pairs cancel, with the ``{exponent tuple:
    coefficient}`` reference of each factor: each drawn pair beside its
    negation (negative capped exponents and uncapped variables included),
    each forward binomial beside its reciprocal's doubling chain, and a
    dense seed, in a drawn order."""
    zero = (0,) * len(ring.variables)
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            exps = tuple(
                draw(st.integers(-2, ring.caps.get(v, 2) + 1)) for v in ring.variables
            )
            coeff = draw(coefficients.filter(bool))
            pairs += [(coeff, exps), (-coeff, exps)]
        else:
            m = draw(monos(ring))
            try:
                pairs += binomial_factors(ring, m) + binomial_factors(ring, m, -1)
            except NotInvertible:
                continue
    seed = draw(term_dicts(ring, size=3).filter(lambda terms: len(terms) > 1))
    factors = [from_terms(ring, seed)] + pairs
    refs = [seed] + [{zero: 1, e: c} if e != zero else {zero: 1 + c} for c, e in pairs]
    order = draw(st.permutations(range(len(factors))))
    return [factors[k] for k in order], [refs[k] for k in order]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cancelled_pairs_give_the_dict_reference(data):
    # (1 + c x^e)(1 - c x^e) = 1 - c^2 x^2e: the product is the same
    # polynomial, so it is the same series to the caps, and no two pairs
    # that would cancel reach the box
    ring = data.draw(rings())
    factors, refs = data.draw(cancelling_factors(ring))
    full = {(0,) * len(ring.variables): 1}
    for terms in refs:
        full = ref_mul(ring, full, terms, caps={})
    assert_matches(truncated_product(ring, factors), ref_clean(ring, full))
    pairs = [f for f in factors if not isinstance(f, LaurentSeries) and any(f[1])]
    left = _cancelled(pairs)
    assert not any((-c, e) in left for c, e in left)


def test_a_binomial_eats_its_reciprocal_doubling_chain():
    # (1 - m) prod_{j<J} (1 + m**(2**j)) = 1 - m**(2**J): one pair, past the cap
    ring = SeriesRing(("x", "p"), {"p": 10})
    cases = [
        (ring.mono(1, p=1), (-1, (0, 16))),
        (ring.mono(2, x=-1, p=3), (-16, (-4, 12))),
        (ring.mono(-1, p=3), (-1, (0, 12))),
    ]
    for m, left in cases:
        forward, chain = binomial_factors(ring, m), binomial_factors(ring, m, -1)
        assert len(chain) > 1
        assert _cancelled(forward + chain) == _cancelled(chain + forward) == [left]
        assert ring.negligible(Mono(left[0], dict(zip(ring.variables, left[1]))))
        assert truncated_product(ring, forward + chain) == ring.one()


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


def test_a_bad_power_is_refused_before_any_enumeration():
    # even where no factor would be built: a zero or discarded monomial, an
    # empty progression
    ring = SeriesRing(("x", "p"), {"p": 6})
    p = ring.mono(1, p=1)
    for power in (0, 2, -2, 3):
        calls = [
            (binomial_factors, (ring.mono(0, p=1),)),
            (binomial_factors, (ring.mono(1, p=6),)),
            (binomial_factors, (p,)),
            (pochhammer_factors, (ring.mono(1, p=6), p)),
            (pochhammer_factors, (Mono(0), p)),
            (pochhammer_factors, (p, p)),
            (pochhammer2_factors, (ring.mono(1, p=6), p, p)),
            (pochhammer2_factors, (p, Mono(0), p)),
        ]
        for build, args in calls:
            with pytest.raises(ValueError, match="power must be 1 or -1") as caught:
                build(ring, *args, power)
            assert caught.type is ValueError


def _enumeration(build, ring, *args):
    """The factors ``build`` returns, coefficient types included, or the
    type and message of the error it raises."""
    try:
        factors = build(ring, *args)
    except (NonTerminating, NotInvertible) as exc:
        return type(exc), str(exc)
    return [(type(c), c, e) for c, e in factors]


def _builder_cases(ring, argument, modulus1, modulus2, power):
    return [
        (binomial_factors, reference_binomial_factors, (argument, power)),
        (pochhammer_factors, reference_pochhammer_factors, (argument, modulus1, power)),
        (
            pochhammer2_factors,
            reference_pochhammer2_factors,
            (argument, modulus1, modulus2, power),
        ),
        (theta0_factors, reference_theta0_factors, (argument, modulus1)),
    ]


@st.composite
def builder_monos(draw, ring):
    """A monomial, coefficient 0 included, with exponents from -2 to past each cap."""
    exps = {v: draw(st.integers(-2, ring.caps.get(v, 3) + 1)) for v in ring.variables}
    return Mono(draw(coefficients), exps)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_builders_enumerate_as_the_mono_reference(data):
    # the builders step exponent tuples; the reference multiplies Mono
    # objects and tests each against the caps.  Same pairs, same order, same
    # coefficient types, same errors.
    ring = data.draw(rings())
    argument, modulus1, modulus2 = (data.draw(builder_monos(ring)) for _ in range(3))
    power = data.draw(st.sampled_from((1, -1)))
    for build, reference, args in _builder_cases(ring, argument, modulus1, modulus2, power):
        assert _enumeration(build, ring, *args) == _enumeration(reference, ring, *args)


def test_builders_enumerate_as_the_mono_reference_on_pinned_cases():
    # the cases the property must reach: a zero modulus (under a discarded
    # argument too), a reciprocal, each error the builders raise, and a
    # coefficient grown by a product
    ring = SeriesRing(("x", "p", "q"), {"p": 6, "q": 4})
    p, q = ring.mono(1, p=1), ring.mono(1, q=1)
    cases = [
        (ring.mono(1, p=1, x=-1), Mono(0, {"p": -1}), q, 1),
        (ring.mono(1, p=6), Mono(0), ring.mono(1, q=-1), 1),
        (ring.mono(-1, p=1, q=1), Mono(0), Mono(0), -1),
        (ring.mono(-1, p=1), ring.mono(2, p=1, x=1), ring.mono(3, q=2), -1),
        (ring.mono(2, x=1, p=1), p * q, q, -1),
        (p, ring.mono(1, q=-1), p, 1),
        (p, ring.mono(1, x=2), p, 1),
        (p, q, ring.mono(1, x=1), -1),
        (ring.mono(1, p=-1, q=1), q, p, -1),
        (ring.mono(1, x=1), p, q, -1),
    ]
    seen = set()
    for argument, modulus1, modulus2, power in cases:
        for build, reference, args in _builder_cases(ring, argument, modulus1, modulus2, power):
            want = _enumeration(reference, ring, *args)
            assert _enumeration(build, ring, *args) == want
            if isinstance(want, tuple):
                seen.add(want)
    assert seen == {
        (NonTerminating, "modulus lowers the truncated variable 'q'"),
        (
            NonTerminating,
            "neither factor advances a truncated variable; the product "
            "never leaves the stored range",
        ),
        (NotInvertible, "negative exponent in a truncated variable"),
        (NotInvertible, "divisor free of every truncated variable"),
        (NotInvertible, "reciprocal of a monomial whose coefficient is not a unit"),
    }


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
    # the multiplicative theta0 (x; v) (v/x; v)
    assert abs(got - qpoch1(0.4 + 0.1j, 0.22) * qpoch1(0.22 / (0.4 + 0.1j), 0.22)) < 1e-12
