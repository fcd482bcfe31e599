"""Order-by-order verification of the product-form conjectures.

Everything here runs in exact integer arithmetic on truncated Laurent
series (:mod:`.series`), so a passing check shows that two expansions
agree identically through the stated order — no tolerances involved.

Covered material: the classical triple-product expansion of the level-kappa
theta, the conjectured graded normalizing product against its rank-one
closed form, the conjectured evaluation of the normalized character ratio
against its rank-one theorem, the degenerate-nome limit that recovers the
symmetric-function weight, and series forms of the four pointwise theta
rearrangements from :mod:`.lemmas`.

The ``*_cases`` runners are registered as exact series checks in
:mod:`.catalog`; :func:`run_series_check` runs one of them by check id.
"""

from __future__ import annotations

import dataclasses
import math

from .series import (
    SeriesRing,
    binomial_factors,
    pochhammer_factors,
    pochhammer2_factors,
    series_theta0,
    stabilized_product,
    theta0_factors,
    truncated_product,
)

__all__ = [
    "AffineRootLayer",
    "positive_finite_roots",
    "series_triple_product_check",
    "denominator_conjecture_series",
    "denominator_closed_form_series",
    "aff_eval_conjecture_series",
    "aff_eval_closed_form_series",
    "triple_product_cases",
    "denominator_cases",
    "aff_eval_cases",
    "hall_limit_cases",
    "theta_lemma_cases",
    "run_series_check",
]


# ---------------------------------------------------------------------------
# root bookkeeping


def positive_finite_roots(n):
    """Interval roots of the rank ``n - 1`` finite layer.

    Each root is a coordinate tuple over the simple roots; the interval
    ``[i, j]`` has ones in positions ``i..j``.  There are n(n-1)/2 of them.
    """
    if n < 2:
        raise ValueError("rank data needs n >= 2")
    roots = []
    for i in range(1, n):
        for j in range(i, n):
            roots.append(tuple(1 if i <= l <= j else 0 for l in range(1, n)))
    return tuple(roots)


def _pair(root, weights):
    """Pairing of a root (simple-root coords) with fundamental-weight coords."""
    return sum(c * m for c, m in zip(root, weights))


@dataclasses.dataclass(frozen=True)
class AffineRootLayer:
    """Finite slice of the affinized root system at a fixed imaginary height.

    Layer 0 holds only the positive finite roots; every layer m >= 1 holds
    all finite roots (both signs) plus the imaginary root with multiplicity
    ``n - 1``.
    """

    n: int
    layer: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank data needs n >= 2")
        if self.layer < 0:
            raise ValueError("layer must be >= 0")

    @property
    def finite_roots(self):
        positive = positive_finite_roots(self.n)
        if self.layer == 0:
            return positive
        negative = tuple(tuple(-c for c in root) for root in positive)
        return positive + negative

    @property
    def imaginary_multiplicity(self):
        return 0 if self.layer == 0 else self.n - 1


def _mu_coords(n, mu):
    """Normalize a dominant weight to fundamental coordinates."""
    if isinstance(mu, int):
        if n != 2:
            raise ValueError("scalar weight shorthand is rank-one only")
        mu = (mu,)
    mu = tuple(int(m) for m in mu)
    if len(mu) != n - 1:
        raise ValueError(f"weight needs {n - 1} coordinates, got {len(mu)}")
    if any(m < 0 for m in mu):
        raise ValueError("weight coordinates must be dominant (>= 0)")
    return mu


# ---------------------------------------------------------------------------
# triple product


def series_triple_product_check(mu, kappa, order):
    """Lattice-sum vs product expansion of the level-``kappa`` theta.

    Both sides are expanded in the half-period variable ``s`` (coefficients
    are Laurent polynomials in the uncapped position variable ``x``) and
    compared exactly through ``s**order``.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if abs(mu) > kappa:
        raise ValueError("index must satisfy |mu| <= kappa")
    ring = SeriesRing(("x", "s"), {"s": order + 1})

    lattice = ring.zero()
    width = abs(mu) + math.isqrt(max(order, 0)) + 2
    for j in range(-width, width + 1):
        lattice = lattice + ring.term(1, s=kappa * j * j + mu * j, x=kappa * j)

    step = ring.mono(1, s=2 * kappa)
    product = truncated_product(
        ring,
        pochhammer_factors(ring, step, step)
        + pochhammer_factors(ring, ring.mono(-1, s=kappa + mu, x=kappa), step)
        + pochhammer_factors(ring, ring.mono(-1, s=kappa - mu, x=-kappa), step),
    )
    return lattice == product


# ---------------------------------------------------------------------------
# graded normalizing product


def _z_exps(root, scale):
    return {f"z{l}": scale * c for l, c in enumerate(root, start=1) if c}


def denominator_conjecture_series(n, k_mac, order):
    """Conjectured product for the normalized graded trace at the zero weight.

    Expanded through ``p**order`` over variables ``(p, q, z1..z_{n-1})``
    where ``z_l`` stands for ``q`` raised to minus the l-th simple pairing of
    the weight argument, so all exponents stay integral.
    """
    if k_mac < 1:
        raise ValueError("k_mac must be >= 1")
    variables = ("p", "q") + tuple(f"z{l}" for l in range(1, n))
    positive = positive_finite_roots(n)

    def build(ring):
        p = ring.mono(1, p=1)
        factors = [
            ring.term(
                1, **{f"z{l}": -(k_mac - 1) * l * (n - l) for l in range(1, n)}
            )
        ]
        for i in range(1, k_mac):
            factors += pochhammer_factors(ring, ring.mono(1, p=1, q=2 * i), p)
            factors += pochhammer_factors(ring, ring.mono(1, p=1, q=2 * n * i), p, -1)
        for i in range(1, k_mac):
            for root in positive:
                factors += binomial_factors(ring, ring.mono(1, q=2 * i, **_z_exps(root, 2)))
            m = 1
            while not ring.negligible(ring.mono(1, p=m)):
                for root in positive:
                    for sign in (2, -2):
                        factors += binomial_factors(
                            ring, ring.mono(1, p=m, q=2 * i, **_z_exps(root, sign))
                        )
                factors += binomial_factors(ring, ring.mono(1, p=m, q=2 * i)) * (n - 1)
                m += 1
        return factors

    return stabilized_product(variables, {"p": order + 1}, build)


def denominator_closed_form_series(order):
    """Rank-one closed form of the graded normalizing product, same ring."""
    variables = ("p", "q", "z1")

    def build(ring):
        p = ring.mono(1, p=1)
        return (
            [ring.term(1, z1=-1)]
            + pochhammer_factors(ring, ring.mono(1, p=1, q=2), p)
            + pochhammer_factors(ring, ring.mono(1, p=1, q=4), p, -1)
            + pochhammer_factors(ring, ring.mono(1, q=2, z1=2), p)
            + pochhammer_factors(ring, ring.mono(1, p=1, q=2, z1=-2), p)
            + pochhammer_factors(ring, ring.mono(1, p=1, q=2), p)
        )

    return stabilized_product(variables, {"p": order + 1}, build)


# ---------------------------------------------------------------------------
# evaluation conjecture


def aff_eval_conjecture_series(n, k_mac, mu, k, order):
    """Conjectured product for the normalized character ratio.

    Expanded in ``r`` (the reciprocal of the base), exactly through
    ``r**order``.  The series is an honest Laurent series: the leading
    exponent is minus twice the pairing of the weight with the scaled Weyl
    vector.  Factors that vanish identically (degenerate weight/level
    combinations) make the whole series zero, matching the closed form.
    """
    mu = _mu_coords(n, mu)
    if k_mac < 1 or k < 0:
        raise ValueError("need k_mac >= 1 and k >= 0")
    kappa_bar = k + k_mac * n
    lead = k_mac * sum(m * l * (n - l) for l, m in enumerate(mu, start=1))

    def build(ring):
        def r(exponent):
            return ring.mono(1, r=2 * exponent)

        factors = [ring.term(1, r=-lead)]
        # imaginary-root correction brackets (cancel identically when k == 0)
        step_bar, step_n = r(kappa_bar), r(k_mac * n)
        for i in range(1, k_mac):
            factors += pochhammer_factors(ring, r(i), step_bar)
            factors += pochhammer_factors(ring, r(n * i), step_bar, -1)
            factors += pochhammer_factors(ring, r(n * i), step_n)
            factors += pochhammer_factors(ring, r(i), step_n, -1)
        for root in AffineRootLayer(n, 0).finite_roots:
            shift = _pair(root, mu) + k_mac * sum(root)
            for i in range(k_mac):
                factors += binomial_factors(ring, r(shift + i))
                factors += binomial_factors(ring, r(k_mac * sum(root) + i), -1)
        # the layers m = 1, 2, ... of one root and i: a progression in m
        layers = AffineRootLayer(n, 1)
        for root in layers.finite_roots:
            shift = _pair(root, mu) + k_mac * sum(root)
            for i in range(k_mac):
                factors += pochhammer_factors(ring, r(kappa_bar + shift + i), step_bar)
                factors += pochhammer_factors(
                    ring, r(k_mac * n + k_mac * sum(root) + i), step_n, -1
                )
        for i in range(k_mac):
            imaginary = pochhammer_factors(ring, r(kappa_bar + i), step_bar)
            imaginary += pochhammer_factors(ring, r(k_mac * n + i), step_n, -1)
            factors += imaginary * layers.imaginary_multiplicity
        return factors

    return stabilized_product(("r",), {"r": order + 1}, build)


def aff_eval_closed_form_series(mu, k, order):
    """Rank-one theorem side of the evaluation conjecture, same ring."""
    mu = _mu_coords(2, mu)[0]
    if k < 0:
        raise ValueError("k must be >= 0")
    kappa = k + 4

    def build(ring):
        period = ring.mono(1, r=2 * kappa)

        def poch(exponent, modulus=period, power=1):
            return pochhammer_factors(ring, ring.mono(1, r=exponent), modulus, power)

        return (
            [ring.term(1, r=-2 * mu)]
            + poch(2)
            + poch(2 * mu + 4)
            + poch(2 * kappa - 2 * mu - 4)
            + poch(2 * mu + 6)
            + poch(2 * kappa - 2 * mu - 2)
            + poch(2 * kappa)
            + poch(2 * kappa + 2)
            + poch(4, power=-1)
            + poch(4, ring.mono(1, r=2), -1)
            + poch(6, ring.mono(1, r=8), -1)
            + poch(2, ring.mono(1, r=8), -1)
        )

    return stabilized_product(("r",), {"r": order + 1}, build)


# ---------------------------------------------------------------------------
# degenerate-nome limit


def _hall_limit_parts(n, k_mac, order):
    """(limit agrees, substitution agrees) for the elliptic weight factor.

    The first checks that the weight's zero-base limit is the classical
    two-parameter symmetric-function weight; the second, that the graded
    normalizing ratio equals the elliptic weight under the nome substitution.
    """
    caps = {"p": order + 1, "q": order + 1}
    ring = SeriesRing(("p", "q", "t"), caps)
    p2 = ring.mono(1, p=2)
    q2 = ring.mono(1, q=2)
    q2n = ring.mono(1, q=2 * n)
    t2 = ring.mono(1, t=2)
    t2n = ring.mono(1, t=2 * n)
    weight = truncated_product(
        ring,
        pochhammer2_factors(ring, p2 * q2, p2, q2)
        + pochhammer2_factors(ring, p2 * t2, p2, q2, -1)
        + pochhammer2_factors(ring, p2 * t2n, p2, q2n)
        + pochhammer2_factors(ring, p2 * q2n, p2, q2n, -1),
    )
    degenerate = truncated_product(
        ring,
        pochhammer_factors(ring, p2 * t2n, p2) + pochhammer_factors(ring, p2 * t2, p2, -1),
    )
    limit_ok = weight.coefficient_of("q", 0) == degenerate

    ring2 = SeriesRing(("Q", "q"), {"Q": order + 1, "q": order + 1})
    Q2 = ring2.mono(1, Q=2)
    direct = []
    for i in range(1, k_mac):
        direct += pochhammer_factors(ring2, Q2 * ring2.mono(1, q=2 * i), Q2)
        direct += pochhammer_factors(ring2, Q2 * ring2.mono(1, q=2 * n * i), Q2, -1)
    qq2 = ring2.mono(1, q=2)
    qq2n = ring2.mono(1, q=2 * n)
    substituted = (
        pochhammer2_factors(ring2, Q2 * qq2, Q2, qq2)
        + pochhammer2_factors(ring2, Q2 * ring2.mono(1, q=2 * k_mac), Q2, qq2, -1)
        + pochhammer2_factors(ring2, Q2 * ring2.mono(1, q=2 * k_mac * n), Q2, qq2n)
        + pochhammer2_factors(ring2, Q2 * qq2n, Q2, qq2n, -1)
    )
    return limit_ok, truncated_product(ring2, direct) == truncated_product(ring2, substituted)


# ---------------------------------------------------------------------------
# series forms of the pointwise theta rearrangements


def _simp2_sides(order):
    # variables: a = position exponential, v = quarter-period exponential
    ring = SeriesRing(("a", "v"), {"v": order + 1})
    v4 = ring.mono(1, v=4)
    v1 = ring.mono(1, v=1)
    t_high = series_theta0(ring, ring.mono(-1, a=2, v=3), v4)
    t_low = series_theta0(ring, ring.mono(-1, a=2, v=1), v4)
    half = series_theta0(ring, ring.mono(-1), v1)
    a_inv = ring.term(1, a=-1)
    side1 = (t_high + a_inv * t_low) * half
    side2 = (
        2
        * a_inv
        * series_theta0(ring, ring.mono(-1, v=3), v4)
        * series_theta0(ring, ring.mono(-1, a=1), v1)
    )
    return side1, side2


def _simp3_sides(order):
    # a = position, b = half-weight exponential, u = period exponential
    ring = SeriesRing(("a", "b", "u"), {"u": order + 1})
    u1 = ring.mono(1, u=1)
    u2 = ring.mono(1, u=2)

    def th(coeff, mod, **exps):
        return series_theta0(ring, ring.mono(coeff, **exps), mod)

    common = th(-1, u2) ** 2 * th(-1, u2, u=1) * th(1, u2, u=1)
    side1 = (
        ring.term(1, b=1) * th(1, u1, a=1, b=2) * th(-1, u2, a=1, b=-4)
        - ring.term(1, b=-1) * th(1, u1, a=1, b=-2) * th(-1, u2, a=1, b=4)
    ) * common
    bracket = (
        th(-1, u2, b=4) * th(1, u2, u=1) * th(-1, u2, a=1) ** 2
        - th(-1, u1, b=2) ** 2 * th(-1, u2, u=1) * th(1, u2, a=1) ** 2
    )
    side2 = 2 * ring.term(1, b=-3) * th(-1, u2, a=1, u=1) * th(1, u1, b=2) * bracket
    return side1, side2


def _sym_rearrange_sides(order):
    # x = position, u = first period, w = shift exponential (eighth period)
    variables = ("x", "u", "w")
    caps = {"u": order + 1, "w": order + 1}

    def num(ring, y):
        mods = (ring.mono(1, u=1), ring.mono(1, w=8))
        return pochhammer2_factors(ring, mods[0] * mods[1] / y, *mods)

    def den(ring, y):
        return pochhammer2_factors(ring, y, ring.mono(1, u=1), ring.mono(1, w=8))

    def build1(ring):
        up = ring.mono(1, x=1, w=-2)
        down = ring.mono(1, x=1, w=2)
        refl = ring.mono(1, x=-1, w=-2)
        return num(ring, up) + den(ring, down) + den(ring, up) + den(ring, refl)

    def build2(ring):
        up = ring.mono(1, x=1, w=-2)
        down = ring.mono(1, x=1, w=2)
        refl = ring.mono(1, x=-1, w=-2)
        return (
            [ring.term(-1, x=-1, w=-2)]
            + num(ring, up)
            + num(ring, refl)
            + den(ring, up)
            + num(ring, down)
            + theta0_factors(ring, down, ring.mono(1, u=1))
            + theta0_factors(ring, down, ring.mono(1, w=8))
        )

    side1 = stabilized_product(variables, caps, build1)
    side2 = stabilized_product(variables, caps, build2)
    return side1, side2


def _simp4_sides(order):
    # u = period exponential, w = shift exponential (eighth period)
    variables = ("u", "w")
    caps = {"u": order + 1, "w": order + 1}

    def doubled_args(ring):
        # arguments of the twelve double-period gamma factors
        return [
            ring.mono(1, u=1, w=-4),
            ring.mono(-1, w=6),
            ring.mono(1, w=-2),
            ring.mono(-1, w=2),
            ring.mono(1, u=1, w=-2),
            ring.mono(1, u=1, w=-2),
            ring.mono(1, u=2, w=-2),
            ring.mono(-1, w=8),
            ring.mono(1, w=12),
            ring.mono(-1, u=1, w=8),
            ring.mono(-1, w=4),
            ring.mono(1, u=1),
        ]

    def build1(ring):
        u1, u2, w8 = ring.mono(1, u=1), ring.mono(1, u=2), ring.mono(1, w=8)
        factors = [ring.constant(2)]
        for arg in doubled_args(ring):
            factors += pochhammer2_factors(ring, u2 * w8 / arg, u2, w8)
        factors += pochhammer2_factors(ring, ring.mono(1, w=6), u1, w8)
        factors += pochhammer2_factors(ring, u1 * w8 / ring.mono(1, w=2), u1, w8)
        factors += pochhammer_factors(ring, u1, u1)
        factors += theta0_factors(ring, ring.mono(1, u=1, w=4), u1)
        factors += pochhammer_factors(ring, ring.mono(1, w=4), ring.mono(1, w=4))
        factors += pochhammer_factors(ring, ring.mono(-1, w=2), ring.mono(1, w=2))
        return factors

    def build2(ring):
        u1, u2, w8 = ring.mono(1, u=1), ring.mono(1, u=2), ring.mono(1, w=8)
        factors = [ring.constant(2)]
        factors += pochhammer2_factors(ring, u1 * w8 / ring.mono(1, w=6), u1, w8)
        factors += pochhammer2_factors(ring, ring.mono(1, w=2), u1, w8)
        factors += pochhammer_factors(ring, ring.mono(-1, u=1), u1)
        factors += theta0_factors(ring, ring.mono(-1, w=2), u1)
        factors += theta0_factors(ring, ring.mono(-1, u=1, w=2), u1)
        factors += pochhammer_factors(ring, u2, u2)
        factors += pochhammer_factors(ring, w8, w8)
        for arg in doubled_args(ring):
            factors += pochhammer2_factors(ring, arg, u2, w8)
        return factors

    side1 = stabilized_product(variables, caps, build1)
    side2 = stabilized_product(variables, caps, build2)
    return side1, side2


_LEMMA_SERIES = {
    "theta-simp2": _simp2_sides,
    "theta-simp3": _simp3_sides,
    "theta-simp4": _simp4_sides,
    "sym-rearrange": _sym_rearrange_sides,
}


# ---------------------------------------------------------------------------
# runners of the registered series checks (see :mod:`.catalog`)


def triple_product_cases(order):
    cases = []
    for mu, kappa in ((0, 1), (1, 3), (2, 4)):
        cases.append(
            {
                "mu": mu,
                "kappa": kappa,
                "exact": series_triple_product_check(mu, kappa, order),
            }
        )
    return cases


def denominator_cases(order):
    trivial = denominator_conjecture_series(2, 1, order)
    one = SeriesRing(("p", "q", "z1"), {"p": order + 1}).one()
    cases = [{"n": 2, "k_mac": 1, "exact": trivial == one}]
    conjectured = denominator_conjecture_series(2, 2, order)
    cases.append(
        {
            "n": 2,
            "k_mac": 2,
            "exact": conjectured == denominator_closed_form_series(order),
        }
    )
    return cases


def aff_eval_cases(order):
    cases = []
    for mu in range(4):
        for k in range(4):
            conjectured = aff_eval_conjecture_series(2, 2, mu, k, order)
            theorem = aff_eval_closed_form_series(mu, k, order)
            cases.append({"mu": mu, "k": k, "exact": conjectured == theorem})
    return cases


def hall_limit_cases(order):
    cases = []
    for n, k_mac in ((2, 1), (2, 2), (3, 2), (3, 3)):
        limit_ok, subst_ok = _hall_limit_parts(n, k_mac, order)
        cases.append(
            {
                "n": n,
                "k_mac": k_mac,
                "limit_exact": limit_ok,
                "substitution_exact": subst_ok,
                "exact": limit_ok and subst_ok,
            }
        )
    return cases


def theta_lemma_cases(name, order):
    """Exact series form of the pointwise theta rearrangement ``name``.

    The identity is cross-multiplied so both sides are finite products — no
    inversions — and compared coefficient-by-coefficient through the
    requested order in every period variable.
    """
    side1, side2 = _LEMMA_SERIES[name](order)
    return [{"lemma": name, "exact": side1 == side2}]


def run_series_check(check_id: str, order=None) -> dict:
    """Run one registered exact check; the outcome is JSON-ready."""
    from . import catalog  # catalog imports this module for the runners

    entry = catalog.entry_of_kind(check_id, "series")
    order = entry.default_order if order is None else int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    cases = entry.runner(order)
    return {
        "id": entry.id,
        "order": order,
        "exact": all(case["exact"] for case in cases),
        "cases": cases,
    }
