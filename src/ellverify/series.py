"""Exact truncated multivariate Laurent-series arithmetic over rationals.

A :class:`SeriesRing` fixes an ordered variable list and, for a subset of the
variables, a truncation cap: terms whose exponent in a capped variable reaches
the cap are discarded, so arithmetic is exact modulo the discarded range.
Uncapped variables are honest Laurent directions (negative exponents fine,
every stored slice finite).

Capped variables may also carry negative exponents — several of the theta
rearrangements expand that way — but then plain chained multiplication is no
longer sound: a factor with a negative capped exponent pulls discarded terms
back under the cap.  :func:`truncated_product` multiplies a factor list with
per-step elevated caps sized from the remaining factors' negative budget, so
its output is exact up to the ring caps regardless of sign patterns.

Coefficients are :class:`fractions.Fraction` throughout; nothing here is
floating point.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "NonTerminating",
    "NotInvertible",
    "Mono",
    "SeriesRing",
    "LaurentSeries",
    "pochhammer_factors",
    "pochhammer2_factors",
    "theta0_factors",
    "series_pochhammer",
    "series_pochhammer2",
    "series_theta0",
    "truncated_product",
    "stabilized_product",
]


class NonTerminating(ValueError):
    """The requested product has infinitely many factors below the caps."""


class NotInvertible(ValueError):
    """Series inversion needs a unit constant term and nilpotent remainder."""


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


class Mono:
    """An exact monomial ``coeff * prod(var**exp)``, independent of any caps.

    Used as the argument/modulus currency for the product builders, because a
    monomial must survive unpruned even when its exponents exceed a ring cap
    (for instance while forming a reciprocal).
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps=None):
        self.coeff = _as_fraction(coeff)
        self.exps = {v: e for v, e in (exps or {}).items() if e != 0}

    def __mul__(self, other):
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = exps.get(v, 0) + e
        return Mono(self.coeff * other.coeff, exps)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def __pow__(self, power):
        if not isinstance(power, int):
            raise TypeError("integer power expected")
        if power < 0:
            return self.reciprocal() ** (-power)
        out = Mono(1)
        for _ in range(power):
            out = out * self
        return out

    def reciprocal(self):
        if self.coeff == 0:
            raise ZeroDivisionError("reciprocal of the zero monomial")
        return Mono(1 / self.coeff, {v: -e for v, e in self.exps.items()})

    def __repr__(self):
        parts = [str(self.coeff)]
        parts += [f"{v}^{e}" for v, e in sorted(self.exps.items())]
        return "*".join(parts)


class SeriesRing:
    """Variable order plus truncation caps shared by a family of series."""

    def __init__(self, variables, caps):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for v, cap in caps.items():
            if v not in self.variables:
                raise ValueError(f"cap on unknown variable {v!r}")
            if cap < 1:
                raise ValueError("caps must be >= 1")
        self.caps = dict(caps)
        self._index = {v: i for i, v in enumerate(self.variables)}
        self._cap_slots = tuple(
            (self._index[v], cap) for v, cap in sorted(self.caps.items())
        )

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and self.variables == other.variables
            and self.caps == other.caps
        )

    def __repr__(self):
        return f"SeriesRing({self.variables!r}, caps={self.caps!r})"

    def mono(self, coeff, **exps):
        for v in exps:
            if v not in self._index:
                raise ValueError(f"unknown variable {v!r}")
        return Mono(coeff, exps)

    def negligible(self, mono):
        """True when the monomial is discarded by this ring's caps."""
        return any(mono.exps.get(v, 0) >= cap for v, cap in self.caps.items())

    def _key(self, exps):
        return tuple(exps.get(v, 0) for v in self.variables)

    def zero(self):
        return LaurentSeries(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, value):
        value = _as_fraction(value)
        if value == 0:
            return self.zero()
        return LaurentSeries(self, {(0,) * len(self.variables): value})

    def term(self, coeff, **exps):
        """Single-term series; silently zero if the exponents exceed a cap."""
        return self.from_mono(self.mono(coeff, **exps))

    def from_mono(self, mono):
        if mono.coeff == 0 or self.negligible(mono):
            return self.zero()
        return LaurentSeries(self, {self._key(mono.exps): mono.coeff})

    def with_caps(self, **caps):
        merged = dict(self.caps)
        merged.update(caps)
        return SeriesRing(self.variables, merged)


class LaurentSeries:
    """Immutable sparse series over a :class:`SeriesRing`.

    ``terms`` maps exponent tuples (aligned with the ring's variable order) to
    nonzero Fractions; no stored exponent reaches its variable's cap.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- construction helpers -------------------------------------------------

    def _compatible(self, other):
        if self.ring != other.ring:
            raise ValueError("series belong to different rings")

    @staticmethod
    def _prune(ring, terms):
        dead = [
            key
            for key in terms
            if terms[key] == 0 or any(key[i] >= cap for i, cap in ring._cap_slots)
        ]
        for key in dead:
            del terms[key]
        return LaurentSeries(ring, terms)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._compatible(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key, 0) + coeff
            if total == 0:
                terms.pop(key, None)
            else:
                terms[key] = total
        return LaurentSeries(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                return self.ring.zero()
            return LaurentSeries(self.ring, {k: c * other for k, c in self.terms.items()})
        self._compatible(other)
        return self._mul_bounded(other, self.ring._cap_slots)

    __rmul__ = __mul__

    def _mul_bounded(self, other, cap_slots):
        """Multiply, pruning at the supplied (index, bound) pairs."""
        out = {}
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        for k1, c1 in small.items():
            for k2, c2 in large.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                if any(key[i] >= cap for i, cap in cap_slots):
                    continue
                total = out.get(key, 0) + c1 * c2
                if total == 0:
                    out.pop(key, None)
                else:
                    out[key] = total
        return LaurentSeries(self.ring, out)

    def __pow__(self, power):
        if not isinstance(power, int):
            raise TypeError("integer power expected")
        if power < 0:
            return self.invert() ** (-power)
        out = self.ring.one()
        base = self
        while power:
            if power & 1:
                out = out * base
            base = base * base if power > 1 else base
            power >>= 1
        return out

    def invert(self):
        """Multiplicative inverse of a series with unit constant term.

        Requires every non-constant term to carry a positive exponent in some
        capped variable (so the remainder is nilpotent under truncation) and no
        negative capped exponents anywhere (pruned inversion would be unsound).
        """
        zero_key = (0,) * len(self.ring.variables)
        constant = self.terms.get(zero_key)
        if not constant:
            raise NotInvertible("no unit constant term")
        capped = [self.ring._index[v] for v in self.ring.caps]
        for key in self.terms:
            if key == zero_key:
                continue
            if any(key[i] < 0 for i in capped):
                raise NotInvertible("negative exponent in a truncated variable")
            if not any(key[i] > 0 for i in capped):
                raise NotInvertible(
                    "non-constant term free of every truncated variable"
                )
        remainder = self.ring.one() - self * Fraction(1, 1) / constant
        out = self.ring.one()
        power = remainder
        rounds = sum(self.ring.caps.values()) + 1
        for _ in range(rounds):
            if not power.terms:
                break
            out = out + power
            power = power * remainder
        else:
            raise RuntimeError("inversion failed to stabilize")
        return out * (Fraction(1) / constant)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_fraction(other))
        self._compatible(other)
        return self * other.invert()

    # -- predicates and views -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def coefficient_of(self, variable, exponent):
        """Sub-series of terms with the given exponent, that exponent zeroed.

        ``coefficient_of("q", 0)`` is the coefficient-wise ``q -> 0`` limit.
        """
        idx = self.ring._index[variable]
        out = {}
        for key, coeff in self.terms.items():
            if key[idx] == exponent:
                out[key[:idx] + (0,) + key[idx + 1 :]] = coeff
        return LaurentSeries(self.ring, out)

    def min_exponent(self, variable):
        """Smallest stored exponent of ``variable`` (0 for the zero series)."""
        idx = self.ring._index[variable]
        if not self.terms:
            return 0
        return min(key[idx] for key in self.terms)

    def truncate(self, **caps):
        """Re-truncate into the ring with the tightened caps."""
        ring = self.ring.with_caps(**caps)
        for v, cap in caps.items():
            if cap > self.ring.caps.get(v, cap):
                raise ValueError(f"cannot raise the cap on {v!r} after the fact")
        return LaurentSeries._prune(ring, dict(self.terms))

    # -- rendering ------------------------------------------------------------

    def render(self):
        """Canonical text form (exponent-lex term order) for golden files."""
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            body = "*".join(
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.ring.variables, key)
                if e != 0
            )
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

    def __repr__(self):
        text = self.render()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"<LaurentSeries {text}>"


# ---------------------------------------------------------------------------
# product builders


def _check_modulus(ring, modulus, argument):
    for v in ring.caps:
        if modulus.exps.get(v, 0) < 0:
            raise NonTerminating(f"modulus lowers the truncated variable {v!r}")
    if ring.negligible(argument):
        return False
    if modulus.coeff == 0:
        return False
    if not any(modulus.exps.get(v, 0) > 0 for v in ring.caps):
        raise NonTerminating(
            "neither factor advances a truncated variable; the product "
            "never leaves the stored range"
        )
    return True


def pochhammer_factors(ring, argument, modulus):
    """Binomial factors ``1 - argument*modulus**n`` kept below the caps."""
    if argument.coeff == 0:
        return []
    if not _check_modulus(ring, modulus, argument):
        return []
    factors = []
    current = argument
    while current.coeff != 0 and not ring.negligible(current):
        factors.append(ring.one() - ring.from_mono(current))
        current = current * modulus
    return factors


def pochhammer2_factors(ring, argument, modulus1, modulus2):
    """Factors of the double product iterating ``modulus1`` then ``modulus2``."""
    if argument.coeff == 0:
        return []
    if not _check_modulus(ring, modulus1, argument):
        return []
    factors = []
    current = argument
    while current.coeff != 0 and not ring.negligible(current):
        factors.extend(pochhammer_factors(ring, current, modulus2))
        current = current * modulus1
    return factors


def theta0_factors(ring, argument, modulus):
    """Factors of ``(arg; mod)(mod/arg; mod)`` — the product-form theta."""
    return pochhammer_factors(ring, argument, modulus) + pochhammer_factors(
        ring, modulus / argument, modulus
    )


def truncated_product(ring, factors):
    """Product of a factor list, exact up to the ring caps.

    Factors whose terms dip to negative exponents in capped variables are
    multiplied first, and every intermediate product is pruned at the ring cap
    plus the remaining factors' total negative budget, so later downward
    shifts cannot reach below the caps from discarded territory.
    """
    factors = sorted(
        factors,
        key=lambda f: 0 if any(f.min_exponent(v) < 0 for v in ring.caps) else 1,
    )
    budgets = []
    running = {v: 0 for v in ring.caps}
    for factor in reversed(factors):
        budgets.append(dict(running))
        for v in ring.caps:
            running[v] += max(0, -factor.min_exponent(v))
    budgets.reverse()
    out = ring.one()
    for factor, slack in zip(factors, budgets):
        bounds = tuple(
            (ring._index[v], ring.caps[v] + slack[v]) for v in sorted(ring.caps)
        )
        out = out._mul_bounded(factor, bounds)
    return LaurentSeries._prune(ring, dict(out.terms))


def stabilized_product(variables, caps, build):
    """Product of ``build(ring)``'s factors, exact up to the requested caps.

    When a factor list contains downward shifts in capped variables, factors
    enumerated against the target caps are too few: terms pulled down from
    above the caps still land in range.  This helper re-invokes ``build``
    under working caps elevated by the list's own negative budget until that
    budget stabilizes, multiplies there, and truncates back.  With a clean
    factor list the first round is already stable and there is no overhead.
    """
    working = dict(caps)
    for _ in range(8):
        ring = SeriesRing(variables, working)
        factors = build(ring)
        budgets = {v: 0 for v in caps}
        for factor in factors:
            for v in budgets:
                budgets[v] += max(0, -factor.min_exponent(v))
        wanted = {v: caps[v] + budgets[v] for v in caps}
        if wanted == working:
            return truncated_product(ring, factors).truncate(**caps)
        working = wanted
    raise RuntimeError("negative budget failed to stabilize")


def series_pochhammer(ring, argument, modulus):
    """Exact expansion of ``prod_n (1 - argument*modulus**n)``."""
    return truncated_product(ring, pochhammer_factors(ring, argument, modulus))


def series_pochhammer2(ring, argument, modulus1, modulus2):
    """Exact expansion of the two-modulus product."""
    return truncated_product(
        ring, pochhammer2_factors(ring, argument, modulus1, modulus2)
    )


def series_theta0(ring, argument, modulus):
    """Exact expansion of the product-form theta ``(arg;mod)(mod/arg;mod)``."""
    return truncated_product(ring, theta0_factors(ring, argument, modulus))
