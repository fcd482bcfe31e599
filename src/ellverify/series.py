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

A series is stored densely over the bounding box of its terms, as an
object-dtype ``numpy`` array.  Coefficients are exact: ``int``, and
:class:`fractions.Fraction` only where a coefficient is not integral.  Nothing
here is floating point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

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


def _exact(value):
    """``value`` as an ``int`` when integral, else as a ``Fraction``."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


_EXACT = np.frompyfunc(_exact, 1, 1)


class Mono:
    """An exact monomial ``coeff * prod(var**exp)``, independent of any caps.

    Used as the argument/modulus currency for the product builders, because a
    monomial must survive unpruned even when its exponents exceed a ring cap
    (for instance while forming a reciprocal).
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps=None):
        self.coeff = _exact(coeff)
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
        base = self if power >= 0 else self.reciprocal()
        n = abs(power)
        return Mono(base.coeff**n, {v: e * n for v, e in base.exps.items()})

    def reciprocal(self):
        if self.coeff == 0:
            raise ZeroDivisionError("reciprocal of the zero monomial")
        return Mono(Fraction(1) / self.coeff, {v: -e for v, e in self.exps.items()})

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
        self._cap_slots = tuple((self._index[v], cap) for v, cap in sorted(self.caps.items()))

    def __eq__(self, other):
        same = isinstance(other, SeriesRing) and self.variables == other.variables
        return same and self.caps == other.caps

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

    def zero(self):
        empty = np.zeros((0,) * len(self.variables), dtype=object)
        return LaurentSeries(self, (0,) * len(self.variables), empty, True)

    def one(self):
        return self.constant(1)

    def constant(self, value):
        return self.from_mono(Mono(value))

    def term(self, coeff, **exps):
        """Single-term series; silently zero if the exponents exceed a cap."""
        return self.from_mono(self.mono(coeff, **exps))

    def from_mono(self, mono):
        if mono.coeff == 0 or self.negligible(mono):
            return self.zero()
        lo = tuple(mono.exps.get(v, 0) for v in self.variables)
        cell = np.full((1,) * len(lo), mono.coeff, dtype=object)
        return LaurentSeries(self, lo, cell, isinstance(mono.coeff, int))

    def with_caps(self, **caps):
        merged = dict(self.caps)
        merged.update(caps)
        return SeriesRing(self.variables, merged)


class LaurentSeries:
    """Immutable series over a :class:`SeriesRing`, dense over its terms' box.

    ``coeffs`` is an object-dtype array whose cell ``k`` holds the coefficient
    of the exponent tuple ``lo + k`` (aligned with the ring's variable order).
    The box is trimmed, so each of its faces holds a nonzero cell; the zero
    series has shape ``(0, ..., 0)`` at ``lo = (0, ..., 0)``.  No stored
    exponent reaches its variable's cap.  ``_integral`` is true when every
    coefficient is an ``int``.  :func:`_trimmed` builds a series from any box.
    """

    __slots__ = ("ring", "lo", "coeffs", "_integral")

    def __init__(self, ring, lo, coeffs, integral):
        self.ring = ring
        self.lo = lo
        self.coeffs = coeffs
        self._integral = integral

    def _compatible(self, other):
        if self.ring != other.ring:
            raise ValueError("series belong to different rings")

    @property
    def terms(self):
        """``{exponent tuple: coefficient}`` of the nonzero terms (a new dict)."""
        cells = np.nonzero(self.coeffs)
        keys = (np.transpose(cells) + self.lo).tolist()
        return dict(zip(map(tuple, keys), self.coeffs[cells].tolist()))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._compatible(other)
        if not other.coeffs.size:
            return self
        if not self.coeffs.size:
            return other
        lo = tuple(map(min, self.lo, other.lo))
        ends = [np.add(part.lo, part.coeffs.shape) for part in (self, other)]
        out = np.zeros(np.maximum(*ends) - lo, dtype=object)
        for part in (self, other):
            start = np.subtract(part.lo, lo)
            out[tuple(map(slice, start, start + part.coeffs.shape))] += part.coeffs
        return _trimmed(self.ring, lo, out, self._integral and other._integral)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.ring, self.lo, -self.coeffs, self._integral)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _exact(other)
            integral = self._integral and isinstance(other, int)
            return _trimmed(self.ring, self.lo, self.coeffs * other, integral)
        self._compatible(other)
        return self._mul_bounded(other, self.ring._cap_slots)

    __rmul__ = __mul__

    def _mul_bounded(self, other, cap_slots):
        """Multiply, dropping exponents at or past the (index, bound) pairs.

        Each nonzero cell ``c`` of the operand with fewer of them adds ``c`` times
        the shifted other operand, so a binomial costs two shifted updates.
        """
        small, large = self.coeffs, other.coeffs
        if np.count_nonzero(small) > np.count_nonzero(large):
            small, large = large, small
        lo = tuple(a + b for a, b in zip(self.lo, other.lo))
        shape = [m + n - 1 for m, n in zip(small.shape, large.shape)]
        for i, bound in cap_slots:
            shape[i] = min(shape[i], bound - lo[i])
        out = np.zeros([max(0, n) for n in shape], dtype=object)
        for cell in zip(*np.nonzero(small)):
            span = [min(n, s - k) for n, s, k in zip(large.shape, out.shape, cell)]
            if min(span) > 0:
                target = tuple(slice(k, k + m) for k, m in zip(cell, span))
                out[target] += small[cell] * large[tuple(slice(0, m) for m in span)]
        return _trimmed(self.ring, lo, out, self._integral and other._integral)

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
        constant = self.terms.get((0,) * len(self.lo))
        if not constant:
            raise NotInvertible("no unit constant term")
        capped = [self.ring._index[v] for v in self.ring.caps]
        if any(self.lo[i] < 0 for i in capped):
            raise NotInvertible("negative exponent in a truncated variable")
        # the terms of capped degree zero: only the constant may be among them
        free = tuple(0 if i in capped else slice(None) for i in range(len(self.lo)))
        if np.count_nonzero(self.coeffs[free]) > 1:
            raise NotInvertible("non-constant term free of every truncated variable")
        remainder = self.ring.one() - self * Fraction(1, 1) / constant
        out = self.ring.one()
        power = remainder
        rounds = sum(self.ring.caps.values()) + 1
        for _ in range(rounds):
            if not power.coeffs.size:
                break
            out = out + power
            power = power * remainder
        else:
            raise RuntimeError("inversion failed to stabilize")
        return out * (Fraction(1) / constant)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _exact(other))
        self._compatible(other)
        return self * other.invert()

    # -- predicates and views -------------------------------------------------

    def __eq__(self, other):
        same = isinstance(other, LaurentSeries) and self.ring == other.ring
        return same and self.lo == other.lo and np.array_equal(self.coeffs, other.coeffs)

    def coefficient_of(self, variable, exponent):
        """Sub-series of terms with the given exponent, that exponent zeroed.

        ``coefficient_of("q", 0)`` is the coefficient-wise ``q -> 0`` limit.
        """
        idx = self.ring._index[variable]
        k = exponent - self.lo[idx]
        if not 0 <= k < self.coeffs.shape[idx]:
            return self.ring.zero()
        box = [slice(None)] * len(self.lo)
        box[idx] = slice(k, k + 1)
        lo = self.lo[:idx] + (0,) + self.lo[idx + 1 :]
        return _trimmed(self.ring, lo, self.coeffs[tuple(box)], self._integral)

    def min_exponent(self, variable):
        """Smallest stored exponent of ``variable`` (0 for the zero series)."""
        return self.lo[self.ring._index[variable]]

    def truncate(self, **caps):
        """Re-truncate into the ring with the tightened caps."""
        ring = self.ring.with_caps(**caps)
        for v, cap in caps.items():
            if cap > self.ring.caps.get(v, cap):
                raise ValueError(f"cannot raise the cap on {v!r} after the fact")
        box = [slice(None)] * len(self.lo)
        for i, cap in ring._cap_slots:
            box[i] = slice(0, max(0, cap - self.lo[i]))
        return _trimmed(ring, self.lo, self.coeffs[tuple(box)], self._integral)

    # -- rendering ------------------------------------------------------------

    def render(self):
        """Canonical text form (exponent-lex term order) for golden files."""
        terms = self.terms
        if not terms:
            return "0"
        pieces = []
        for key in sorted(terms):
            coeff = terms[key]
            pairs = zip(self.ring.variables, key)
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

    def __repr__(self):
        text = self.render()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"<LaurentSeries {text}>"


def _trimmed(ring, lo, coeffs, integral):
    """The series of ``coeffs`` at ``lo``, trimmed to its nonzero cells, and
    unless ``integral``, with integral ``Fraction`` values stored as ``int``."""
    mask = coeffs != 0
    box = []
    for axis in range(coeffs.ndim):
        others = tuple(a for a in range(coeffs.ndim) if a != axis)
        hit = mask.any(axis=others).nonzero()[0]
        if not hit.size:
            return ring.zero()
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    coeffs = coeffs[tuple(box)]
    if not integral:
        coeffs = _EXACT(coeffs)
        integral = not any(isinstance(c, Fraction) for c in coeffs.flat)
    return LaurentSeries(ring, tuple(e + b.start for e, b in zip(lo, box)), coeffs, integral)


# ---------------------------------------------------------------------------
# product builders


def _check_modulus(ring, modulus, argument):
    if argument.coeff == 0:
        return False
    for v in ring.caps:
        if modulus.exps.get(v, 0) < 0:
            raise NonTerminating(f"modulus lowers the truncated variable {v!r}")
    if ring.negligible(argument) or modulus.coeff == 0:
        return False
    if not any(modulus.exps.get(v, 0) > 0 for v in ring.caps):
        raise NonTerminating(
            "neither factor advances a truncated variable; the product "
            "never leaves the stored range"
        )
    return True


def _binomial(ring, mono):
    """``1 - mono`` (below the caps) as its two cells written into a zeroed box."""
    exps = [mono.exps.get(v, 0) for v in ring.variables]
    if not any(exps):
        return ring.constant(1 - mono.coeff)
    lo = tuple(min(0, e) for e in exps)
    coeffs = np.zeros([abs(e) + 1 for e in exps], dtype=object)
    coeffs[tuple(-a for a in lo)] = 1
    coeffs[tuple(e - a for e, a in zip(exps, lo))] = -mono.coeff
    return LaurentSeries(ring, lo, coeffs, isinstance(mono.coeff, int))


def pochhammer_factors(ring, argument, modulus):
    """Binomial factors ``1 - argument*modulus**n`` kept below the caps."""
    if not _check_modulus(ring, modulus, argument):
        return []
    factors = []
    current = argument
    while current.coeff != 0 and not ring.negligible(current):
        factors.append(_binomial(ring, current))
        current = current * modulus
    return factors


def pochhammer2_factors(ring, argument, modulus1, modulus2):
    """Factors of the double product iterating ``modulus1`` then ``modulus2``."""
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
    forward = pochhammer_factors(ring, argument, modulus)
    return forward + pochhammer_factors(ring, modulus / argument, modulus)


def truncated_product(ring, factors):
    """Product of a factor list, exact up to the ring caps.

    Factors whose terms dip to negative exponents in capped variables are
    multiplied first, and every intermediate product is pruned at the ring cap
    plus the remaining factors' total negative budget, so later downward
    shifts cannot reach below the caps from discarded territory.
    """
    factors = sorted(factors, key=lambda f: all(f.min_exponent(v) >= 0 for v in ring.caps))
    budgets = []
    running = {v: 0 for v in ring.caps}
    for factor in reversed(factors):
        budgets.append(dict(running))
        for v in ring.caps:
            running[v] += max(0, -factor.min_exponent(v))
    budgets.reverse()
    out = ring.one()
    for factor, slack in zip(factors, budgets):
        bounds = tuple((ring._index[v], ring.caps[v] + slack[v]) for v in sorted(ring.caps))
        out = out._mul_bounded(factor, bounds)
    return out.truncate(**ring.caps)


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
    return truncated_product(ring, pochhammer2_factors(ring, argument, modulus1, modulus2))


def series_theta0(ring, argument, modulus):
    """Exact expansion of the product-form theta ``(arg;mod)(mod/arg;mod)``."""
    return truncated_product(ring, theta0_factors(ring, argument, modulus))
