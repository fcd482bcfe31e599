"""Exact truncated multivariate Laurent-series arithmetic over the integers.

A :class:`SeriesRing` fixes an ordered variable list and, for a subset of the
variables, a truncation cap: terms whose exponent in a capped variable reaches
the cap are discarded, so arithmetic is exact modulo the discarded range.
Uncapped variables are honest Laurent directions (negative exponents fine,
every stored slice finite).

A series is stored densely over the bounding box of its terms, as an
object-dtype ``numpy`` array.  Coefficients are ``int``: a non-integral
request raises ``TypeError``, and only a unit, ``1`` or ``-1``, is inverted.
Nothing here is floating point.

Products are declared as factor lists.  A binomial ``1 + c * x**e`` is the
pair ``(c, e)``, with ``e`` an exponent tuple in ring variable order
(:func:`binomial_factors` and the Pochhammer and theta builders make them);
a list may also hold series, monomials such as ``ring.term(...)`` or dense
ones.  The builders take their arguments and moduli as :class:`Mono` and
turn each into such a pair once; they step a progression and square a
reciprocal's monomial on the pairs themselves, counting from the caps how
many terms each takes.  :func:`truncated_product` gathers the monomials into
one coefficient and shift and applies every other factor in place to one
object-dtype box: a pair is one shifted update, ``box[k + e] += c * box[k]``
over the whole box at once, and a dense series one such update per nonzero
cell.  The box starts as the dense series with the most nonzero cells, so the
others spread fewer.
Every few factors the box is trimmed to its nonzero cells and given room
for the next few.  It is the one multiply: ``a * b`` and ``a ** n`` are
the factor lists ``[a, b]`` and ``[a] * n``.

Capped variables may also carry negative exponents — several of the theta
rearrangements expand that way — but then plain chained multiplication is no
longer sound: a factor with a negative capped exponent pulls discarded terms
back under the cap.  :func:`truncated_product` drops, after each factor, only
the cells at or past the cap plus the remaining factors' negative budget, so
its output is exact up to the ring caps regardless of sign patterns.

A divisor ``1 - x`` is declared as the factors ``1 + x**(2**j)`` up to the
first power the caps discard (:func:`binomial_factors`, ``power=-1``), since
``(1 - x) * prod_{j<J} (1 + x**(2**j)) = 1 - x**(2**J)``; where a list
declares both, :func:`truncated_product` telescopes them to the one
binomial ``1 - x**(2**J)`` before it multiplies.
:meth:`LaurentSeries.invert` writes a whole series as ``c (1 - r)`` and
passes ``c``, its own inverse, and the factors ``1 + r**(2**j)`` to the same product.
"""

from __future__ import annotations

from operator import add

import numpy as np

__all__ = [
    "NonTerminating",
    "NotInvertible",
    "NotStabilized",
    "Mono",
    "SeriesRing",
    "LaurentSeries",
    "binomial_factors",
    "pochhammer_factors",
    "pochhammer2_factors",
    "theta0_factors",
    "series_pochhammer",
    "series_theta0",
    "truncated_product",
    "stabilized_product",
]


class NonTerminating(ValueError):
    """The requested product has infinitely many factors below the caps."""


class NotInvertible(ValueError):
    """Inversion needs a unit (1 or -1) coefficient and a nilpotent remainder."""


class NotStabilized(RuntimeError):
    """A factor list's negative budget keeps growing with the caps it is
    enumerated under (:func:`stabilized_product`)."""


class Mono:
    """An integer monomial ``coeff * prod(var**exp)``, independent of any caps.

    The argument and modulus type of the product builders, because a
    monomial must survive unpruned even when its exponents exceed a ring cap
    (for instance while forming a reciprocal).  A builder turns each into a
    pair ``(coeff, exponent tuple)`` once and enumerates on pairs.
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps=None):
        if not isinstance(coeff, int):
            raise TypeError(f"int coefficient expected, got {type(coeff).__name__}")
        self.coeff = coeff
        self.exps = {v: e for v, e in (exps or {}).items() if e != 0}

    def __mul__(self, other):
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = exps.get(v, 0) + e
        return Mono(self.coeff * other.coeff, exps)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def reciprocal(self):
        if self.coeff != 1 and self.coeff != -1:
            raise NotInvertible("reciprocal of a monomial whose coefficient is not a unit")
        return Mono(self.coeff, {v: -e for v, e in self.exps.items()})

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
        exps = mono.exps
        for v, cap in self.caps.items():
            if exps.get(v, 0) >= cap:
                return True
        return False

    def zero(self):
        empty = np.zeros((0,) * len(self.variables), dtype=object)
        return LaurentSeries(self, (0,) * len(self.variables), empty)

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
        return LaurentSeries(self, lo, cell)


class LaurentSeries:
    """Immutable series over a :class:`SeriesRing`, dense over its terms' box.

    ``coeffs`` is an object-dtype array whose cell ``k`` holds the coefficient
    of the exponent tuple ``lo + k`` (aligned with the ring's variable order).
    The box is trimmed, so each of its faces holds a nonzero cell; the zero
    series has shape ``(0, ..., 0)`` at ``lo = (0, ..., 0)``.  No stored
    exponent reaches its variable's cap.  :func:`_trimmed` builds a series
    from any box.
    """

    __slots__ = ("ring", "lo", "coeffs")

    def __init__(self, ring, lo, coeffs):
        self.ring = ring
        self.lo = lo
        self.coeffs = coeffs

    def _compatible(self, other):
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"series or int expected, got {type(other).__name__}")
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
        if isinstance(other, int):
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
        return _trimmed(self.ring, lo, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.ring, self.lo, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _trimmed(self.ring, self.lo, self.coeffs * other)
        self._compatible(other)
        return truncated_product(self.ring, [self, other])

    __rmul__ = __mul__

    def __pow__(self, power):
        if not isinstance(power, int):
            raise TypeError("integer power expected")
        if power < 0:
            raise ValueError("negative power: declare the divisor with binomial_factors")
        return truncated_product(self.ring, [self] * power)

    def invert(self):
        """Multiplicative inverse of a series whose constant term is a unit.

        Requires every non-constant term to carry a positive exponent in some
        capped variable (so the remainder is nilpotent under truncation) and no
        negative capped exponents anywhere (pruned inversion would be unsound).
        With ``self = c (1 - r)``, ``c`` a unit, the inverse is
        ``c prod_j (1 + r**(2**j))``, the rule of :func:`binomial_factors`.
        """
        constant = self.terms.get((0,) * len(self.lo))
        if constant != 1 and constant != -1:
            raise NotInvertible("no unit constant term")
        capped = [self.ring._index[v] for v in self.ring.caps]
        if any(self.lo[i] < 0 for i in capped):
            raise NotInvertible("negative exponent in a truncated variable")
        # the terms of capped degree zero: only the constant may be among them
        free = tuple(0 if i in capped else slice(None) for i in range(len(self.lo)))
        if np.count_nonzero(self.coeffs[free]) > 1:
            raise NotInvertible("non-constant term free of every truncated variable")
        one = self.ring.one()
        power = one - self * constant
        factors = [self.ring.constant(constant)]
        # r**k vanishes once k reaches the sum of the caps
        for _ in range(sum(self.ring.caps.values()).bit_length() + 1):
            if not power.coeffs.size:
                break
            factors.append(one + power)
            power = power * power
        else:
            raise RuntimeError("inversion failed to stabilize")
        return truncated_product(self.ring, factors)

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
        return _trimmed(self.ring, lo, self.coeffs[tuple(box)])


def _trimmed(ring, lo, coeffs):
    """The series of ``coeffs`` at ``lo``, trimmed to its nonzero cells."""
    mask = coeffs != 0
    box = []
    for axis in range(coeffs.ndim):
        others = tuple(a for a in range(coeffs.ndim) if a != axis)
        hit = mask.any(axis=others).nonzero()[0]
        if not hit.size:
            return ring.zero()
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return LaurentSeries(ring, tuple(e + b.start for e, b in zip(lo, box)), coeffs[tuple(box)])


# ---------------------------------------------------------------------------
# product builders


def _pair(ring, mono):
    """``mono`` as ``(coeff, e)``, ``e`` its exponent tuple in ring variable order."""
    return mono.coeff, tuple([mono.exps.get(v, 0) for v in ring.variables])


def _check_power(power):
    if power != 1 and power != -1:
        raise ValueError("power must be 1 or -1")


def _binomials(ring, terms, power):
    """Factors of ``prod (1 - c * x**e)**power`` over the pairs ``(c, e)`` of
    ``terms``, below the caps.

    The reciprocal of one binomial is ``prod_j (1 + c**(2**j) x**(2**j e))``
    over the powers the caps keep: ``2**j e`` stays below a cap in a slot
    where ``e`` is positive for ``((cap - 1) // e).bit_length()`` values of
    ``j``.  A zero or discarded term gives no factor.
    """
    slots, factors = ring._cap_slots, []
    for coeff, exps in terms:
        if coeff == 0:
            continue
        for i, cap in slots:
            if exps[i] >= cap:
                break
        else:
            if power == 1:
                factors.append((-coeff, exps))
                continue
            capped = [exps[i] for i, _ in slots]
            if min(capped, default=0) < 0:
                raise NotInvertible("negative exponent in a truncated variable")
            if not any(capped):
                raise NotInvertible("divisor free of every truncated variable")
            doublings = min(((cap - 1) // exps[i]).bit_length() for i, cap in slots if exps[i])
            for _ in range(doublings):
                factors.append((coeff, exps))
                coeff, exps = coeff * coeff, tuple([e + e for e in exps])
    return factors


def binomial_factors(ring, mono, power=1):
    """Factors of ``(1 - mono)**power`` below the caps, for ``power`` 1 or -1.

    Each factor is a pair ``(c, e)``, the binomial ``1 + c * x**e`` with ``e``
    an exponent tuple in ring variable order.  The reciprocal is
    ``prod_j (1 + mono**(2**j))`` over the powers the caps keep, which
    ``invert`` would also accept: ``mono`` must have no negative capped
    exponent and a positive one.  A discarded ``mono`` gives no factor.
    """
    _check_power(power)
    return _binomials(ring, [_pair(ring, mono)], power)


def _progression(ring, coeff, exps, modulus):
    """The pairs ``(c, e)`` of ``coeff * x**exps * modulus**n`` for n = 0, 1,
    ... while the caps keep them; ``modulus`` is a pair too."""
    step_coeff, step = modulus
    if coeff == 0:
        return []
    if step_coeff == 0:  # only n = 0 survives: (argument; 0) = 1 - argument
        return [(coeff, exps)]
    for v in ring.caps:
        if step[ring._index[v]] < 0:
            raise NonTerminating(f"modulus lowers the truncated variable {v!r}")
    slots = ring._cap_slots
    for i, cap in slots:
        if exps[i] >= cap:
            return []
    if not any(step[i] for i, _ in slots):
        raise NonTerminating(
            "neither factor advances a truncated variable; the product "
            "never leaves the stored range"
        )
    terms = []
    for _ in range(min((cap - 1 - exps[i]) // step[i] for i, cap in slots if step[i]) + 1):
        terms.append((coeff, exps))
        coeff, exps = coeff * step_coeff, tuple(map(add, exps, step))
    return terms


def pochhammer_factors(ring, argument, modulus, power=1):
    """Factors of ``prod_n (1 - argument*modulus**n)**power`` below the caps."""
    _check_power(power)
    terms = _progression(ring, *_pair(ring, argument), _pair(ring, modulus))
    return _binomials(ring, terms, power)


def pochhammer2_factors(ring, argument, modulus1, modulus2, power=1):
    """Factors of the double product iterating ``modulus1`` then ``modulus2``."""
    _check_power(power)
    modulus2 = _pair(ring, modulus2)
    factors = []
    for coeff, exps in _progression(ring, *_pair(ring, argument), _pair(ring, modulus1)):
        terms = _progression(ring, coeff, exps, modulus2)
        factors += _binomials(ring, terms, power)
    return factors


def theta0_factors(ring, argument, modulus):
    """Factors of ``(arg; mod)(mod/arg; mod)`` — the product-form theta."""
    forward = pochhammer_factors(ring, argument, modulus)
    return forward + pochhammer_factors(ring, modulus / argument, modulus)


def _corners(factor):
    """Lowest and highest exponent tuples of a pair's or a series' terms."""
    if isinstance(factor, LaurentSeries):
        shape = factor.coeffs.shape
        return factor.lo, tuple([a + n - 1 for a, n in zip(factor.lo, shape)])
    exps = factor[1]
    return tuple([e if e < 0 else 0 for e in exps]), tuple([e if e > 0 else 0 for e in exps])


#: factors applied between two re-trims of a running product's box
_RETRIM = 8


class _Box:
    """A running product, in place: ``buf[lo:hi]`` holds its terms, ``buf[k]``
    the exponent ``base + k``.  Cells of ``buf`` outside ``lo:hi`` are ignored.

    ``resize`` trims the box to its nonzero cells and gives it room for the
    next factors; each step of ``times`` writes within that room and drops
    the cells at or past its ``top`` (exclusive exponent per capped slot).
    The box grows only there, so it follows the product's support.

    The box starts as the constant 1 or as the terms of a ``seed`` series.
    A seed's buffer is the series' own, so nothing writes to it in place:
    ``resize`` copies into a new buffer before the first step.
    """

    __slots__ = ("ring", "capped", "buf", "base", "lo", "hi")

    def __init__(self, ring, seed=None):
        dims = len(ring.variables)
        self.ring, self.capped = ring, [i for i, _ in ring._cap_slots]
        if seed is None:
            self.buf, self.base = np.ones((1,) * dims, dtype=object), (0,) * dims
        else:
            self.buf, self.base = seed.coeffs, seed.lo
        self.lo, self.hi = [0] * dims, list(self.buf.shape)

    def _support(self):
        return tuple(map(slice, self.lo, self.hi))

    def _clip(self, new_lo, new_hi, top):
        """Lower ``new_hi`` to ``top``; False when nothing is left below it."""
        for i, t in zip(self.capped, top):
            t -= self.base[i]
            if new_hi[i] > t:
                new_hi[i] = t
            if new_hi[i] <= new_lo[i]:
                return False
        return True

    def resize(self, low, high, top):
        """Trim to the nonzero cells below ``top``, then make room for terms
        from ``low`` below to ``high`` above them; False when none is left."""
        part = self.trimmed(top, [0] * len(self.lo))
        if not part.coeffs.size:
            return False
        base = [a + d for a, d in zip(part.lo, low)]
        room = [a + n + u for a, n, u in zip(part.lo, part.coeffs.shape, high)]
        for i, t in zip(self.capped, top):
            room[i] = min(room[i], t)
        self.buf = np.zeros([r - b for r, b in zip(room, base)], dtype=object)
        self.lo = [a - b for a, b in zip(part.lo, base)]
        self.hi = [a + n for a, n in zip(self.lo, part.coeffs.shape)]
        self.buf[self._support()] = part.coeffs
        self.base = tuple(base)
        return True

    def trimmed(self, top, shift):
        """The series of the cells below ``top``, its exponents moved by ``shift``."""
        if not self._clip(self.lo, self.hi, top):
            return self.ring.zero()
        lo = tuple(b + l + s for b, l, s in zip(self.base, self.lo, shift))
        return _trimmed(self.ring, lo, self.buf[self._support()])

    def times(self, factor, low, high, top):
        """Multiply by a pair or a series whose terms span ``low``..``high``.

        A pair ``1 + c * x**e`` is one shifted update in place; a series is
        one shifted update per nonzero cell, into a new buffer.
        """
        new_lo, new_hi = list(map(add, self.lo, low)), list(map(add, self.hi, high))
        if not self._clip(new_lo, new_hi, top):
            return False
        if isinstance(factor, LaurentSeries):
            out = np.zeros(self.buf.shape, dtype=object)
            for cell in zip(*np.nonzero(factor.coeffs)):
                shift = [a + k for a, k in zip(factor.lo, cell)]
                self._add_shifted(out, factor.coeffs[cell], shift, new_hi)
            self.buf = out
        else:
            self._add_shifted(self.buf, *factor, new_hi)
        self.lo, self.hi = new_lo, new_hi
        return True

    def _add_shifted(self, out, coeff, shift, new_hi):
        """``out += coeff * x**shift * (the terms)``, below ``new_hi``."""
        dst, src = [], []
        for l, h, e, n in zip(self.lo, self.hi, shift, new_hi):
            stop = h + e
            if stop > n:
                stop = n
            if stop <= l + e:
                return
            dst.append(slice(l + e, stop))
            src.append(slice(l, stop - e))
        dst, src = tuple(dst), self.buf[tuple(src)]
        if coeff == 1:
            out[dst] += src
        elif coeff == -1:
            out[dst] -= src
        else:
            out[dst] += coeff * src


def _cancelled(pairs):
    """``pairs`` with each two ``(c, e)`` and ``(-c, e)`` replaced by the one
    pair ``(-c*c, 2e)``, their product, until no two such pairs remain."""
    left = {}
    for c, e in pairs:
        while left.get((-c, e)):
            left[(-c, e)] -= 1
            c, e = -c * c, tuple([a + a for a in e])
        left[(c, e)] = left.get((c, e), 0) + 1
    return [pair for pair, n in left.items() for _ in range(n)]


def truncated_product(ring, factors):
    """Product of a factor list, exact up to the ring caps.

    ``factors`` mixes binomial pairs (see :func:`binomial_factors`) and
    series; ``a * b``, ``a ** n`` and :meth:`LaurentSeries.invert` multiply
    here too.  Monomials gather into one coefficient and shift.  Before
    anything multiplies, two pairs ``(c, e)`` and ``(-c, e)`` become the one
    pair ``(-c*c, 2e)``, since ``(1 + c x**e)(1 - c x**e) = 1 - c**2 x**(2e)``,
    and again until no two such pairs remain (:func:`_cancelled`): a binomial
    ``1 - x`` eats its reciprocal's whole doubling chain and leaves one pair
    past the cap.  The list's product is the same polynomial, and so is its
    negative budget, since ``2e`` dips exactly as far as ``e`` and ``e``
    together; so the result is the same truncated series.  The box
    (:class:`_Box`) starts as the series with the most nonzero cells, so each
    other series spreads its fewer cells over it.  The rest are applied to
    the box in place, and after each one the box drops the cells at or past
    the cap (less the shift) plus the remaining factors' total negative
    budget, so later downward shifts cannot reach below the caps from
    discarded territory.  The seed comes first, so no budget counts it.
    That holds in any order; the factors whose terms dip to negative
    exponents in capped variables go first, which spends the budget early
    and keeps the box small.  A pair's coefficient is an ``int``, as a Mono's.
    """
    dims = len(ring.variables)
    scale, shift, steps, pairs = 1, (0,) * dims, [], []
    for factor in factors:
        if isinstance(factor, LaurentSeries):
            if not factor.coeffs.size:
                return ring.zero()
            if factor.coeffs.size > 1:
                steps.append(factor)
                continue
            coeff, exps = factor.coeffs.flat[0], factor.lo
        elif not isinstance(factor[0], int):
            raise TypeError(f"int coefficient expected, got {type(factor[0]).__name__}")
        elif any(factor[1]):
            pairs.append(factor)
            continue
        else:
            coeff, exps = 1 + factor[0], factor[1]
        scale *= coeff
        shift = tuple(a + b for a, b in zip(shift, exps))
    if scale == 0:
        return ring.zero()
    steps += _cancelled(pairs)
    dense = [k for k, f in enumerate(steps) if isinstance(f, LaurentSeries)]
    most = max(dense, key=lambda k: np.count_nonzero(steps[k].coeffs), default=None)
    seed = None if most is None else steps.pop(most)
    slots = [i for i, _ in ring._cap_slots]
    steps = [(f,) + _corners(f) for f in steps]
    # a pair's term c x**e times the rest starts at e plus the seed's low
    # corner plus the whole negative budget: where that reaches the cap less
    # the shift, the pair writes nothing, and it is dropped before the box
    corner = seed.lo if seed is not None else (0,) * dims
    reach = [
        cap - shift[i] - corner[i] - sum([low[i] for _, low, _ in steps if low[i] < 0])
        for i, cap in ring._cap_slots
    ]
    steps = [
        (f, low, high) for f, low, high in steps
        if isinstance(f, LaurentSeries) or all([f[1][i] < r for i, r in zip(slots, reach)])
    ]
    steps.sort(key=lambda step: min([step[1][i] for i in slots], default=0) >= 0)
    # tops[k]: exclusive exponent in each capped slot before step k, the cap
    # less the monomials' shift plus the negative budget of steps k, k+1, ...
    tops = [tuple([cap - shift[i] for i, cap in ring._cap_slots])]
    for _, low, _ in reversed(steps):
        tops.append(tuple([t - low[i] if low[i] < 0 else t for t, i in zip(tops[-1], slots)]))
    tops.reverse()
    box = _Box(ring, seed)
    for start in range(0, len(steps), _RETRIM):
        window = steps[start : start + _RETRIM]
        # a dense series' corners may both lie above or below 0
        low = [sum([a for a in col if a < 0]) for col in zip(*[step[1] for step in window])]
        high = [sum([b for b in col if b > 0]) for col in zip(*[step[2] for step in window])]
        if not box.resize(low, high, tops[start]):
            return ring.zero()
        for k, step in enumerate(window, start + 1):
            if not box.times(*step, tops[k]):
                return ring.zero()
    out = box.trimmed(tops[-1], shift)
    return out if scale == 1 else out * scale


def stabilized_product(variables, caps, build):
    """Product of ``build(ring)``'s factors, exact up to the requested caps.

    When a factor list contains downward shifts in capped variables, factors
    enumerated against the target caps are too few: terms pulled down from
    above the caps still land in range.  This helper re-invokes ``build``
    under working caps elevated by the list's own negative budget until that
    budget stabilizes.  It then multiplies at the requested caps: a pair
    carries no caps, and :func:`truncated_product` keeps what the remaining
    budget can still pull down.  With a clean factor list the first round is
    already stable and there is no overhead.  A budget that still grows
    after eight rounds raises :class:`NotStabilized`.
    """
    working = dict(caps)
    for _ in range(8):
        ring = SeriesRing(variables, working)
        factors = build(ring)
        # a pair's exponents dip below 0 exactly where its terms do
        lows = [f.lo if isinstance(f, LaurentSeries) else f[1] for f in factors]
        wanted = {}
        for v, cap in caps.items():
            i = ring._index[v]
            wanted[v] = cap - sum([low[i] for low in lows if low[i] < 0])
        if wanted == working:
            return truncated_product(SeriesRing(variables, caps), factors)
        working = wanted
    raise NotStabilized("negative budget failed to stabilize")


def series_pochhammer(ring, argument, modulus):
    """Exact expansion of ``prod_n (1 - argument*modulus**n)``."""
    return truncated_product(ring, pochhammer_factors(ring, argument, modulus))


def series_theta0(ring, argument, modulus):
    """Exact expansion of the product-form theta ``(arg;mod)(mod/arg;mod)``."""
    return truncated_product(ring, theta0_factors(ring, argument, modulus))
