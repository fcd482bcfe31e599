"""Fixed calibration workload that tracks the host's current speed.

On the shared 2-core host the benchmark was built on, speed swings by up to
2x in episodes lasting seconds, and CPU time swings with it, so the benchmark
divides its timings of operations in the package by the time of this
workload run next to them.  This module holds frozen copies of the
package's two kinds of inner loop: the kernel's layered q-Pochhammer products
behind a context object and a truncation policy, and the series layer's
sparse products of Fractions keyed by exponent tuples.

A tight complex-arithmetic loop of the same length was tried beside it.  In
eight 90-s trials, each of six numeric draws (and, in five of the trials,
the series layer's Pochhammer product and inverse) was timed next to both
loops; the figure is
the spread of its medians over ten 9-s windows (standard deviation over
mean).  Unscaled, it was 0.159 on average; scaled by this loop, 0.050
(0.016-0.092); scaled by the tight loop, 0.063 (0.033-0.113).  This loop gave
the smaller spread on 35 of the 58 draws and the tight loop on 19.

Never change the code of this file: its running time is the unit of
``verify_s`` and of the per-check draw times, and a change there moves every
one of them.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

#: seconds per :func:`run` on an uncontended core of the reference host
REFERENCE_SECONDS = 2.0e-3


class _Context:
    def number(self, z):
        return complex(z)

    def e2pi(self, z):
        return cmath.exp(2j * math.pi * complex(z))


@dataclass(frozen=True)
class _Policy:
    term_epsilon: float = 1e-17
    max_terms: int = 100_000


_CTX = _Context()
_POLICY = _Policy()


def _product(u, q, pol, ctx, pole_epsilon=None):
    u = ctx.number(u)
    q = ctx.number(q)
    total = ctx.number(1)
    term = u
    for _ in range(pol.max_terms):
        if abs(term) < pol.term_epsilon:
            return total
        factor = 1 - term
        if pole_epsilon is not None and abs(factor) < pole_epsilon:
            raise ZeroDivisionError("calibration product hit a pole")
        total = total * factor
        term = term * q
    raise ArithmeticError("calibration product did not converge")


def _double_product(u, q, r, pol, ctx, pole_epsilon=None):
    total = ctx.number(1)
    layer = ctx.number(u)
    for _ in range(pol.max_terms):
        if abs(layer) < pol.term_epsilon:
            return total
        total = total * _product(layer, r, pol, ctx, pole_epsilon)
        layer = layer * ctx.number(q)
    raise ArithmeticError("calibration double product did not converge")


def _gamma_ratio(z, tau, sigma, pol=_POLICY, ctx=_CTX):
    qt = ctx.e2pi(tau)
    qs = ctx.e2pi(sigma)
    numerator = _double_product(ctx.e2pi(tau + sigma - z), qt, qs, pol, ctx)
    return numerator / _double_product(ctx.e2pi(z), qt, qs, pol, ctx, 1e-13)


def _sparse_product(left, right, caps):
    out = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            if any(key[i] >= cap for i, cap in caps):
                continue
            total = out.get(key, 0) + c1 * c2
            if total == 0:
                out.pop(key, None)
            else:
                out[key] = total
    return out


def run():
    """The calibration workload: kernel-shaped and series-shaped loops."""
    for k in range(1, 7):
        _gamma_ratio(0.13 + 0.04j * k, 0.1 + 0.3j, -0.07 + 0.3j)
    caps = ((0, 6), (1, 6))
    series = {(0, 0): Fraction(1)}
    factor = {(0, 0): Fraction(1), (1, 0): Fraction(-1, 3), (0, 1): Fraction(2, 5), (1, 1): Fraction(1, 7)}
    for _ in range(6):
        series = _sparse_product(series, factor, caps)
    return series


def seconds():
    """Wall time of one :func:`run`."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start
