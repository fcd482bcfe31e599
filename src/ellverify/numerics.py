"""Pluggable complex-arithmetic backends.

Every special-function kernel in this package evaluates through a small
context object instead of calling ``cmath`` directly.  The default context
uses the builtin ``complex`` type (IEEE double, ~16 significant digits);
an mpmath-backed context with a configurable number of digits can be
swapped in at any call site without touching kernel code.
"""

from __future__ import annotations

import cmath
import math

import mpmath


class StandardContext:
    """Builtin ``complex`` arithmetic (IEEE binary64)."""

    name = "standard"
    #: machine epsilon of the backend scalar type
    eps = 2.220446049250313e-16

    @property
    def pi(self):
        return math.pi

    def number(self, z):
        """Coerce ``z`` to the backend scalar type."""
        return complex(z)

    def exp(self, z):
        return cmath.exp(z)

    def log(self, z):
        return cmath.log(z)

    def sqrt(self, z):
        return cmath.sqrt(z)

    def e2pi(self, z):
        """``exp(2 pi i z)``, the additive-to-multiplicative convention map."""
        return cmath.exp(2j * math.pi * complex(z))

    def epi(self, z):
        """``exp(pi i z)`` (half-period phases)."""
        return cmath.exp(1j * math.pi * complex(z))


class ExtendedContext:
    """mpmath arithmetic with a configurable decimal precision.

    Holds a private ``MPContext`` so the chosen precision applies to every
    operation on numbers it creates, independent of the global mpmath state.
    """

    name = "extended"

    def __init__(self, dps: int = 30):
        self.dps = dps
        self.eps = 10.0 ** (1 - dps)
        self._mp = mpmath.ctx_mp.MPContext()
        self._mp.dps = dps

    @property
    def pi(self):
        return +self._mp.pi

    def number(self, z):
        """Coerce ``z`` to the backend scalar type."""
        return self._mp.mpc(z)

    def exp(self, z):
        return self._mp.exp(z)

    def log(self, z):
        return self._mp.log(z)

    def sqrt(self, z):
        return self._mp.sqrt(z)

    def e2pi(self, z):
        """``exp(2 pi i z)``, the additive-to-multiplicative convention map."""
        return self._mp.exp(2j * self._mp.pi * self._mp.mpc(z))

    def epi(self, z):
        """``exp(pi i z)`` (half-period phases)."""
        return self._mp.exp(1j * self._mp.pi * self._mp.mpc(z))


#: module-wide default: double precision
STANDARD = StandardContext()
