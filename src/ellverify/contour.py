"""Periodic trapezoid quadrature on one smooth path, and the pole audit.

Every integral in this package runs over one period of a 1-periodic
integrand that is analytic in a strip around its path.  On such integrands
the trapezoid rule converges geometrically (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014), so one
rule and one family of paths cover them all.

A :class:`Path` is ``z(t) = t + i c cos 2 pi (t - x0)``.  :func:`integrate`
applies the trapezoid rule on ``N`` equispaced nodes and doubles ``N`` from
16, reusing the old nodes, until two successive sums agree to the tolerance.

:func:`pole_audit` checks a path against the known poles of an integrand:
every pole (reduced modulo the period) must keep a minimum distance from the
path, and poles that carry a required passing side must see the path pass on
that side.  The evaluators that integrate pick their own path, derive the
pole inventory from their integrand's factors and run the audit before
every quadrature.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Path",
    "QuadratureResult",
    "ToleranceNotReached",
    "PoleOnPath",
    "CLEARANCE",
    "PoleSpec",
    "PoleAuditEntry",
    "PoleAuditReport",
    "integrate",
    "achieved_errors",
    "pole_audit",
]


class ToleranceNotReached(ArithmeticError):
    """The evaluation budget ran out before the error target was met.

    The partial result (with its honest error estimate) is attached as the
    ``result`` attribute.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class PoleOnPath(RuntimeError):
    """The pole audit rejected the integration path for a parameter point."""


@dataclass(frozen=True)
class Path:
    """The period path ``z(t) = t + i c cos 2 pi (t - x0)``.

    Straight when ``c = 0``; otherwise it passes at height ``c`` above
    ``x0`` and at height ``-c`` below ``x0 + 1/2``.
    """

    c: float = 0.0
    x0: float = 0.0

    def height(self, x):
        """Imaginary part of the path over the real coordinate ``x``."""
        return self.c * np.cos(2 * math.pi * (x - self.x0))

    def point(self, t):
        return t + 1j * self.height(t)

    def velocity(self, t):
        return 1 - 2j * math.pi * self.c * np.sin(2 * math.pi * (t - self.x0))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    #: ``|T_2N - T_N|`` of the last doubling
    error: float
    evaluations: int


#: relative errors of the quadratures run inside :func:`achieved_errors`
_ACHIEVED = contextvars.ContextVar("achieved_errors", default=None)


@contextlib.contextmanager
def achieved_errors():
    """Collect ``error / max(1, |value|)`` of every quadrature run in the block."""
    errors = []
    token = _ACHIEVED.set(errors)
    try:
        yield errors
    finally:
        _ACHIEVED.reset(token)


def integrate(f, path, tol=1e-10, budget=200_000):
    """Integrate ``f`` over one period along ``path`` to relative tolerance ``tol``.

    ``f`` maps each batch of nodes (the 16 starting ones, then each doubling's
    midpoints) as one numpy array of path points to its values there.  The
    trapezoid sum on ``N`` nodes is refined to ``2 N`` by adding the
    midpoints.  The estimate ``|T_2N - T_N|`` must meet
    ``tol * max(1, |T_2N|)`` after at least one doubling.  Raises
    :class:`ToleranceNotReached` (carrying the partial result) when the next
    doubling would take more than ``budget`` evaluations.
    """

    def batch(t):
        return complex(np.sum(f(path.point(t)) * path.velocity(t)))

    n = 16
    total = batch(np.arange(n) / n)
    value = total / n
    evaluations = n
    error = math.inf
    while True:
        if evaluations + n > budget:
            partial = QuadratureResult(value, error, evaluations)
            raise ToleranceNotReached(
                f"achieved error {partial.error:.3g} > target after {evaluations} evaluations",
                partial,
            )
        total = total + batch((np.arange(n) + 0.5) / n)
        evaluations += n
        n *= 2
        previous, value = value, total / n
        error = float(abs(value - previous))
        scale = max(1.0, float(abs(value)))
        if error <= tol * scale:
            errors = _ACHIEVED.get()
            if errors is not None:
                errors.append(error / scale)
            return QuadratureResult(value, error, evaluations)


# ---------------------------------------------------------------------------
# pole auditing

#: least distance a pole may keep from a path, or a residue-corrected pole
#: from the real axis
CLEARANCE = 1 / 64


@dataclass(frozen=True)
class PoleSpec:
    """A pole location with an optional required passing side.

    ``side`` is the side the *path* must pass on relative to the pole
    ("above" / "below"), or ``None`` when either side is acceptable.
    """

    location: complex
    side: str | None = None

    def __post_init__(self):
        if self.side not in (None, "above", "below"):
            raise ValueError(f"side must be 'above', 'below' or None, got {self.side!r}")


@dataclass(frozen=True)
class PoleAuditEntry:
    pole: complex
    reduced: complex
    distance: float
    path_side: str
    required_side: str | None
    ok: bool


@dataclass(frozen=True)
class PoleAuditReport:
    ok: bool
    entries: tuple


def _distance(p, path):
    """Euclidean distance from ``p`` to the path.

    The path is 1-periodic, so its nearest point lies within half a period
    of ``Re p``; a grid over that window is narrowed around its best node.
    """
    if path.c == 0:
        return abs(p.imag)
    lo, hi = p.real - 0.5, p.real + 0.5
    for _ in range(4):
        x = np.linspace(lo, hi, 257)
        d = np.abs(x + 1j * path.height(x) - p)
        k = int(np.argmin(d))
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, 256)]
    return float(d[k])


def pole_audit(path, poles) -> PoleAuditReport:
    """Check ``poles``, :class:`PoleSpec` entries reduced modulo the period,
    against ``path``.

    A pole fails its entry when its distance to the path is below
    :data:`CLEARANCE`, when the path runs through it, or when it carries a
    required side and the path passes on the other one.
    """
    entries = []
    for spec in poles:
        location = complex(spec.location)
        p = complex(location.real - math.floor(location.real + 0.5), location.imag)
        height = float(path.height(p.real))
        path_side = "above" if height > p.imag else "below" if height < p.imag else "on"
        distance = _distance(p, path)
        ok = distance >= CLEARANCE and path_side != "on" and spec.side in (None, path_side)
        entries.append(PoleAuditEntry(location, p, distance, path_side, spec.side, ok))
    return PoleAuditReport(all(e.ok for e in entries), tuple(entries))
