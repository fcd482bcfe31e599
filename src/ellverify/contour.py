"""Periodic trapezoid quadrature on one smooth path, and the pole audit.

Every integral in this package runs over one period of a 1-periodic
integrand that is analytic in a strip around its path.  On such integrands
the trapezoid rule converges geometrically (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56, 2014), so one
rule and one family of paths cover them all.

A :class:`Path` is ``z(t) = t + i c cos 2 pi (t - x0)``.  :func:`integrate`
applies the trapezoid rule on ``N`` equispaced nodes and doubles ``N``,
reusing the old nodes.  Given the audit clearance ``a``, the strip
half-width in the path parameter ``t`` that no pole enters (``math.inf``
when the integrand lists no pole), it starts where the strip bound of that
paper (Thm 3.2), an error of about ``e^{-2 pi a N}``, predicts the
tolerance, stops once the error predicted at the slower of that rate and the
observed one meets it (or the sums agree to their rounding), and raises
:class:`MissedPole` when they converge far slower.

:func:`pole_audit` checks a path against the known poles of an integrand:
each pole (reduced modulo the period) is mapped back to its preimage
``t_p``, ``z(t_p) = p``, whose ``|Im t_p|`` is its strip half-width in the
path parameter and must keep a minimum size, and poles that carry a required
passing side must see the path pass on that side.  The evaluators that
integrate hand their integrand to one function,
:func:`ellverify.special.audited_integral`, which derives the pole inventory
from its factors, picks the path from it and runs the audit before every
quadrature.
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
    "PoleOnPath",
    "MissedPole",
    "FIRST_NODES",
    "MAX_FIRST_NODES",
    "MISSED_POLE_FACTOR",
    "CLEARANCE",
    "PoleSpec",
    "PoleAuditEntry",
    "PoleAuditReport",
    "integrate",
    "achieved_errors",
    "pole_audit",
]


class PoleOnPath(RuntimeError):
    """The pole audit rejected the integration path for a parameter point."""


class MissedPole(PoleOnPath):
    """The quadrature converged far slower than the audit clearance predicts,
    so a pole nearer the path than any audited one went unlisted."""


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
    #: the predicted error of ``value``, ``T_2N``, at least the rounding of
    #: the sums (see :func:`integrate`)
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


#: the fewest nodes of a first batch, and the most
FIRST_NODES = 16
MAX_FIRST_NODES = 512
#: a quadrature that has not met its tolerance at this many times the nodes
#: its clearance predicts raises :class:`MissedPole`; over 9,757 quadratures
#: in 6,400 integrating draws (seed 0, draws 0-399 of each of the 16
#: integrating checks) none needed more than 2.57 times
MISSED_POLE_FACTOR = 10
#: C, the safety factor on the predicted error; at C = 100 no value of 1,480
#: quadratures (seeds 0-4) is tol / C away from the sum on 4 times its nodes
_SAFETY = 100
#: the rounding of a trapezoid sum per mean |f|: the cancelling d2 of ellmac_P at
#: mu + 2 = kappa = 4 read <= 1.1 eps
_ROUNDING = 8 * float(np.finfo(float).eps)
#: an observed rate implying under this share of the audited clearance raises
#: MissedPole: honest quadratures read >= 0.56 (seeds 0-3), unlisted poles 0.08
_OBSERVED_SHARE = 1 / 4


def integrate(f, path, clearance, tol=1e-10):
    """Integrate ``f`` over one period along ``path`` to relative tolerance ``tol``.

    ``f`` maps each batch of nodes (the first ``2 N``, then each doubling's
    midpoints) as one numpy array of path points to its values there.  The
    first batch gives ``T_{N/2}``, ``T_N`` and ``T_2N`` as strided sums, and
    each doubling the next sum.  With ``d1 = |T_N - T_{N/2}|`` and
    ``d2 = |T_2N - T_N|``, the error of ``T_2N`` is predicted as
    ``C d2 max(e^{-2 pi a N}, (d2 / d1)^2)`` (the slower of the audited and
    the observed rate, ``C = 100``), or as ``d2`` for an ``f`` with no listed
    pole.  ``T_2N`` is returned once that error meets ``tol * max(1,
    |T_2N|)``, or once ``d2`` is within the rounding of the sums, ``8 eps``
    times the first batch's mean ``|f|``, where terms cancel; the error
    returned is the larger of the prediction and that rounding.

    ``clearance`` is ``a``, the strip half-width in the path parameter that
    no pole of ``f(z(t)) z'(t)`` enters (:func:`pole_audit`), or
    ``math.inf`` for an ``f`` with no listed pole; anything but a positive
    number raises :class:`ValueError`.  The strip bound
    ``e^{-2 pi a N} <= tol`` predicts ``N = ln(1/tol) / (2 pi a)``, but never
    fewer than ``2 * FIRST_NODES``, the fewest a quadrature stops at.  The
    first ``N`` is the least power of two from :data:`FIRST_NODES` whose
    double reaches that prediction, at most :data:`MAX_FIRST_NODES`.  A
    doubling past :data:`MISSED_POLE_FACTOR` times the prediction raises
    :class:`MissedPole`, and so does a ``d2`` above tolerance and rounding
    whose observed rate implies a clearance below ``a / 4``.
    """
    if clearance is None or not clearance > 0:
        raise ValueError(f"clearance must be positive or math.inf, got {clearance!r}")

    def batch(t):
        return f(path.point(t)) * path.velocity(t)

    predicted = max(2 * FIRST_NODES, math.log(1 / tol) / (2 * math.pi * clearance))
    n = FIRST_NODES
    while 2 * n < predicted and n < MAX_FIRST_NODES:
        n *= 2
    first = batch(np.arange(2 * n) / (2 * n))
    floor = _ROUNDING * float(np.mean(np.abs(first)))
    sums = [complex(np.mean(first[::step])) for step in (4, 2, 1)]
    while True:
        d1, d2 = abs(sums[-2] - sums[-3]), abs(sums[-1] - sums[-2])
        value, scale = sums[-1], max(1.0, abs(sums[-1]))
        rate = min(1.0, d2 / d1) ** 2 if d1 else float(d2 > 0)
        exponent = 2 * math.pi * clearance * n  # of the audited rate e^{-2 pi a N}
        error = d2 if clearance == math.inf else _SAFETY * d2 * max(math.exp(-exponent), rate)
        if error <= tol * scale or d2 <= floor:
            error = max(error, floor)
            errors = _ACHIEVED.get()
            if errors is not None:
                errors.append(error / scale)
            return QuadratureResult(value, error, 2 * n)
        observed = rate > math.exp(-_OBSERVED_SHARE * exponent) and d2 > tol * scale
        if (observed and clearance < math.inf) or 4 * n > MISSED_POLE_FACTOR * predicted:
            raise MissedPole(
                f"error {d2:.3g} at {2 * n} nodes, where clearance {clearance:.3g} "
                f"predicts tolerance at {predicted:.1f}"
            )
        sums.append((value + complex(np.mean(batch((np.arange(2 * n) + 0.5) / (2 * n))))) / 2)
        n *= 2


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
    """One pole against the path.

    ``preimage`` is the parameter ``t`` with ``path.point(t) == reduced``, or
    ``None`` when the solve left it unsolved; ``distance`` is ``|Im t|``, the
    pole's strip half-width in the path parameter, or for an unsolved pole
    its proven lower bound (see :func:`pole_audit`).
    """

    pole: complex
    reduced: complex
    preimage: complex | None
    distance: float
    path_side: str
    required_side: str | None
    ok: bool


@dataclass(frozen=True)
class PoleAuditReport:
    ok: bool
    entries: tuple
    #: the strip half-width in the path parameter that the quadrature may
    #: assume: the least solved distance, at most the bound for unlisted poles
    clearance: float


#: a preimage is accepted when the path maps it within this of its pole
_PREIMAGE_RESIDUAL = 1e-13
#: the damped Newton solve takes at most this many steps, none longer than
#: the step cap, from a start this far right of its pole
_NEWTON_STEPS = 40
_NEWTON_STEP_CAP = 0.2
_NEWTON_START_SHIFT = 1e-6


def _preimages(path, reduced, reach):
    """The points ``t`` with ``path.point(t) == p`` for each ``p`` of
    ``reduced``, and which of them were solved.

    One damped Newton solve, all points in one array pass, starts below or
    above each pole by the path's height there, at most ``reach`` from the
    real axis and a little right of the pole: a pole on a symmetry line of
    the path whose preimages lie off that line would hold a solve started on
    it.  A step is cut to :data:`_NEWTON_STEP_CAP`, and a point is solved
    once the path maps it within :data:`_PREIMAGE_RESIDUAL` of its pole.
    """
    gap = reduced.imag - path.height(reduced.real)
    t = reduced.real + _NEWTON_START_SHIFT + 1j * np.clip(gap, -reach, reach)
    for _ in range(_NEWTON_STEPS):
        residual = path.point(t) - reduced
        if not np.any(np.abs(residual) > _PREIMAGE_RESIDUAL):
            break
        step = residual / path.velocity(t)
        t = t - step * (_NEWTON_STEP_CAP / np.maximum(np.abs(step), _NEWTON_STEP_CAP))
    return t, np.abs(path.point(t) - reduced) <= _PREIMAGE_RESIDUAL


def _strip_bound(d, c):
    """``g^{-1}(d)``, ``g(y) = y + |c| sinh 2 pi y``: on a path of height
    ``c``, no preimage ``t`` of a point at least ``d`` from the path has a
    smaller ``|Im t|``, since ``|z(s + iy) - z(s)| <= g(|y|)`` for real ``s``.

    Newton from above the root, from ``d`` or ``asinh(d / |c|) / 2 pi``,
    falls monotonically onto it, ``g`` being convex; the last iterate, less
    its residual over ``g'(0)``, lies below the root.
    """
    c = abs(c)

    def excess(y):
        return y + c * math.sinh(2 * math.pi * y) - d

    y = min(d, math.asinh(d / c) / (2 * math.pi)) if c else d
    while True:
        below = y - excess(y) / (1 + 2 * math.pi * c * math.cosh(2 * math.pi * y))
        if not below < y:
            break
        y = below
    return y - max(excess(y), 0.0) / (1 + 2 * math.pi * c)


def pole_audit(path, poles) -> PoleAuditReport:
    """Check ``poles``, :class:`PoleSpec` entries reduced modulo the period,
    against ``path``.

    The trapezoid rule converges at the rate of the strip of the path
    parameter ``t`` free of poles of ``f(z(t)) z'(t)``, so each pole is
    mapped back to its preimage ``t_p`` (``z(t_p) = p``, ``t_p = p`` on a
    straight path) and its distance is the strip half-width ``|Im t_p|``.
    The report's clearance is the least of these, capped at ``g^{-1}(1 - |c|)``
    (see :func:`_strip_bound`): a pole left unlisted is at least 1 from the
    real axis, so at least ``1 - |c|`` from the path.  A pole the solve
    leaves unsolved takes the bound ``g^{-1}(d)`` of its distance ``d`` from
    the path, at least its vertical gap over ``sqrt(1 + (2 pi c)^2)``.

    The solve finds one preimage of each pole; a nearer one it missed would
    show as a quadrature converging slower than the clearance predicts, which
    raises :class:`MissedPole`.

    A pole fails its entry when its distance is below :data:`CLEARANCE`, when
    the path runs through it (the side is the vertical test), when it
    carries a required side and the path passes on the other one, or when it
    is unsolved and its bound falls below the clearance.
    """
    poles = list(poles)
    locations = [complex(spec.location) for spec in poles]
    reduced = np.array(
        [complex(z.real - math.floor(z.real + 0.5), z.imag) for z in locations], dtype=complex
    )
    heights = path.height(reduced.real)
    reach = _strip_bound(1 - abs(path.c), path.c)
    if path.c == 0:
        preimages, solved = reduced, np.ones(len(reduced), dtype=bool)
    else:
        preimages, solved = _preimages(path, reduced, reach)
    distances = np.abs(preimages.imag)
    clearance = min([reach] + distances[solved].tolist()) if poles else math.inf
    slope = math.hypot(1, 2 * math.pi * path.c)
    entries = []
    for spec, location, p, t, height, distance, found in zip(
        poles, locations, reduced.tolist(), preimages.tolist(), heights.tolist(),
        distances.tolist(), solved.tolist(),
    ):
        path_side = "above" if height > p.imag else "below" if height < p.imag else "on"
        if not found:
            t, distance = None, _strip_bound(abs(p.imag - height) / slope, path.c)
        ok = (
            distance >= CLEARANCE
            and path_side != "on"
            and spec.side in (None, path_side)
            and (found or distance >= clearance)
        )
        entries.append(PoleAuditEntry(location, p, t, distance, path_side, spec.side, ok))
    return PoleAuditReport(all(e.ok for e in entries), tuple(entries), clearance)
