"""Shared test helpers: a numeric value for exact series, a series rebuilt
under tighter caps, a recorder for the quadratures the integral evaluators
run, and the audit clearance of a declared integrand."""

from ellverify import contour, special
from ellverify.series import SeriesRing


def series_value(series, **values):
    """Numeric value of a truncated series at ``values`` (one per ring variable)."""
    order = [values[v] for v in series.ring.variables]
    total = 0j
    for key, coeff in series.terms.items():
        term = complex(coeff)
        for value, exp in zip(order, key):
            if exp:
                term *= value**exp
        total += term
    return total


def narrowed(series, **caps):
    """``series`` rebuilt from its terms in the ring with ``caps`` replaced."""
    ring = SeriesRing(series.ring.variables, {**series.ring.caps, **caps})
    out = ring.zero()
    for key, coeff in series.terms.items():
        out = out + ring.term(coeff, **dict(zip(ring.variables, key)))
    return out


def record_quadratures(monkeypatch):
    """List that collects ``(integrand, path, result)`` of every quadrature
    that :mod:`ellverify.special` runs while ``monkeypatch`` is active."""
    runs = []
    integrate = special.integrate

    def recording(f, path, *args, **kwargs):
        result = integrate(f, path, *args, **kwargs)
        runs.append((f, path, result))
        return result

    monkeypatch.setattr(special, "integrate", recording)
    return runs


def audit_clearance(integrand, path):
    """The strip half-width in the path parameter that no listed pole of
    ``integrand`` enters, the audit clearance
    :func:`ellverify.special.audited_integral` passes to the quadrature."""
    return contour.pole_audit(path, special.pole_inventory(integrand)).clearance
