"""Shared test helpers: a numeric value for exact series, and a recorder for
the quadratures the integral evaluators run."""

from ellverify import special


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
