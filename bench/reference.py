"""Reference values computed outside ellverify, and the layer microbenchmarks.

Kernel values at fixed points are compared with 30-digit mpmath: ``mpmath.qp``
for the single and double q-Pochhammer products and ``theta0``,
``mpmath.jtheta(1, pi z, e^{pi i tau})`` for the Jacobi theta function, and a
double product written here for the elliptic gamma function.  Series values are
compared exactly: ``(q;q)_inf`` with Euler's pentagonal number theorem and its
inverse with partition numbers from the largest-part recurrence.
"""

from __future__ import annotations

import cmath
import math
import time

import mpmath

#: fixed kernel points (z, tau, sigma) with Im tau = Im sigma = 0.2 and 0.7
KERNEL_POINTS = {
    "im02": (0.13 + 0.04j, 0.1 + 0.2j, -0.07 + 0.2j),
    "im07": (0.21 - 0.05j, -0.15 + 0.7j, 0.08 + 0.7j),
}

#: relative agreement required of a double-precision kernel value
KERNEL_REL_TOL = 1e-12

#: truncation order of the fixed series operands, in the single variable q
SERIES_ORDER = 40


def _e(x):
    return cmath.exp(2j * math.pi * x)


def kernel_calls(kernel):
    """``{(function, point label): zero-argument call}`` at the fixed points."""
    calls = {}
    for label, (z, tau, sigma) in KERNEL_POINTS.items():
        u, q, r = _e(z), _e(tau), _e(sigma)
        calls["qpoch1", label] = lambda u=u, q=q: kernel.qpoch1(u, q)
        calls["qpoch2", label] = lambda u=u, q=q, r=r: kernel.qpoch2(u, q, r)
        calls["theta0", label] = lambda z=z, t=tau: kernel.theta0(z, t)
        calls["jacobi_theta", label] = lambda z=z, t=tau: kernel.jacobi_theta(z, t)
        calls["ell_gamma", label] = lambda z=z, t=tau, s=sigma: kernel.ell_gamma(z, t, s)
    return calls


def _mp_e(x):
    return mpmath.exp(2j * mpmath.pi * x)


def _mp_double_product(x, q, r, eps):
    """``prod_{n,m >= 0} (1 - x q^n r^m)``, factors down to ``eps``."""
    total = mpmath.mpc(1)
    row = x
    while abs(row) > eps:
        term = row
        while abs(term) > eps:
            total *= 1 - term
            term *= r
        row *= q
    return total


def kernel_references():
    """30-digit values of every kernel call of :func:`kernel_calls`."""
    refs = {}
    with mpmath.workdps(30):
        eps = mpmath.mpf(10) ** -32
        for label, (z, tau, sigma) in KERNEL_POINTS.items():
            Z, T, S = mpmath.mpc(z), mpmath.mpc(tau), mpmath.mpc(sigma)
            # the kernel's multiplicative inputs are the doubles it is given
            u, q, r = (mpmath.mpc(_e(x)) for x in (z, tau, sigma))
            qt, qs = _mp_e(T), _mp_e(S)
            layers = mpmath.mpc(1)
            layer = u
            while abs(layer) > eps:
                layers *= mpmath.qp(layer, r)
                layer *= q
            refs["qpoch1", label] = mpmath.qp(u, q)
            refs["qpoch2", label] = layers
            refs["theta0", label] = mpmath.qp(_mp_e(Z), qt) * mpmath.qp(_mp_e(T - Z), qt)
            refs["jacobi_theta", label] = mpmath.jtheta(
                1, mpmath.pi * Z, mpmath.exp(1j * mpmath.pi * T)
            )
            refs["ell_gamma", label] = _mp_double_product(
                _mp_e(T + S - Z), qt, qs, eps
            ) / _mp_double_product(_mp_e(Z), qt, qs, eps)
    return {key: complex(value) for key, value in refs.items()}


def kernel_problems(values, refs):
    """Names of kernel values that miss their reference by more than the tolerance."""
    problems = []
    for key, ref in refs.items():
        error = abs(complex(values[key]) - ref) / abs(ref)
        if not error <= KERNEL_REL_TOL:
            problems.append(f"kernel.{key[0]} at {key[1]}: relative error {error:.3g}")
    return problems


def pentagonal_coefficients(order):
    """Coefficients of ``(q;q)_inf`` through ``q^order`` (Euler)."""
    coeffs = [0] * (order + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= order:
        for j in (k, -k) if k else (0,):
            n = j * (3 * j - 1) // 2
            if n <= order:
                coeffs[n] = (-1) ** abs(j)
        k += 1
    return coeffs


def partition_numbers(order):
    """``p(0..order)`` by adding one admissible largest part at a time."""
    counts = [1] + [0] * order
    for part in range(1, order + 1):
        for n in range(part, order + 1):
            counts[n] += counts[n - part]
    return counts


def series_calls(series):
    """``{operation: zero-argument call}`` on ``(q;q)_inf`` and its inverse."""
    ring = series.SeriesRing(("q",), {"q": SERIES_ORDER + 1})
    q = ring.mono(1, q=1)
    euler = series.series_pochhammer(ring, q, q)
    inverse = euler.invert()
    return {
        "pochhammer": lambda: series.series_pochhammer(ring, q, q),
        "invert": euler.invert,
        "mul": lambda: euler * inverse,
    }


def series_expected(series):
    """Exact expected value of each operation of :func:`series_calls`."""
    ring = series.SeriesRing(("q",), {"q": SERIES_ORDER + 1})

    def from_coefficients(coeffs):
        total = ring.zero()
        for n, c in enumerate(coeffs):
            if c:
                total = total + ring.term(c, q=n)
        return total

    return {
        "pochhammer": from_coefficients(pentagonal_coefficients(SERIES_ORDER)),
        "invert": from_coefficients(partition_numbers(SERIES_ORDER)),
        "mul": ring.one(),
    }


def series_problems(values, expected):
    """Names of series values that differ from the exact expectation."""
    return [f"series.{name}: not exact" for name in expected if not values[name] == expected[name]]


def check_references(kernel, series):
    """Every reference problem of the package's kernel and series layers."""
    kernel_values = {key: call() for key, call in kernel_calls(kernel).items()}
    series_values = {name: call() for name, call in series_calls(series).items()}
    return kernel_problems(kernel_values, kernel_references()) + series_problems(
        series_values, series_expected(series)
    )


def best_seconds(call, repeats=5, min_batch_seconds=0.01):
    """Minimum over ``repeats`` of the mean time of a batch of calls."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            call()
        if time.perf_counter() - start >= min_batch_seconds:
            break
        batch *= 2
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        best = min(best, (time.perf_counter() - start) / batch)
    return best


def microbenchmarks(kernel, series):
    """Per-call microseconds of the kernel functions and series operations."""
    out = {}
    for (name, label), call in kernel_calls(kernel).items():
        out[f"kernel.{name}.{label}_us"] = best_seconds(call) * 1e6
    for name, call in series_calls(series).items():
        out[f"series.{name}_us"] = best_seconds(call) * 1e6
    return out
