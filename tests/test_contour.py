"""Periodic trapezoid quadrature and pole-audit tests.

The residue check integrates 1/(e^{2 pi i t} - e^{2 pi i a}) on paths passing
below and above the pole at t = a; the difference of the two runs encloses
the pole counterclockwise, so it must equal 2 pi i times the residue, which
works out to e^{-2 pi i a}.  Every quadrature is given its integrand's true
strip half-width in the path parameter as its clearance, or ``math.inf`` for
an entire integrand."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellverify import contour, special
from ellverify.contour import (
    CLEARANCE,
    MISSED_POLE_FACTOR,
    MissedPole,
    Path,
    PoleAuditEntry,
    PoleOnPath,
    PoleSpec,
    achieved_errors,
    integrate,
    pole_audit,
)

STRAIGHT = Path()


def _pole_at(a):
    return lambda t: 1.0 / (np.exp(2j * np.pi * t) - cmath.exp(2j * cmath.pi * a))


def _clearance(path, a):
    """The strip half-width in the parameter of ``path`` that the pole of
    ``_pole_at(a)`` (at ``a`` modulo 1) leaves free."""
    return pole_audit(path, [PoleSpec(a)]).entries[0].distance


def test_path_shape():
    path = Path(0.1, -0.25)
    assert path.point(-0.25) == complex(-0.25, 0.1)
    assert math.isclose(path.point(0.25).imag, -0.1)
    assert math.isclose(float(path.height(0.0)), 0.0, abs_tol=1e-17)
    assert STRAIGHT.point(0.3) == 0.3 and STRAIGHT.velocity(0.3) == 1


def test_constant_integrates_to_period_length():
    for path in (STRAIGHT, Path(0.1, 0.2)):
        res = integrate(lambda t: 1.0, path, math.inf, tol=1e-12)
        assert abs(res.value - 1.0) < 1e-12
        assert res.error < 1e-10


def test_doubling_reuses_every_node():
    # one call on 32 nodes: the 16 of T_16 and their 16 midpoints
    nodes = []

    def f(t):
        nodes.extend(t.tolist())
        return 1.0

    res = integrate(f, STRAIGHT, math.inf, tol=1e-12)
    assert res.evaluations == len(nodes) == len(set(nodes)) == 32


def _batch_sizes(clearance, tol=1e-10):
    sizes = []

    def f(t):
        sizes.append(len(t))
        return 1.0

    res = integrate(f, STRAIGHT, clearance, tol=tol)
    assert res.evaluations == sum(sizes)
    return sizes


@pytest.mark.parametrize(
    "clearance, first",
    [
        (0.05, 64),  # ln(1e10) / (2 pi 0.05) = 73.3 nodes: 32 would double to 64 < 73.3
        (0.01, 256),  # 366.5 nodes
        (0.001, 512),  # 3,665 nodes: the first batch is capped
        (0.5, 16),  # 7.3 nodes: the first batch never falls below 16
    ],
)
def test_first_batch_is_sized_by_the_clearance(clearance, first):
    predicted = math.log(1e10) / (2 * math.pi * clearance)
    assert first == 512 or 2 * first >= predicted
    assert first == 16 or first < predicted
    # the predicted batch and the doubling that confirms it, in one call
    assert _batch_sizes(clearance) == [2 * first]


def test_missed_pole_fails_fast():
    # a pole 0.01 off the path needs hundreds of nodes, which its true
    # clearance allows; a claimed clearance of 0.5 predicts 32, so doubling
    # past 10 times that is refused
    f = _pole_at(0.2 + 0.01j)
    assert integrate(f, STRAIGHT, 0.01, tol=1e-10).evaluations > 32 * MISSED_POLE_FACTOR
    with pytest.raises(MissedPole) as excinfo:
        integrate(f, STRAIGHT, 0.5, tol=1e-10)
    assert isinstance(excinfo.value, PoleOnPath)


def test_missed_pole_is_raised_by_the_first_call():
    # a claimed clearance of 0.5 predicts 32 nodes, one call; the three sums
    # of that call contract at the rate of the true 0.01, under a quarter of
    # the claim, so the first doubling already raises
    calls = []

    def f(t):
        calls.append(len(t))
        return _pole_at(0.2 + 0.01j)(t)

    with pytest.raises(MissedPole):
        integrate(f, STRAIGHT, 0.5, tol=1e-10)
    assert calls == [32]


def test_entire_integrand_stops_on_its_last_difference():
    # with clearance math.inf there is no rate: cos(2 pi 16 t) has
    # T_8 = T_16 = 1 and T_32 = 0, so d1 = 0 and the observed rate is 1
    def f(eps):
        return lambda t: 1 + eps * np.cos(2 * np.pi * 16 * t)

    # d2 = 1e-11 meets tol at 32 nodes, where C d2 = 1e-9 would not
    res = integrate(f(1e-11), STRAIGHT, math.inf, tol=1e-10)
    assert res.evaluations == 32 and math.isclose(res.error, 1e-11, rel_tol=1e-4)
    # d2 = 1 with no contraction would raise MissedPole at a finite clearance;
    # here it doubles, and T_64 = 1 is exact up to the rounding of the sums,
    # 8 eps times the mean |f| = 1 of the first batch, which it reports
    res = integrate(f(1.0), STRAIGHT, math.inf, tol=1e-10)
    assert res.evaluations == 64 and abs(res.value - 1) < 1e-15
    assert res.error == 8 * np.finfo(float).eps
    with pytest.raises(MissedPole):
        integrate(f(1.0), STRAIGHT, 1.0, tol=1e-10)


def test_error_is_at_least_the_rounding_of_the_sums():
    # T_8, T_16 and T_32 of a pole 0.31 off the axis differ by 1.2e-6 and
    # 2.0e-13: the predicted error is 6e-25, far below the
    # rounding of the sums, 8 eps times the mean |f| of the 32 nodes (1.8e-15)
    f = _pole_at(0.31j)
    res = integrate(f, STRAIGHT, 0.31, tol=1e-11)
    assert res.evaluations == 32
    rounding = 8 * np.finfo(float).eps * float(np.mean(np.abs(f(np.arange(32) / 32))))
    assert res.error == rounding


@pytest.mark.parametrize("clearance", [0, 0.0, -0.01, -math.inf, math.nan, None])
def test_clearance_must_be_positive(clearance):
    with pytest.raises(ValueError, match="clearance must be positive"):
        integrate(lambda t: 1.0, STRAIGHT, clearance)


def test_clearance_is_required():
    with pytest.raises(TypeError):
        integrate(lambda t: 1.0, STRAIGHT, tol=1e-10)


def test_entire_integrand_is_audited_with_infinite_clearance(monkeypatch):
    # slope-1 theta0 factors in the numerator list no pole, so the audit
    # passes math.inf on the straight period, the path that no axis pole
    # bends, and the quadrature runs 16 nodes and their 16 midpoints
    tau = 0.1 + 0.8j
    f = special.Integrand(
        (special.Factor("theta0", 0.1, 1, (tau,)), special.Factor("theta0", -0.2j, 1, (tau,), 2))
    )
    assert special.pole_inventory(f) == []
    calls, paths = [], []

    def recording(*args, **kwargs):
        result = integrate(*args, **kwargs)
        calls.append((kwargs["clearance"], result.evaluations))
        paths.append(args[1])
        return result

    monkeypatch.setattr(special, "integrate", recording)
    value = special.audited_integral(f)
    assert calls == [(math.inf, 32)]
    assert paths == [STRAIGHT]
    # an entire periodic integrand has the same integral on every path
    curved = integrate(f, Path(0.1, 0.2), math.inf, tol=1e-12).value
    assert abs(value - curved) <= 1e-10 * max(1.0, abs(curved))


def test_polynomial_value():
    # trigonometric polynomial: the mean of cos^2 over a period is 1/2
    res = integrate(lambda t: np.cos(2 * np.pi * t) ** 2, STRAIGHT, math.inf, tol=1e-12)
    assert abs(res.value - 0.5) < 1e-13


def test_entire_function_is_path_independent():
    def f(t):
        return np.exp(2j * np.pi * t) + np.cos(2 * np.pi * t) ** 2

    a = integrate(f, STRAIGHT, math.inf, tol=1e-12)
    for path in (Path(0.12, -0.3), Path(0.2, 0.2)):
        assert abs(a.value - integrate(f, path, math.inf, tol=1e-12).value) < 1e-11


def test_residue_difference_below_minus_above():
    a = 0.1
    f = _pole_at(a)
    below, above = (
        integrate(f, path, _clearance(path, a), tol=1e-11)
        for path in (Path(0.1, a - 0.5), Path(0.1, a))
    )
    assert abs((below.value - above.value) - cmath.exp(-2j * cmath.pi * a)) < 1e-10


def test_residue_difference_complex_pole():
    a = -0.2 + 0.03j  # pole just over the axis
    f = _pole_at(a)
    below, above = (
        integrate(f, path, _clearance(path, a), tol=1e-11) for path in (STRAIGHT, Path(0.1, -0.2))
    )
    assert abs((below.value - above.value) - cmath.exp(-2j * cmath.pi * a)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(n=st.integers(-4, 4))
def test_fourier_orthogonality(n):
    res = integrate(lambda t: np.exp(2j * np.pi * n * t), Path(0.15, 0.1), math.inf, tol=1e-11)
    expected = 1.0 if n == 0 else 0.0
    assert abs(res.value - expected) < 1e-10


def test_error_estimates_are_honest():
    # periodic corpus with known exact values; require true error <= 10x the
    # estimate (plus a double-precision floor) in at least 95% of cases
    # (integrand, its clearance from the straight path, its exact integral)
    cases = []
    for n in range(1, 7):
        cases.append((lambda t, n=n: np.exp(2j * np.pi * n * t), math.inf, 0.0))
    for k in (1.0, 3.0, 8.0):
        cases.append(
            (
                lambda t, k=k: np.exp(k * np.cos(2 * np.pi * t)),
                math.inf,
                float(mpmath.besseli(0, k)),
            )
        )
    for b in (1.1, 1.5, 3.0):
        # poles at Im t = +-arccosh(b) / 2 pi, as close as 0.07 for b = 1.1
        cases.append(
            (
                lambda t, b=b: 1.0 / (b - np.cos(2 * np.pi * t)),
                math.acosh(b) / (2 * math.pi),
                1.0 / math.sqrt(b * b - 1),
            )
        )
    for a in (0.31j, 0.11 + 0.23j, -0.29 + 0.4j):
        # pole above the axis: the geometric expansion in e^{2 pi i a} has no
        # constant term, so the straight-path integral vanishes
        cases.append((_pole_at(a), a.imag, 0.0))
    for a in (-0.27j, 0.2 - 0.31j):
        # pole below the axis: only the constant term of the expansion in
        # e^{-2 pi i a} survives, giving -e^{-2 pi i a}
        cases.append((_pole_at(a), -a.imag, -cmath.exp(-2j * cmath.pi * a)))
    failures = 0
    for f, clearance, exact in cases:
        res = integrate(f, STRAIGHT, clearance, tol=1e-9)
        true_err = abs(res.value - exact)
        if true_err > max(10 * res.error, 1e-13):
            failures += 1
    assert failures <= len(cases) // 20  # >= 95% honest


def test_determinism():
    f = _pole_at(0.31j)
    r1 = integrate(f, STRAIGHT, 0.31, tol=1e-11)
    r2 = integrate(f, STRAIGHT, 0.31, tol=1e-11)
    assert r1.value == r2.value
    assert r1.error == r2.error
    assert r1.evaluations == r2.evaluations


def test_achieved_errors_collects_relative_errors_in_block():
    f = _pole_at(0.31j)
    with achieved_errors() as errors:
        first = integrate(f, STRAIGHT, 0.31, tol=1e-11)
        second = integrate(lambda t: 100.0, STRAIGHT, math.inf, tol=1e-11)
    integrate(f, STRAIGHT, 0.31, tol=1e-11)
    assert errors == [first.error, second.error / 100.0]


# ---------------------------------------------------------------------------
# pole audit


def test_audit_straight_contour_sides():
    report = pole_audit(
        STRAIGHT,
        [PoleSpec(0.25 + 0.5j, "below"), PoleSpec(-0.1 - 0.3j, "above")],
    )
    assert report.ok
    by_distance = {round(e.distance, 6) for e in report.entries}
    assert by_distance == {0.5, 0.3}


def test_audit_flags_wrong_side():
    report = pole_audit(STRAIGHT, [PoleSpec(0.25 + 0.5j, "above")])
    assert not report.ok
    assert report.entries[0].path_side == "below"


def test_audit_flags_pole_on_path():
    report = pole_audit(STRAIGHT, [PoleSpec(0.25 + 0j)])
    assert not report.ok
    assert report.entries[0].path_side == "on"
    assert report.entries[0].distance == 0.0


def test_audit_flags_too_close():
    report = pole_audit(STRAIGHT, [PoleSpec(0.25 + 0.01j, "below")])
    assert not report.ok
    assert math.isclose(report.entries[0].distance, 0.01)


def _bisect(rising, lo, hi):
    """The root of ``rising`` between ``lo`` and ``hi``, where it rises
    through 0, from below."""
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if rising(mid) < 0 else (lo, mid)
    return lo


def _strip_floor(d, c):
    """``g^-1(d)`` for ``g(y) = y + |c| sinh 2 pi y``."""
    return _bisect(lambda y: y + abs(c) * math.sinh(2 * math.pi * y) - d, 0.0, d)


def test_audit_arc_clearance():
    # poles on the axis under the crest at -1/4 and over the trough at +1/4:
    # 0.1 from the path, but their preimages -1/4 - iy and 1/4 + iy sit at
    # |Im t| = y with y = 0.1 cosh 2 pi y
    path = Path(0.1, -0.25)
    report = pole_audit(path, [PoleSpec(-0.25, "above"), PoleSpec(0.25, "below")])
    assert report.ok
    # the smaller root of y = 0.1 cosh 2 pi y
    y = _bisect(lambda y: y - 0.1 * math.cosh(2 * math.pi * y), 0.1, 0.19)
    assert round(y, 6) == 0.143435
    for entry, preimage in zip(report.entries, (-0.25 - 1j * y, 0.25 + 1j * y)):
        assert math.isclose(entry.distance, y, rel_tol=1e-12)
        assert abs(entry.preimage - preimage) < 1e-12
    assert math.isclose(report.clearance, y, rel_tol=1e-12)
    assert [e.path_side for e in report.entries] == ["above", "below"]


def test_audit_curved_distance_matches_dense_search():
    # a dense grid over the parameter plane finds the one preimage of the
    # pole within |Im t| < 0.3; the audit's Newton preimage is where the grid
    # minimum lies, and the path maps it onto the pole
    path = Path(0.1, -0.25)
    pole = 0.05 + 0.13j
    (entry,) = pole_audit(path, [PoleSpec(pole)]).entries
    assert abs(path.point(entry.preimage) - pole) <= 1e-13
    s, y = np.meshgrid(np.linspace(-0.45, 0.55, 2001), np.linspace(-0.3, 0.3, 1201))
    t = s + 1j * y
    miss = np.abs(path.point(t) - pole)
    nearest = t.flat[np.argmin(miss)]
    assert abs(nearest - entry.preimage) < 1e-3
    assert math.isclose(entry.distance, abs(entry.preimage.imag))
    assert abs(entry.distance - abs(nearest.imag)) < 1e-3
    assert entry.path_side == "below" and entry.preimage.imag > 0


def _strip_rate(path, a, sizes=range(8, 33, 4)):
    """The rate ``a`` at which ``|T_2N - T_N|`` of ``_pole_at(a)`` on ``path``
    contracts, ``e^{-2 pi a N}``, fitted over ``sizes``."""
    f = _pole_at(a)

    def trapezoid(n):
        t = np.arange(n) / n
        return complex(np.mean(f(path.point(t)) * path.velocity(t)))

    sizes = np.array(sizes)
    gaps = [abs(trapezoid(2 * n) - trapezoid(n)) for n in sizes]
    return -np.polyfit(sizes, np.log(gaps), 1)[0] / (2 * math.pi)


@pytest.mark.parametrize("a", [-0.25, 0.05 + 0.13j, 0.3 - 0.05j])
def test_clearance_is_the_rate(a):
    # the trapezoid differences of a curved-path integrand with one simple
    # pole contract at the audited strip half-width in the path parameter,
    # not at the distance from the pole to the path
    path = Path(0.1, -0.25)
    (entry,) = pole_audit(path, [PoleSpec(a)]).entries
    rate = _strip_rate(path, a)
    assert abs(rate / entry.distance - 1) < 0.1
    if a == -0.25:
        # under the crest the pole is 0.1 from the path: 1.43 times too slow
        assert rate / 0.1 > 1.4


def test_audit_clearance_is_capped_for_unlisted_poles():
    # a pole left unlisted is at least 1 - |c| from the path, so no preimage
    # of it is nearer than g^-1(1 - |c|), g(y) = y + |c| sinh 2 pi y, which
    # caps the clearance that listed poles farther off would give
    path = Path(0.1, 0.2)
    report = pole_audit(path, [PoleSpec(0.3 + 0.95j, "below")])
    (entry,) = report.entries
    assert report.ok and entry.distance > report.clearance
    y = report.clearance
    assert math.isclose(y + 0.1 * math.sinh(2 * math.pi * y), 0.9, rel_tol=1e-12)
    assert round(y, 4) == 0.3755
    assert pole_audit(STRAIGHT, [PoleSpec(0.3 + 0.95j)]).clearance == 0.95


def test_unsolved_pole_takes_the_bound_and_fails_below_the_clearance(monkeypatch):
    # under the crest of Path(0.1, 0) the path reaches no lower than
    # Im z = -0.0105 on the line Re t = 0, so the preimages of a pole at
    # -0.05i lie off that line; the solve, started right of it, finds one
    path = Path(0.1, 0.0)
    pole = PoleSpec(-0.05j, "above")
    bound = _strip_floor(0.15 / math.hypot(1, 2 * math.pi * 0.1), 0.1)
    (entry,) = pole_audit(path, [pole]).entries
    assert abs(path.point(entry.preimage) + 0.05j) <= 1e-13 and entry.preimage.real != 0
    assert entry.ok and entry.distance > bound
    # with the solve cut off, each pole takes the bound g^-1(d) of its
    # distance d from the path, here 0.15 below the crest over the slope
    monkeypatch.setattr(contour, "_NEWTON_STEPS", 0)
    far = PoleSpec(1.2j, "below")  # 1.1 over the crest: its bound clears
    report = pole_audit(path, [pole, far])
    entry, other = report.entries
    assert entry.preimage is None and other.preimage is None
    assert math.isclose(entry.distance, bound, rel_tol=1e-12)
    assert math.isclose(report.clearance, _strip_floor(0.9, 0.1), rel_tol=1e-12)
    assert other.ok and other.distance >= report.clearance
    # a bound below the clearance the report returns cannot vouch for it:
    # the entry fails.  An axis pole at 0 makes the audited quadrature pick
    # a curved path over it, Path(0.025, 0), half as high as the pole at
    # -0.05i; there the unsolved pole's bound again falls below the
    # clearance, and the audited quadrature names the pole and the path
    assert entry.distance < report.clearance and not entry.ok and not report.ok
    axis = PoleSpec(0.0, "above")
    curved = pole_audit(Path(0.025, 0.0), [axis, pole, far])
    assert curved.entries[1].preimage is None and curved.entries[1].distance < curved.clearance
    monkeypatch.setattr(special, "pole_inventory", lambda f: [axis, pole, far])
    with pytest.raises(PoleOnPath, match=r"Path\(c=0\.025, x0=0\.0\).*pole=\(-0-0\.05j\)"):
        special.audited_integral(lambda z: 1 / z)


def test_audit_reduces_modulo_period():
    report = pole_audit(STRAIGHT, [PoleSpec(3.25 + 0.5j, "below")])
    assert report.ok
    assert math.isclose(report.entries[0].reduced.real, 0.25)


def test_audit_accepts_spec_without_side():
    report = pole_audit(STRAIGHT, [PoleSpec(0.1 + 0.4j)])
    assert report.ok
    assert report.entries[0].required_side is None


def test_audit_wraparound_distance():
    # pole at the period seam: nearest path point is at x = +/- 1/2
    report = pole_audit(STRAIGHT, [PoleSpec(-0.5 + 0.2j, "below")])
    assert report.ok
    assert math.isclose(report.entries[0].distance, 0.2)


def _reference_entries(path, poles):
    """Each pole's entry, solved on its own with scalar arithmetic: the
    damped Newton solve of the batched audit, one pole at a time."""
    c, x0 = path.c, path.x0
    reach = _strip_floor(1 - abs(c), c)
    rows = []
    for spec in poles:
        location = complex(spec.location)
        p = complex(location.real - math.floor(location.real + 0.5), location.imag)
        height = c * math.cos(2 * math.pi * (p.real - x0))
        path_side = "above" if height > p.imag else "below" if height < p.imag else "on"
        t = complex(p.real, min(max(p.imag - height, -reach), reach)) if c else p
        for _ in range(40):
            residual = t + 1j * c * cmath.cos(2 * math.pi * (t - x0)) - p
            if abs(residual) <= 1e-13:
                break
            step = residual / (1 - 2j * math.pi * c * cmath.sin(2 * math.pi * (t - x0)))
            t -= step * min(1, 0.2 / abs(step))
        if abs(t + 1j * c * cmath.cos(2 * math.pi * (t - x0)) - p) <= 1e-13:
            rows.append((location, p, t, abs(t.imag), path_side, spec.side))
        else:
            bound = _strip_floor(abs(p.imag - height) / math.hypot(1, 2 * math.pi * c), c)
            rows.append((location, p, None, bound, path_side, spec.side))
    clearance = min([reach] + [row[3] for row in rows if row[2] is not None])
    entries = []
    for location, p, t, distance, path_side, side in rows:
        ok = (
            distance >= CLEARANCE
            and path_side != "on"
            and side in (None, path_side)
            and (t is not None or distance >= clearance)
        )
        entries.append(PoleAuditEntry(location, p, t, distance, path_side, side, ok))
    return entries, clearance


@pytest.mark.parametrize("path", [STRAIGHT, Path(0.1, -0.25), Path(0.07, 0.31)])
def test_batched_audit_matches_per_pole_reference(path):
    rng = np.random.default_rng(5)
    locations = list(rng.uniform(-2, 2, 30) + 1j * rng.uniform(-0.6, 0.6, 30))
    # on the path, at the period seam, and on a crest
    locations += [0.3 + 1j * float(path.height(0.3)), 0.5 + 0.2j, -0.5 - 0.05j, 0.5, -0.5]
    locations += [path.x0 + 1j * path.c, 1.75 + 0.003j]
    sides = [None, "above", "below"]
    poles = [PoleSpec(z, sides[i % 3]) for i, z in enumerate(locations)]
    report = pole_audit(path, poles)
    expected, clearance = _reference_entries(path, poles)
    assert math.isclose(report.clearance, clearance, rel_tol=1e-12, abs_tol=1e-15)
    slope = math.hypot(1, 2 * math.pi * path.c)
    for got, want in zip(report.entries, expected):
        assert (got.pole, got.reduced, got.path_side, got.required_side, got.ok) == (
            want.pole, want.reduced, want.path_side, want.required_side, want.ok
        )
        assert type(got.reduced) is complex and type(got.distance) is float
        assert (got.preimage is None) == (want.preimage is None)
        if path.c == 0:
            assert got.preimage == got.reduced and got.distance.hex() == want.distance.hex()
            continue
        assert math.isclose(got.distance, want.distance, rel_tol=1e-12, abs_tol=1e-13)
        # every preimage is solved or replaced by its bound; a solved one
        # maps onto its pole and respects the bound g^-1(d)
        floor = _strip_floor(abs(got.reduced.imag - path.height(got.reduced.real)) / slope, path.c)
        if got.preimage is None:
            assert got.distance <= floor and math.isclose(got.distance, floor, rel_tol=1e-12)
        else:
            assert abs(path.point(got.preimage) - got.reduced) <= 1e-13
            assert abs(got.preimage - want.preimage) < 1e-12
            assert got.distance >= floor * (1 - 1e-12)
    assert report.ok == all(e.ok for e in expected)
    assert any(e.path_side == "on" for e in report.entries)


def test_audit_of_no_poles_is_ok():
    for path in (STRAIGHT, Path(0.1, 0.2)):
        assert pole_audit(path, []) == pole_audit(path, ()) and pole_audit(path, []).ok
