"""Structural properties of the integral evaluators: symmetry and
antisymmetry laws, balance/domain guards, and exact zeros of the closed
forms.  Agreement of each integral with its closed form is exercised per
identity through the catalog tests."""

import dataclasses
import functools
import inspect
import re

import numpy as np
import pytest

from ellverify import catalog, contour, kernel, lemmas, special
from ellverify.contour import CLEARANCE, PoleOnPath
from ellverify.kernel import PoleHit
from helpers import audit_clearance, record_quadratures


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


def declared(monkeypatch, evaluator, *args):
    """The integrand and path of the one quadrature ``evaluator(*args)`` runs."""
    runs = record_quadratures(monkeypatch)
    evaluator(*args)
    ((integrand, path, _),) = runs
    return integrand, path


def assert_pinned(inventory, pinned):
    """Each pinned pole is in the inventory, modulo 1, with the pinned side;
    a side of ``None`` pins the side of the real axis the pole is on."""
    for location, side in pinned.items():
        if side is None:
            side = "below" if location.imag > 0 else "above"
        matches = [
            spec.side
            for spec in inventory
            if abs((d := spec.location - location) - round(d.real)) < 1e-12
        ]
        assert matches == [side], (location, side, matches)


# ---------------------------------------------------------------------------
# balanced beta integral


def test_spiridonov_rejects_wrong_parameter_count():
    with pytest.raises(special.BalanceViolation):
        special.spiridonov_lhs([0.2j] * 5, 0.8j, 0.9j)


def test_spiridonov_rejects_unbalanced_parameters():
    s = [0.1 + 0.2j] * 6
    with pytest.raises(special.BalanceViolation):
        special.spiridonov_lhs(s, 0.8j, 0.9j)  # sum(s) != tau + sigma


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spiridonov_rhs_permutation_invariant(seed):
    params = catalog.sample_params("spiridonov", seed, 0)
    s, tau, sigma = params["s"], params["tau"], params["sigma"]
    base = special.spiridonov_rhs(s, tau, sigma)
    shuffled = [s[3], s[0], s[5], s[1], s[4], s[2]]
    assert close(special.spiridonov_rhs(shuffled, tau, sigma), base, 1e-13)
    assert close(special.spiridonov_rhs(s, sigma, tau), base, 1e-13)


# ---------------------------------------------------------------------------
# quarter-shift evaluations


def test_quarter_shift_rhs_modulus_swap():
    tau, sigma = 0.1 + 0.8j, -0.2 + 0.6j
    assert close(special.eval1_rhs(tau, sigma), special.eval1_rhs(sigma, tau), 1e-13)
    assert close(special.eval2_rhs(tau, sigma), special.eval2_rhs(sigma, tau), 1e-13)


def test_quarter_shift_pole_inventory_orientation(monkeypatch):
    tau, sigma = 0.1 + 0.8j, 0.2 + 0.7j
    # the path passes above -1/4 and below +1/4, below the upper lattice
    # shells and above the lower ones
    f, _ = declared(monkeypatch, special.eval1_lhs, tau, sigma)
    expected = {-0.25: "above", 0.25: "below"}
    for m in (tau, sigma):
        expected.update({-0.25 - m: "above", 0.25 + m: "below", 0.25 - m: "above"})
    assert_pinned(special.pole_inventory(f), expected)
    f, _ = declared(monkeypatch, special.eval2_lhs, tau, sigma)
    expected = {0.25: "above", -0.25: "below"}
    for m in (tau, sigma):
        expected.update({0.25 - m: "above", -0.25 + m: "below", -0.25 - m: "above"})
    assert_pinned(special.pole_inventory(f), expected)


def test_quarter_shift_sides_are_derived_not_assumed(monkeypatch):
    # eval1's integrand on eval2's path: the poles at -+1/4 keep their
    # clearance but see the path pass on the wrong side
    tau, sigma = 0.1 + 0.8j, 0.2 + 0.7j
    eval1, eval1_path = declared(monkeypatch, special.eval1_lhs, tau, sigma)
    _, eval2_path = declared(monkeypatch, special.eval2_lhs, tau, sigma)
    assert eval1_path != eval2_path
    inventory = special.pole_inventory(eval1)
    report = contour.pole_audit(eval2_path, inventory)
    bad = [e for e in report.entries if not e.ok]
    assert {round(e.reduced.real, 12) for e in bad} == {-0.25, 0.25}
    assert all(e.distance >= CLEARANCE and e.path_side != e.required_side for e in bad)
    # an inventory led by eval2's axis pole makes the audited quadrature pick
    # eval2's path, which eval1's own poles then refuse
    with monkeypatch.context() as mp:
        mp.setattr(special, "pole_inventory", lambda f: [contour.PoleSpec(0.25, "above")] + inventory)
        with pytest.raises(PoleOnPath, match=re.escape(f"audit of {eval2_path} rejected 2 pole(s)")):
            special.audited_integral(eval1)


def test_wide_quarter_paths_pass_at_the_parameter_clearance(monkeypatch):
    # Path(-0.39, 0.25) passes above -1/4 and below 1/4 as the quarter path
    # does, but bends 0.39 off the axis.  The audit passes it, and at its
    # clearance, the strip half-width in the path parameter (0.087), the
    # quadrature gives the quarter-path value; at the least distance from a
    # pole to the path (0.23), three times more, it raises MissedPole
    wide = contour.Path(-0.39, 0.25)
    x = np.linspace(-0.5, 0.5, 100_001)
    for index in range(5):
        params = catalog.sample_params("eval1", 0, index)
        with monkeypatch.context() as mp:
            f, path = declared(mp, special.eval1_lhs, params["tau"], params["sigma"])
        quarter = special.audited_integral(f)
        report = contour.pole_audit(wide, special.pole_inventory(f))
        assert report.ok and round(report.clearance, 3) == 0.087
        assert all(abs(wide.point(e.preimage) - e.reduced) <= 1e-13 for e in report.entries)
        assert close(contour.integrate(f, wide, report.clearance).value, quarter, 1e-12)
        euclidean = min(float(np.min(np.abs(wide.point(x) - e.reduced))) for e in report.entries)
        assert round(euclidean, 2) == 0.23
        with pytest.raises(contour.MissedPole):
            contour.integrate(f, wide, euclidean)


# ---------------------------------------------------------------------------
# antisymmetrized one-sided integral


def test_eval3_rhs_antisymmetry_many_draws():
    # the closed form must flip sign with the weight argument; 60 seeded
    # draws across the sampling domain
    for index in range(60):
        params = catalog.sample_params("eval3", 17, index)
        lam, tau, eta = params["lam"], params["tau"], params["eta"]
        plus = special.eval3_rhs(lam, tau, eta)
        minus = special.eval3_rhs(-lam, tau, eta)
        assert abs(plus + minus) <= 1e-10 * max(1.0, abs(plus))


def test_eval3_rhs_exact_zeros():
    tau, eta = 0.1 + 0.55j, 0.07 + 0.4j
    assert special.eval3_rhs(0.0, tau, eta) == 0
    assert special.eval3_rhs(2 * eta, tau, eta) == 0
    assert special.eval3_rhs(-2 * eta, tau, eta) == 0


def test_sym_integral_vanishes_at_origin():
    # the antisymmetrization is exactly zero at lam = 0 by construction
    assert special.I_sym(0.0, 0.1 + 0.55j, 0.07 + 0.4j) == 0


def _i_sym_of_one_sided(lam, tau, eta):
    return special.I_tilde(lam, tau, eta) - special.I_tilde(-lam, tau, eta)


def _ellmac_val_of_one_sided(lam, tau, eta):
    """``ellmac_P(0, 4)``: the two one-sided integrals of index 2 and level 4
    over ``theta(lam) theta(lam - 2 eta) theta(lam + 2 eta)``."""
    prefactor = special.epi(-(4 * eta + tau) / 2 + 0.75 * tau)
    numerator = special.delta_tilde(2, 4, lam, tau, eta) - special.delta_tilde(2, 4, -lam, tau, eta)
    thetas = (special.Factor("jacobi", lam + k * eta, 0, (tau,)) for k in (-2, 0, 2))
    return prefactor * numerator / special.product(1, *thetas)


@pytest.mark.parametrize("cid, symmetrized, reference", [
    ("eval3", special.I_sym, _i_sym_of_one_sided),
    ("ellmac-val", functools.partial(special.ellmac_P, 0, 4), _ellmac_val_of_one_sided),
], ids=["eval3", "ellmac-val"])
def test_symmetrized_integral_is_one_quadrature_of_both_signs(monkeypatch, cid, symmetrized,
                                                              reference):
    # the one integral with a term for each sign of lam is the reference built
    # from the two one-sided integrals, which take a quadrature each
    runs = record_quadratures(monkeypatch)
    for index in range(5):
        p = catalog.sample_params(cid, 0, index)
        args = (p["lam"], p["tau"], p["eta"])
        runs.clear()
        value = symmetrized(*args)
        assert len(runs) == 1, (cid, index)
        want = reference(*args)
        assert len(runs) == 3, (cid, index)
        assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (cid, index)


def test_ellmac_P_on_its_circle_is_one_quadrature(monkeypatch):
    # 1e-6 from a zero of the denominator, the mean over the 8 circle points
    # is one quadrature of the weighted terms of all 16 signed points
    runs = record_quadratures(monkeypatch)
    p = catalog.sample_params("ellmac-val", 0, 0)
    tau, eta = p["tau"], p["eta"]
    for zero in (0, 2 * eta, -2 * eta):
        runs.clear()
        value = special.ellmac_P(0, 4, zero + 1e-6, tau, eta)
        assert len(runs) == 1, zero
        assert len(runs[0][0].terms) == 2 * special.CIRCLE_POINTS, zero
        assert close(value, special.ellmac_val_rhs(tau, eta), 1e-10), zero


def test_i_tilde_requires_upper_half_moduli():
    with pytest.raises(special.DomainViolation):
        special.I_tilde(0.1, 0.5j, -0.3j)
    with pytest.raises(special.DomainViolation):
        special.I_tilde(0.1, -0.5j, 0.3j)


# ---------------------------------------------------------------------------
# theta-ratio weight


def test_q_factor_is_even():
    mu, sigma, eta = 0.31 + 0.02j, 0.8j, 0.12 + 0.3j
    assert close(special.Q_factor(-mu, sigma, eta), special.Q_factor(mu, sigma, eta), 1e-12)


def test_q_factor_pole_guard():
    sigma, eta = 0.8j, 0.12 + 0.3j
    with pytest.raises(PoleHit):
        special.Q_factor(2 * eta, sigma, eta)
    with pytest.raises(PoleHit):
        special.Q_factor(-2 * eta, sigma, eta)


def test_q_factor_takes_each_kernel_value_once(monkeypatch):
    # theta(4 eta), (sigma; sigma) and the two denominators: the pole guard
    # reads the declared factors' values, which then multiply as product's do
    mu, sigma, eta = 0.31 + 0.02j, 0.8j, 0.12 + 0.3j
    want = special.product(
        2 * np.pi * special.epi(sigma / 4),
        special.Factor("jacobi", 4 * eta, 0, (sigma,)),
        special.Factor("qpoch", sigma, 0, (sigma,), 3),
        special.Factor("jacobi", mu - 2 * eta, 0, (sigma,), -1),
        special.Factor("jacobi", mu + 2 * eta, 0, (sigma,), -1),
    )
    calls = []
    for name in kernel.__all__:
        if inspect.isfunction(fn := getattr(special, name, None)):
            def counting(*args, name=name, fn=fn):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(special, name, counting)
    got = special.Q_factor(mu, sigma, eta)
    assert sorted(calls) == ["jacobi_theta"] * 3 + ["qpoch1_add"]
    assert type(got) is complex and got == want


# ---------------------------------------------------------------------------
# normalized symmetrized function


@pytest.mark.parametrize("mu,kappa", [(3, 4), (1, 4), (0, 3), (4, 6), (3, 8)])
def test_ellmac_index_guard(mu, kappa):
    # mu + 2 congruent to +-1 mod kappa: the normalization is undefined
    with pytest.raises(special.DomainViolation):
        special.ellmac_P(mu, kappa, 0.1, 0.5j, -0.3j)


def test_ellmac_level_guard():
    with pytest.raises(special.DomainViolation):
        special.ellmac_P(1, 3, 0.1, 0.5j, -0.3j)


def test_ellmac_runs_on_valid_point():
    params = catalog.sample_params("ellmac-eval", 0, 0)
    eta = params["eta"]
    value = special.ellmac_P(0, 4, 4 * eta, -8 * eta, eta)
    reference = special.ellmac_eval_rhs(0, 4, eta)
    assert close(value, reference, 1e-8)


def test_ellmac_val_holds_next_to_each_theta_zero():
    # 1e-6 from a zero of ellmac_P's denominator, 0 or +-2 eta, which the
    # numerator shares
    params = catalog.sample_params("ellmac-val", 0, 0)
    for zero in (0, 2 * params["eta"], -2 * params["eta"]):
        result = catalog.run_check("ellmac-val", params={**params, "lam": zero + 1e-6})
        assert result.passed, (zero, result.abs_error)


#: the corners and the centre of the box ellmac-eval samples eta from
ETA_BOX = [complex(re, im) for re in (-0.05, 0.05) for im in (-0.3, -0.08)] + [-0.19j]


@pytest.mark.parametrize("eta", ETA_BOX)
def test_ellmac_eval_holds_where_both_signs_cancel(eta):
    # at mu + 2 = kappa = 4 the rhs is 0: the two sign terms of ellmac_P's
    # one integral cancel, over the whole sampled range of eta
    result = catalog.run_check("ellmac-eval", params={"mu": 2, "kappa": 4, "eta": eta})
    assert result.passed, result


@pytest.mark.parametrize("eta", ETA_BOX)
def test_cancelling_terms_stop_at_their_rounding(monkeypatch, eta):
    # scaled until the rounding of its node values exceeds the tolerance, the
    # cancelling integrand stops at that rounding instead of raising MissedPole
    f, path = declared(monkeypatch, special.ellmac_P, 2, 4, 4 * eta, -8 * eta, eta)
    scaled = dataclasses.replace(f, scale=f.scale * 1e8)
    t = np.arange(64) / 64
    size = float(np.mean(np.abs(scaled(path.point(t)))))
    assert size * np.finfo(float).eps > 1e-10
    result = contour.integrate(scaled, path, audit_clearance(f, path))
    assert abs(result.value) <= 1e-13 * size


# ---------------------------------------------------------------------------
# pole inventories derived from the factor lists


def test_slope_two_gamma_yields_both_half_period_classes():
    # gamma(tau + sigma - 2t) has poles at 2t = tau + sigma + m: t and t + 1/2
    tau, sigma = 0.1 + 0.8j, 0.2 + 0.7j
    f = special.Integrand((special.Factor("gamma", tau + sigma, -2, (tau, sigma)),))
    inventory = special.pole_inventory(f)
    top = (tau + sigma) / 2
    assert len(inventory) == 2
    assert_pinned(inventory, {top: "below", top + 0.5: "below"})


def test_asym_poles_near_axis_only(monkeypatch):
    tau, eta = -0.24 + 0.4j, 0.05 + 0.29j
    f, _ = declared(monkeypatch, special.I_tilde, 0.1, tau, eta)
    inventory = special.pole_inventory(f)
    assert all(abs(spec.location.imag) < 1.0 for spec in inventory)
    # the tower members +-(2 eta - k tau - 8 m eta), each on its side of the
    # straight path
    pinned = {}
    for k in range(12):
        for m in (0, 1):
            p = 2 * eta - k * tau - 8 * m * eta
            if abs(p.imag) < 1.0:
                pinned.update({p: None, -p: None})
    assert_pinned(inventory, pinned)


def test_fv_u_poles_structure(monkeypatch):
    tau, sigma, eta = 0.1 + 0.7j, 0.2 + 0.8j, 0.05 - 0.3j
    f, _ = declared(monkeypatch, special.fv_u, 0.3, 0.2, tau, sigma, eta)
    pinned = {-2 * eta: None, 2 * eta: None}
    for m in (tau, sigma):
        pinned.update({-2 * eta - m: None, 2 * eta + m: None, 2 * eta - m: None})
    pinned = {p: side for p, side in pinned.items() if abs(p.imag) < 1.0}
    assert_pinned(special.pole_inventory(f), pinned)
    # constants (factors of slope 0) add no pole, whatever their kind and power
    constants = (
        special.Factor("gamma", 0.1 + 0.2j, 0, (tau, sigma)),
        special.Factor("gamma", -0.3 + 0.1j, 0, (tau, sigma), -1),
        special.Factor("theta0", 0.2, 0, (tau,), -2),
        special.Factor("jacobi", 0.1j, 0, (sigma,), -1),
        special.Factor("qpoch", tau, 0, (tau,), -3),
    )
    extended = dataclasses.replace(f, factors=f.factors + constants)
    assert special.pole_inventory(extended) == special.pole_inventory(f)


def test_fv_u_real_eta_shells_carry_sides(monkeypatch):
    tau, sigma = 0.1 + 0.7j, 0.2 + 0.08j
    f, _ = declared(monkeypatch, special.fv_u, 0.5, 0.5, tau, sigma, 0.125)
    # above -2 eta and below 2 eta, below the upper shells, above the lower
    expected = {-0.25: "above", 0.25: "below"}
    for m in (tau, sigma):
        expected.update({-0.25 - m: "above", 0.25 + m: "below", 0.25 - m: "above"})
    assert_pinned(special.pole_inventory(f), expected)
    with pytest.raises(special.DomainViolation):
        special.fv_u(0.5, 0.5, tau, sigma, 0.1)


def test_spiridonov_lhs_reaches_tight_tolerance(monkeypatch):
    # a target near the roundoff floor converges before its clearance's
    # prediction turns into MissedPole
    params = catalog.sample_params("spiridonov", 0, 0)
    s, tau, sigma = params["s"], params["tau"], params["sigma"]
    f, path = declared(monkeypatch, special.spiridonov_lhs, s, tau, sigma)
    lhs = contour.integrate(f, path, audit_clearance(f, path), tol=1e-13).value
    assert close(lhs, special.spiridonov_rhs(s, tau, sigma), 1e-12)


def test_factors_call_the_kernel_through_the_module_names(monkeypatch):
    # a tracer wraps the kernel by rebinding the names special imported; the
    # spiridonov integrand has 14 gamma factors on one moduli pair, all of
    # which it must see at every node (their arguments stacked into one call
    # per batch of nodes)
    params = catalog.sample_params("spiridonov", 0, 0)
    nodes = []
    ell_gamma = special.ell_gamma

    def counting(z, *moduli):
        nodes.extend(np.ravel(z))
        return ell_gamma(z, *moduli)

    monkeypatch.setattr(special, "ell_gamma", counting)
    runs = record_quadratures(monkeypatch)
    special.spiridonov_lhs(params["s"], params["tau"], params["sigma"])
    ((_, _, result),) = runs
    assert result.evaluations > 0
    assert len(nodes) == 14 * result.evaluations


@pytest.fixture(scope="module")
def declarations():
    """``{check id: [(integrand, path), ...]}`` of every quadrature each
    integrating check runs at its seed-0 draw."""
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        runs = record_quadratures(mp)
        for cid in catalog.identity_ids():
            if catalog.get_entry(cid).kind == "numeric":
                runs.clear()
                catalog.run_check(cid, seed=0, sample_index=0)
                if runs:
                    found[cid] = [(f, path) for f, path, _ in runs]
    return found


def _nodes(path, n=64):
    return path.point(np.arange(n) / n)


def _per_factor(f, t):
    value = complex(f.scale) * (np.exp(2j * np.pi * f.wind * t) if f.wind else 1)
    for factor in f.factors:
        value = value * factor(t)
    if f.terms:
        value = value * sum(s * np.prod([x(t) for x in fs], axis=0) for s, fs in f.terms)
    return value


def test_grouped_integrand_matches_the_per_factor_product(declarations):
    factors = [x for runs in declarations.values() for f, _ in runs for x in f.factors]
    # the declarations cover reciprocal and squared factors, slopes +-2 and
    # jacobi thetas
    assert {x.power for x in factors} >= {-1, 1, 2}
    assert {x.slope for x in factors} >= {-2, -1, 1, 2}
    assert {x.kind for x in factors} == {"gamma", "theta0", "jacobi"}
    for cid, runs in declarations.items():
        for f, path in runs:
            t = _nodes(path)
            got, want = f(t), _per_factor(f, t)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), cid


def test_one_kernel_call_per_group_and_batch(monkeypatch, declarations):
    calls = []
    for name in ("ell_gamma", "theta0", "jacobi_theta"):
        def counting(z, *moduli, name=name, kernel=getattr(special, name)):
            calls.append((name, moduli))
            return kernel(z, *moduli)

        monkeypatch.setattr(special, name, counting)
    names = {"gamma": "ell_gamma", "theta0": "theta0", "jacobi": "jacobi_theta"}
    for cid, runs in declarations.items():
        for f, path in runs:
            factors = f.factors + sum((fs for _, fs in f.terms), ())
            groups = {(names[x.kind], x.moduli) for x in factors}
            calls.clear()
            f(_nodes(path))
            assert len(calls) == len(groups) and set(calls) == groups, cid
    # a spiridonov batch stacks its 14 gamma factors in one call, at 64 nodes
    # and at the 1,024 of the largest batch a clearance of CLEARANCE allows
    ((spiridonov, path),) = declarations["spiridonov"]
    assert len(spiridonov.factors) == 14
    for n in (64, 1024):
        calls.clear()
        spiridonov(_nodes(path, n))
        assert len(calls) == 1, n


@pytest.fixture(scope="module")
def closed_forms():
    """``{(kind, power) of each factor, and of each term's factors:
    [(declaration, value), ...]}`` of every closed form (a declaration of
    slope-0 factors) that the numeric checks evaluate at their seed-0 draws
    0-19, each at one draw.  Integrals, tower corrections included, read 1,
    so that only closed forms are evaluated."""
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        for module in (special, lemmas):
            mp.setattr(module, "audited_integral", lambda f, pair=None: 1)
        call = special.Integrand.__call__

        def recording(self, t):
            value = call(self, t)
            if not any(f.slope for f in _all_factors(self)):
                signature = tuple((f.kind, f.power) for f in self.factors), tuple(
                    tuple((f.kind, f.power) for f in fs) for _, fs in self.terms
                )
                found.setdefault(signature, []).append((self, value))
            return value

        mp.setattr(special.Integrand, "__call__", recording)
        for cid in catalog.identity_ids("numeric"):
            entry = catalog.get_entry(cid)
            for index in range(20):
                params = catalog.sample_params(cid, 0, index)
                entry.lhs(params)
                entry.rhs(params)
    return found


def _all_factors(declaration):
    return declaration.factors + sum((fs for _, fs in declaration.terms), ())


def _stacked(declarations):
    """One declaration whose shifts, moduli and scales, its terms' too, hold
    those of ``declarations`` (of one signature), one entry per declaration."""
    def column(values):
        return np.array(list(values), complex)

    def stacked(lists):
        factors = []
        for i, factor in enumerate(lists[0]):
            shifts = column(fs[i].shift for fs in lists)
            moduli = tuple(map(column, zip(*(fs[i].moduli for fs in lists))))
            factors.append(special.Factor(factor.kind, shifts, 0, moduli, factor.power))
        return tuple(factors)

    terms = tuple(
        (column(s for s, _ in term), stacked([fs for _, fs in term]))
        for term in zip(*(d.terms for d in declarations))
    )
    factors = stacked([d.factors for d in declarations])
    return special.Integrand(factors, column(d.scale for d in declarations), terms=terms)


def _on_a_zero(declaration):
    """Whether a theta factor of ``declaration`` sits on a zero of its own,
    ``Z + tau Z``, where any value is roundoff."""
    for factor in declaration.factors:
        if factor.kind in ("theta0", "jacobi") and factor.power > 0:
            z, (tau,) = complex(factor.shift), (complex(m) for m in factor.moduli)
            rest = z - round(z.imag / tau.imag) * tau
            if abs(rest - round(rest.real)) < 1e-9:
                return True
    return False


def test_every_closed_form_is_the_same_on_scalars_and_on_a_batch(monkeypatch, closed_forms):
    # the closed forms of special, lemmas and catalog: the quarter-shift,
    # eval3, ellmac and spiridonov values, the half-period blocks (of Q's
    # factor kinds and powers), the ellmac denominator, the pointwise sides
    # and the modular lambdas
    assert len(closed_forms) >= 20
    calls = []
    for name in ("ell_gamma", "theta0", "jacobi_theta", "qpoch1_add"):
        def counting(z, *moduli, name=name, kernel=getattr(special, name)):
            calls.append((name, np.shape(z), *map(np.shape, moduli)))
            return kernel(z, *moduli)

        monkeypatch.setattr(special, name, counting)
    for signature, records in closed_forms.items():
        assert len(records) >= 20, signature
        declarations, values = zip(*records[:20])
        batch = _stacked(declarations)
        factors = _all_factors(batch)
        # one modulus per draw
        assert all(len(set(m)) > 1 for f in factors for m in f.moduli), signature
        calls.clear()
        got = batch(0)
        assert got.shape == (20,)
        # one kernel call per (function, moduli) group, terms included: the
        # group's arguments stacked as one row per factor, a lone factor's
        # as the draws' 1-D array, against the draws' 1-D moduli
        kinds = {"gamma": "ell_gamma", "theta0": "theta0", "jacobi": "jacobi_theta"}
        groups = {}
        for f in factors:
            key = (kinds.get(f.kind, "qpoch1_add"), *(m.tobytes() for m in f.moduli))
            groups.setdefault(key, []).append(f)
        want = [
            (key[0], (len(fs), 20) if len(fs) > 1 else (20,), *[(20,)] * len(fs[0].moduli))
            for key, fs in groups.items()
        ]
        assert calls == want, signature
        calls.clear()
        # the grouped value is the product of each factor's own batch values,
        # times the sum over the terms of the products of theirs
        def alone(fs):
            return np.prod([special.Integrand((f,))(0) for f in fs], axis=0)

        want = batch.scale * alone(batch.factors)
        if batch.terms:
            want = want * sum(s * alone(fs) for s, fs in batch.terms)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), signature
        # and each draw's scalar value, to the agreement of the kernel's scalar
        # and array paths: they differ by up to 1.1e-14 for a theta0 far
        # outside its strip (eval3's theta0(-4 eta; tau) at 8e-39)
        want = np.array(values)
        # a draw on a theta zero counts where its scalar value is an exact 0,
        # as eval_conj_rhs's at (mu, k) = (2, 0): its batch value must be one too
        live = [not _on_a_zero(d) or v == 0 for d, v in zip(declarations, values)]
        assert sum(live) >= 18, signature
        assert np.all((np.abs(got - want) <= 1e-13 * np.abs(want))[live]), signature


def test_deleting_the_nearest_poles_raises_missed_pole(monkeypatch):
    # lemma.int-rearrange at seed 0, draw 13, integrates over the straight
    # period; its nearest poles, a mirror pair 0.028 off the axis, are 12x
    # nearer than the next.  Without them the audit predicts 32 nodes, but
    # the integrand still needs 512
    cid, seed, index = "lemma.int-rearrange", 0, 13
    assert catalog.run_check(cid, seed=seed, sample_index=index).passed
    inventory = special.pole_inventory
    deleted = []

    def without_nearest(f):
        specs = inventory(f)
        nearest = min(abs(spec.location.imag) for spec in specs) * (1 + 1e-9)
        deleted.extend(spec for spec in specs if abs(spec.location.imag) <= nearest)
        return [spec for spec in specs if abs(spec.location.imag) > nearest]

    monkeypatch.setattr(special, "pole_inventory", without_nearest)
    with pytest.raises(contour.MissedPole):
        catalog.run_check(cid, seed=seed, sample_index=index)
    (p, q) = deleted
    assert abs(p.location + q.location) < 1e-12


INTEGRATING = [
    cid
    for cid in catalog.identity_ids("numeric")
    if not catalog.entry_of_kind(cid, "numeric").array_sides
]
#: the tolerance :func:`special.audited_integral` integrates to, the default
QUADRATURE_TOL = inspect.signature(contour.integrate).parameters["tol"].default


@pytest.mark.parametrize("cid", INTEGRATING)
def test_every_quadrature_meets_its_tolerance_and_its_estimate(monkeypatch, cid):
    # each value a quadrature returns, against the trapezoid sum on 4 times
    # its final nodes: within a tenth of its tolerance, and within 10 times
    # its reported error unless under 1e-13, the floor of a relative error
    runs = record_quadratures(monkeypatch)
    for index in range(3):
        catalog.run_check(cid, seed=0, sample_index=index)
    assert runs
    for f, path, result in runs:
        t = np.arange(4 * result.evaluations) / (4 * result.evaluations)
        reference = complex(np.mean(f(path.point(t)) * path.velocity(t)))
        scale = max(1.0, abs(result.value))
        true_error = abs(result.value - reference) / scale
        assert true_error <= QUADRATURE_TOL / 10, (cid, result)
        assert true_error <= max(10 * result.error / scale, 1e-13), (cid, result)


#: the checks whose cycle passes between poles on the real axis
QUARTER = ["eval1", "eval2", "fv-val1", "fv-val2", "mod-minus", "mod-plus"]


@pytest.mark.parametrize("cid", INTEGRATING)
def test_the_audit_picks_the_quarter_path_or_the_straight_period(monkeypatch, cid):
    # the quarter-shift cycle of each draw of these checks, eval1's, eval2's
    # or fv_u's at real eta (its leading gamma has a real shift), runs on
    # Path(min(0.1, Im m / 2), x0) for the shallower modulus m of its own
    # gamma factors, above x0, minus that shift (-1/4 for eval1, 1/4 for
    # eval2, -2 eta for fv_u); every other cycle is the straight period
    assert set(QUARTER) <= set(INTEGRATING)
    runs = record_quadratures(monkeypatch)
    for index in range(3):
        catalog.run_check(cid, seed=0, sample_index=index)
    assert runs
    for f, path, _ in runs:
        expected = contour.Path()
        if cid in QUARTER and complex(f.factors[0].shift).imag == 0:
            gamma = f.factors[0]
            depth = min(complex(m).imag for m in gamma.moduli)
            expected = contour.Path(min(0.1, 0.5 * depth), -complex(gamma.shift).real)
        assert path == expected, (cid, path)
    assert sum(path.c != 0 for _, path, _ in runs) == (3 if cid in QUARTER else 0)


def test_axis_poles_no_path_separates_are_refused(monkeypatch):
    # both axis poles want the path above them; the path passes above the
    # first, at x0 = -1/4, so it runs below the second, and the audit names it
    inventory = [contour.PoleSpec(-0.25, "above"), contour.PoleSpec(0.25, "above")]
    monkeypatch.setattr(special, "pole_inventory", lambda f: inventory)
    with pytest.raises(PoleOnPath) as excinfo:
        special.audited_integral(lambda z: np.ones_like(z))
    message = str(excinfo.value)
    assert "Path(c=0.1, x0=-0.25) rejected 1 pole(s)" in message
    assert "pole=(0.25+0j)" in message and "path_side='below'" in message


# ---------------------------------------------------------------------------
# tower corrections derived from gamma-pair forms

# values computed with the hand-derived residue corrections that the
# gamma-pair forms replaced; they are the only record of those forms' results
PINNED_VALUES = [
    (special.I_tilde, (0.13 - 0.07j, 0.1 + 0.3j, 0.05 + 0.35j),
     -0.012955599298118252 - 0.04088863053755262j),
    (special.I_tilde, (-0.21 + 0.05j, -0.15 + 0.55j, 0.08 + 0.31j),
     16.309065479735978 + 33.06175274075672j),
    (special.I_tilde, (0.3 + 0.1j, 0.2 + 0.7j, -0.1 + 0.25j),
     57.804574252574234 + 42.11048442067055j),
    (special.fv_u, (0.3, 0.2, 0.1 + 0.7j, 0.2 + 0.8j, 0.05 - 0.3j),
     0.00020899615812786313 - 0.0006887630400272898j),
    (special.fv_u, (0.2 + 0.1j, -0.3 + 0.05j, -0.2 + 0.9j, 0.15 + 0.5j, -0.04 - 0.1j),
     0.7281777866972374 + 0.048778343047189476j),
    (special.fv_u, (0.1 - 0.05j, 0.16 - 0.32j, 0.05 + 0.7j, -0.16 + 0.64j, 0.02 - 0.08j),
     0.6677562300123251 - 0.17103388679719503j),
    (special.htf_I_tilde, (2, 4, 0.1 + 0.05j, 0.05 + 0.7j, 0.02 - 0.08j),
     0.2482260500606862 + 0.03701148487269844j),
    (special.htf_I_tilde, (1, 5, -0.2 - 0.1j, -0.1 + 0.5j, -0.03 - 0.1j),
     0.4863709886697126 - 0.1256466628176954j),
    (special.htf_I_tilde, (0, 4, 0.15, 0.1 + 0.9j, 0.05 - 0.3j),
     0.005030838345874641 + 0.0018464978025074415j),
]


@pytest.mark.parametrize("evaluator, args, expected", PINNED_VALUES)
def test_tower_corrected_integrals_keep_pinned_values(evaluator, args, expected):
    value = evaluator(*args)
    assert abs(value - expected) <= 1e-12 * abs(expected)


def _reduced(t):
    return complex(t.real - np.floor(t.real + 0.5), t.imag)


def _crossed_members(a, moduli):
    """Members of the tower of gamma(a + t) above the axis and of the tower of
    gamma(a - t) below it, as the pole inventory of each factor lists them."""
    members = []
    for slope, wrong in ((1, lambda t: t.imag > 0), (-1, lambda t: t.imag < 0)):
        factor = special.Factor("gamma", a, slope, moduli)
        inventory = special.pole_inventory(special.Integrand((factor,)))
        members += [spec.location for spec in inventory if wrong(spec.location)]
    return members


def _record_tower_walk(monkeypatch):
    """Lists of the residues a tower correction takes and of the integrands it
    evaluates at a single point, with that point."""
    residues, points = [], []
    residue = special.ell_gamma_residue
    call = special.Integrand.__call__

    def recording_residue(tau, sigma, k=0):
        residues.append((tau, sigma, k))
        return residue(tau, sigma, k)

    def recording_call(self, t):
        # a closed form (every slope 0) is a scale, such as fv_u's, not a walk point
        if not isinstance(t, np.ndarray) and any(f.slope for f in _all_factors(self)):
            points.append((self, complex(t)))
        return call(self, t)

    monkeypatch.setattr(special, "ell_gamma_residue", recording_residue)
    monkeypatch.setattr(special.Integrand, "__call__", recording_call)
    return residues, points


# (evaluator, arguments, a, moduli) of the pair gamma(a +- t; *moduli); every
# draw crosses at least one member of each tower, I_tilde's three.  I_sym
# walks the towers once for both signs of lam, its two terms
TOWER_CASES = {
    "I_tilde": (special.I_tilde, (0.13 - 0.07j, 0.1 + 0.3j, 0.05 + 0.35j),
                -0.1 - 0.7j, (0.1 + 0.3j, 0.4 + 2.8j)),
    "I_sym": (special.I_sym, (0.13 - 0.07j, 0.1 + 0.3j, 0.05 + 0.35j),
              -0.1 - 0.7j, (0.1 + 0.3j, 0.4 + 2.8j)),
    "fv_u": (special.fv_u, (0.3, 0.2, 0.1 + 0.7j, 0.2 + 0.8j, 0.05 - 0.3j),
             0.1 - 0.6j, (0.1 + 0.7j, 0.2 + 0.8j)),
    "htf_I_tilde": (special.htf_I_tilde, (2, 4, 0.1 + 0.05j, 0.05 + 0.7j, 0.02 - 0.08j),
                    0.04 - 0.16j, (0.05 + 0.7j, -0.16 + 0.64j)),
    "int_eval1_lhs": (lemmas.int_eval1_lhs, (0.1 + 0.4j, 0.03 + 0.33j),
                      -0.06 - 0.66j, (0.1 + 0.4j, 0.24 + 2.64j)),
    "int_eval2_lhs": (lemmas.int_eval2_lhs, (-0.12 + 0.62j, -0.05 + 0.36j),
                      0.1 - 0.72j, (-0.12 + 0.62j, -0.4 + 2.88j)),
    "int_rearrange_rhs": (lemmas.int_rearrange_rhs, (0.2 - 0.1j, 0.05 + 0.45j, 0.02 + 0.27j),
                          -0.04 - 0.54j, (0.05 + 0.45j, 0.16 + 2.16j)),
}


@pytest.mark.parametrize("case", TOWER_CASES)
def test_tower_correction_sums_exactly_the_crossed_members(monkeypatch, case):
    evaluator, args, a, moduli = TOWER_CASES[case]
    runs = record_quadratures(monkeypatch)
    residues, points = _record_tower_walk(monkeypatch)
    evaluator(*args)
    ((integrated, _, _),) = runs

    expected = _crossed_members(a, moduli)
    walked = [_reduced(t) for _, t in points]
    assert expected and len(walked) == len(expected)
    for t in walked:
        assert sum(abs(t - p) < 1e-12 for p in expected) == 1, (t, expected)
    # one residue per crossed member of each tower, walked down from k = 0
    assert [k for *_, k in residues] == list(range(len(expected) // 2))
    for tau, sigma, _ in residues:
        assert close(tau, moduli[0]) and close(sigma, moduli[1])
    # the walk's entire part completes the pair to the integrand that was
    # integrated
    (rest,) = {id(f): f for f, _ in points}.values()
    pair = special.Integrand(
        (special.Factor("gamma", a, 1, moduli), special.Factor("gamma", a, -1, moduli))
    )
    for t in (0.13 + 0.05j, -0.31 - 0.02j):
        assert close(pair(t) * rest(t), integrated(t), 1e-11)
