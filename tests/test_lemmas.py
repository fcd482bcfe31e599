"""Lemma tests: the nine supporting identities over seeded draws, plus the
exact symmetry structure of the building-block factors (which pins down sign
and phase conventions independently of the full identities)."""

import numpy as np
import pytest

from ellverify import catalog, contour, kernel, lemmas, special
from helpers import REFERENCE_LEMMA_SIDES, audit_clearance, record_quadratures


def close(a, b, tol=1e-12):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


LEMMA_IDS = tuple(i for i in catalog.identity_ids() if i.startswith("lemma."))


def test_nine_lemmas_registered():
    assert len(LEMMA_IDS) == 9


@pytest.mark.parametrize("identity_id", LEMMA_IDS)
@pytest.mark.parametrize("index", [0, 1, 2])
def test_lemma_draws(identity_id, index):
    res = catalog.run_check(identity_id, seed=23, sample_index=index)
    assert res.passed, f"{identity_id}[{index}]: abs_error={res.abs_error:.3e}"


@pytest.mark.parametrize("identity_id, side", sorted(REFERENCE_LEMMA_SIDES))
def test_term_declarations_match_the_sums_of_products(identity_id, side):
    # a side declared as one product with terms is the Python sum of its
    # terms' products, on each draw alone and on a batch of draws, at seed 0
    evaluate = getattr(catalog.get_entry(identity_id), side)
    reference = REFERENCE_LEMMA_SIDES[identity_id, side]
    for index in range(50):
        params = catalog.sample_params(identity_id, 0, index)
        got, want = evaluate(params), reference(**params)
        assert abs(got - want) <= 1e-14 * abs(want), index
    params = catalog.run_batch(identity_id, 0, range(50)).parameters
    got, want = evaluate(params), reference(**params)
    assert got.shape == (50,)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# ---------------------------------------------------------------------------
# factor-level structure


def test_j1_factor_is_even():
    tau, eta = -0.1 + 0.5j, 0.06 + 0.31j
    j1 = special.Integrand(special.j1_factors(tau, eta))
    for t in (0.17 + 0.02j, -0.3 + 0.11j):
        assert close(j1(-t), j1(t))


def test_theta_simp_sides_flip_together():
    # both sides are antisymmetric under (t, lam) -> (-t, -lam)
    t, lam, tau = 0.21 + 0.04j, 0.13 - 0.06j, 0.1 + 0.62j
    assert close(
        lemmas.theta_simp_lhs(-t, -lam, tau), -lemmas.theta_simp_lhs(t, lam, tau)
    )
    assert close(
        lemmas.theta_simp_rhs(-t, -lam, tau), -lemmas.theta_simp_rhs(t, lam, tau)
    )


def test_full_sym_sides_flip_in_lam():
    t, lam, tau = 0.15 - 0.03j, 0.22 + 0.05j, -0.2 + 0.58j
    assert close(
        lemmas.full_sym_lhs(t, -lam, tau), -lemmas.full_sym_lhs(t, lam, tau)
    )
    assert close(
        lemmas.full_sym_rhs(t, -lam, tau), -lemmas.full_sym_rhs(t, lam, tau)
    )


def test_full_sym_lhs_is_even_in_t():
    t, lam, tau = 0.15 - 0.03j, 0.22 + 0.05j, -0.2 + 0.58j
    assert close(lemmas.full_sym_lhs(-t, lam, tau), lemmas.full_sym_lhs(t, lam, tau))


def test_theta_simp2_special_points():
    sigma = 0.05 + 0.71j
    # z = 0: the identity reduces to the quarter-period reflection of theta0
    assert close(lemmas.theta_simp2_lhs(0.0, sigma), lemmas.theta_simp2_rhs(0.0, sigma))
    # half period: the exponential prefactor becomes -1
    assert close(lemmas.theta_simp2_lhs(0.5, sigma), lemmas.theta_simp2_rhs(0.5, sigma))


# ---------------------------------------------------------------------------
# integral lemmas keep their closed forms under a tighter quadrature target


def test_int_eval_consistency_tight(monkeypatch):
    params = catalog.sample_params("lemma.int-eval1", 41, 0)
    tau, eta = params["tau"], params["eta"]
    runs = record_quadratures(monkeypatch)
    lemmas.int_eval1_lhs(tau, eta)
    ((f, path, _),) = runs
    # the declared integrand at a tighter target, plus the tower correction
    # derived from the same gamma-pair declaration
    lhs = contour.integrate(f, path, audit_clearance(f, path), tol=1e-12).value
    lhs += special.gamma_pair_tower_correction(f)
    assert close(lhs, lemmas.int_eval1_rhs(tau, eta), 1e-10)


# ---------------------------------------------------------------------------
# every product of kernel values is a declaration


def test_lemmas_and_catalog_bind_no_kernel_product():
    # a product written out by hand would bypass the declarations that
    # special evaluates (and that mutants and error bounds are derived from);
    # the phases e2pi and epi are not products
    products = [kernel.ell_gamma, kernel.theta0, kernel.jacobi_theta, kernel.qpoch1_add]
    for module in (lemmas, catalog):
        bound = [
            name
            for name, value in vars(module).items()
            if value is kernel or any(value is f for f in products)
        ]
        assert not bound, (module.__name__, bound)
