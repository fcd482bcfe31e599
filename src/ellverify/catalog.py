"""Registry of every check, numeric and exact.

Each entry has a stable string ID and a kind.  A ``numeric`` entry pairs an
LHS and RHS evaluator with a seeded domain sampler and a declared tolerance;
a ``series`` entry names a runner from :mod:`.conjectures` and its default
expansion order.  ``identity_ids()`` is the machine-readable manifest.  The
integral evaluators in :mod:`.special` and :mod:`.lemmas` audit their own
paths before every quadrature and raise :class:`PoleOnPath` on a rejected
path; :func:`run_check` reports the largest error those quadratures
achieved.

Sampling is reproducible by construction: the random stream for a check is
keyed by ``(seed, fnv1a64(identity_id), sample_index)``, so adding or
reordering catalog entries never shifts another identity's draws.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

from . import conjectures, lemmas, special
from .contour import PoleOnPath, achieved_errors
from .kernel import ell_gamma, ell_gamma_modular_Q, jacobi_theta
from .numerics import STANDARD

__all__ = [
    "IdentityEntry",
    "IdentityResult",
    "UnknownIdentity",
    "PoleOnPath",
    "identity_ids",
    "get_entry",
    "entry_of_kind",
    "sample_params",
    "run_check",
    "DEFAULT_TOLERANCE",
    "COMPOUND_TOLERANCE",
]

#: single-quadrature identities
DEFAULT_TOLERANCE = 1e-8
#: identities composing three or more quadratures
COMPOUND_TOLERANCE = 1e-6

#: decision rule recorded in every result (scale guards near-zero values)
DECISION_RULE = "abs_error <= tolerance * max(1, |rhs|)"


class UnknownIdentity(KeyError):
    """Requested identity ID is not registered."""


@dataclasses.dataclass(frozen=True)
class IdentityEntry:
    """One registered check.

    A ``numeric`` entry compares ``lhs`` and ``rhs`` at points drawn by
    ``sampler``.  A ``series`` entry has ``runner``, which maps an order to a
    list of case dicts with an ``exact`` flag, and ``default_order``; its
    ``tolerance`` and ``default_samples`` are ``None``.
    """

    id: str
    #: behavioral description, shown by the manifest
    ref: str
    #: human-readable validity-domain summary
    domain: str
    #: "numeric" or "series"
    kind: str = "numeric"
    lhs: Optional[Callable] = None
    rhs: Optional[Callable] = None
    sampler: Optional[Callable] = None
    tolerance: Optional[float] = DEFAULT_TOLERANCE
    #: draws used by a default full-suite run
    default_samples: Optional[int] = 20
    runner: Optional[Callable[[int], list]] = None
    default_order: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class IdentityResult:
    identity_id: str
    sample_index: int
    parameters: dict
    lhs_value: complex
    rhs_value: complex
    abs_error: float
    rel_error: float
    #: largest error / max(1, |value|) among the quadratures the draw ran
    #: (None when it ran none)
    quadrature_error_estimate: Optional[float]
    tolerance: float
    decision: str
    passed: bool


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (stable across platforms/versions)."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def rng_for(seed: int, identity_id: str, sample_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, identity, sample)."""
    ss = np.random.SeedSequence((int(seed), fnv1a64(identity_id), int(sample_index)))
    return np.random.Generator(np.random.Philox(ss))


def _cx(rng, re_lo, re_hi, im_lo, im_hi) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def _lattice_distance(z, tau) -> float:
    """Distance from z to the lattice Z + Z*tau."""
    z = complex(z)
    tau = complex(tau)
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    b -= round(b)
    a -= round(a)
    return abs(a + b * tau)


def _reject(draw, accept, tries=500):
    for _ in range(tries):
        params = draw()
        if accept(params):
            return params
    raise RuntimeError("sampler failed to find an admissible point")


def _tower_clear(tau, eta, margin=1 / 48) -> bool:
    """No member of +-(2 eta - k tau) within ``margin`` of the real axis."""
    tau = complex(tau)
    eta = complex(eta)
    k = 0
    while True:
        depth = (2 * eta - k * tau).imag
        if abs(depth) < margin:
            return False
        if depth < -0.5:
            return True
        k += 1


# --------------------------------------------------------------------------
# samplers


def _sample_spiridonov(rng, index):
    tau = _cx(rng, -0.3, 0.3, 0.5, 1.2)
    sigma = _cx(rng, -0.3, 0.3, 0.5, 1.2)
    s = [_cx(rng, -0.25, 0.25, 0.10, 0.18) for _ in range(5)]
    s.append(tau + sigma - sum(s))  # balancing; Im >= 1.0 - 5*0.18 > 0.05
    return {"s": s, "tau": tau, "sigma": sigma}


def _sample_two_moduli(rng, index):
    return {
        "tau": _cx(rng, -0.3, 0.3, 0.5, 1.2),
        "sigma": _cx(rng, -0.3, 0.3, 0.5, 1.2),
    }


def _sample_eval3(rng, index):
    def draw():
        tau = _cx(rng, -0.25, 0.25, 0.2, 0.8)
        eta = _cx(rng, -0.2, 0.2, 0.2, 0.8)
        lam = _cx(rng, -0.45, 0.45, -0.25, 0.25)
        return {"lam": lam, "tau": tau, "eta": eta}

    def accept(p):
        if not _tower_clear(p["tau"], p["eta"]):
            return False
        # keep the closed form's theta zeros at a working distance
        return all(
            _lattice_distance(p["lam"] - shift, p["tau"]) > 0.04
            for shift in (0, 2 * p["eta"], -2 * p["eta"])
        )

    return _reject(draw, accept)


def _sample_ellmac_val(rng, index):
    def draw():
        eta = _cx(rng, -0.06, 0.06, -0.5, -0.1)
        depth = 2 * abs(eta.imag)
        tau = _cx(rng, -0.3, 0.3, depth + 0.15, depth + 1.0)
        lam = _cx(rng, -0.4, 0.4, -0.2, 0.2)
        lam_alt = _cx(rng, -0.4, 0.4, -0.2, 0.2)
        return {"lam": lam, "lam_alt": lam_alt, "tau": tau, "eta": eta}

    def accept(p):
        return all(
            _lattice_distance(which - shift, p["tau"]) > 0.04
            for which in (p["lam"], p["lam_alt"])
            for shift in (0, 2 * p["eta"], -2 * p["eta"])
        )

    return _reject(draw, accept)


#: (kappa, mu) pairs admissible for the evaluation identity (mu+2 != +-1 mod kappa)
ELLMAC_EVAL_COMBOS = tuple(
    (kappa, mu)
    for kappa in (4, 5, 6, 8)
    for mu in (0, 1, 2)
    if (mu + 2) % kappa not in (1 % kappa, (-1) % kappa)
)


def _sample_ellmac_eval(rng, index):
    kappa, mu = ELLMAC_EVAL_COMBOS[index % len(ELLMAC_EVAL_COMBOS)]
    eta = _cx(rng, -0.05, 0.05, -0.3, -0.08)
    return {"mu": mu, "kappa": kappa, "eta": eta}


def _sample_htf_series(rng, index):
    eta = _cx(rng, -0.04, 0.04, -0.12, -0.05)
    gap = 4 * abs(eta.imag)  # series convergence needs Im(tau + 4 eta) > 0
    tau = _cx(rng, -0.25, 0.25, gap + 0.15, gap + 0.8)
    lam = _cx(rng, -0.3, 0.3, -0.15, 0.15)
    return {"mu": 2, "kappa": 4, "lam": lam, "tau": tau, "eta": eta}


def _sample_modular(rng, index, branch):
    def draw():
        h = rng.uniform(0.10, 0.20)
        alpha = rng.uniform(0.35, 0.60)
        T = rng.uniform(0.80, 1.10)
        delta = rng.uniform(0.15, 0.30)
        beta = alpha - delta if branch == "minus" else alpha + delta
        eta = -1j * h * np.exp(1j * alpha)
        tau = 1j * T * np.exp(1j * beta)
        lam = _cx(rng, -0.3, 0.3, -0.1, 0.1)
        return {"lam": lam, "tau": complex(tau), "eta": complex(eta)}

    def accept(p):
        tau, eta, lam = p["tau"], p["eta"], p["lam"]
        tau2 = -1 / tau
        eta2 = eta / tau if branch == "minus" else -eta / tau
        for t, e in ((tau, eta), (tau2, eta2)):
            for shift in (0, 2 * e, -2 * e):
                if _lattice_distance(lam - shift, t) < 0.03:
                    return False
        return True

    return _reject(draw, accept)


def _sample_theta_mod(rng, index):
    r = rng.uniform(0.6, 1.3)
    theta = rng.uniform(0.3, 2.6)
    tau = complex(r * np.exp(1j * theta))
    z = _cx(rng, -0.4, 0.4, -0.3, 0.3)
    return {"z": z, "tau": tau}


def _sample_ellgam_mod(rng, index):
    arg_sigma = rng.uniform(0.2, 1.2)
    arg_tau = arg_sigma + rng.uniform(0.3, 1.3)
    sigma = complex(rng.uniform(0.5, 1.2) * np.exp(1j * arg_sigma))
    tau = complex(rng.uniform(0.5, 1.2) * np.exp(1j * arg_tau))
    z = _cx(rng, -0.4, 0.4, -0.4, 0.4)
    return {"z": z, "tau": tau, "sigma": sigma}


def _sample_pointwise_eta(rng, index):
    return {
        "t": _cx(rng, -0.4, 0.4, -0.25, 0.25),
        "tau": _cx(rng, -0.2, 0.2, 0.4, 0.9),
        "eta": _cx(rng, -0.1, 0.1, 0.15, 0.45),
    }


def _sample_pointwise_lam(rng, index):
    return {
        "t": _cx(rng, -0.4, 0.4, -0.25, 0.25),
        "lam": _cx(rng, -0.4, 0.4, -0.2, 0.2),
        "tau": _cx(rng, -0.2, 0.2, 0.4, 0.9),
    }


def _sample_theta_simp2(rng, index):
    return {
        "z": _cx(rng, -0.4, 0.4, -0.25, 0.25),
        "sigma": _cx(rng, -0.2, 0.2, 0.4, 1.0),
    }


def _sample_int_lemma(rng, index):
    def draw():
        return {
            "tau": _cx(rng, -0.2, 0.2, 0.35, 0.8),
            "eta": _cx(rng, -0.1, 0.1, 0.2, 0.45),
        }

    return _reject(draw, lambda p: _tower_clear(p["tau"], p["eta"]))


def _sample_int_rearrange(rng, index):
    params = _sample_int_lemma(rng, index)
    params["lam"] = _cx(rng, -0.4, 0.4, -0.2, 0.2)
    return params


def _sample_bridge_unity(rng, index):
    return {
        "q": float(rng.uniform(1.15, 1.45)),
        "lam": float(rng.uniform(0.25, 1.75)),
        "omega": float(rng.uniform(3.3, 5.5)),
    }


#: (mu, k) pairs exercised by the evaluation bridge identity
AFF_EVAL_COMBOS = ((1, 1), (2, 0), (0, 2))


def _sample_aff_eval(rng, index):
    mu, k = AFF_EVAL_COMBOS[index % len(AFF_EVAL_COMBOS)]
    return {"mu": mu, "k": k, "q": float(rng.uniform(1.25, 1.5))}


# --------------------------------------------------------------------------
# registry

_REGISTRY: dict = {}


def _register(entry: IdentityEntry):
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {entry.id!r}")
    _REGISTRY[entry.id] = entry


_register(
    IdentityEntry(
        id="spiridonov",
        ref="six-parameter balanced elliptic beta integral vs gamma-product value",
        domain="Im tau, Im sigma in [0.5, 1.2]; Im s_i > 0; sum s = tau + sigma",
        lhs=lambda p, ctx: special.spiridonov_lhs(p["s"], p["tau"], p["sigma"], ctx=ctx),
        rhs=lambda p, ctx: special.spiridonov_rhs(p["s"], p["tau"], p["sigma"], ctx=ctx),
        sampler=_sample_spiridonov,
    )
)

_register(
    IdentityEntry(
        id="eval1",
        ref="quarter-shift integral vs (1+i) gamma-ratio value",
        domain="Im tau, Im sigma in [0.5, 1.2]; path above -1/4, below +1/4",
        lhs=lambda p, ctx: special.eval1_lhs(p["tau"], p["sigma"], ctx=ctx),
        rhs=lambda p, ctx: special.eval1_rhs(p["tau"], p["sigma"], ctx=ctx),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="eval2",
        ref="mirrored quarter-shift integral vs (1-i) gamma-ratio value",
        domain="Im tau, Im sigma in [0.5, 1.2]; path above +1/4, below -1/4",
        lhs=lambda p, ctx: special.eval2_lhs(p["tau"], p["sigma"], ctx=ctx),
        rhs=lambda p, ctx: special.eval2_rhs(p["tau"], p["sigma"], ctx=ctx),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="eval3",
        ref="antisymmetrized one-sided integral vs triple-theta closed form",
        domain="Im tau, Im eta in [0.2, 0.8]; gamma towers clear of the path",
        lhs=lambda p, ctx: special.I_sym(p["lam"], p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: special.eval3_rhs(p["lam"], p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_eval3,
        default_samples=30,
    )
)

_register(
    IdentityEntry(
        id="fv-val1",
        ref="half-integral weight value of u at the lower quarter point",
        domain="Im tau, Im sigma in [0.5, 1.2]; eta = -1/8, path above +1/4, below -1/4",
        lhs=lambda p, ctx: special.fv_u(0.5, 0.5, p["tau"], p["sigma"], -0.125, ctx=ctx),
        rhs=lambda p, ctx: special.fv_val1_rhs(p["tau"], p["sigma"], ctx=ctx),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="fv-val2",
        ref="half-integral weight value of u at the upper quarter point",
        domain="Im tau, Im sigma in [0.5, 1.2]; eta = +1/8, path above -1/4, below +1/4",
        lhs=lambda p, ctx: special.fv_u(0.5, 0.5, p["tau"], p["sigma"], 0.125, ctx=ctx),
        rhs=lambda p, ctx: special.fv_val2_rhs(p["tau"], p["sigma"], ctx=ctx),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="ellmac-val",
        ref="constant-term normalization: kappa=4 polynomial vs closed form",
        domain="Im eta in [-0.5, -0.1]; Im tau > 2|Im eta|; lam off theta zeros",
        lhs=lambda p, ctx: special.ellmac_P(0, 4, p["lam"], p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: special.ellmac_val_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_ellmac_val,
        default_samples=10,
    )
)

_register(
    IdentityEntry(
        id="ellmac-eval",
        ref="principal evaluation of the polynomial at the distinguished point",
        domain="kappa in {4,5,6,8}, mu in {0,1,2} with mu+2 != +-1 mod kappa; Im eta < 0",
        lhs=lambda p, ctx: special.ellmac_P(
            p["mu"], p["kappa"], 4 * p["eta"], -8 * p["eta"], p["eta"], ctx=ctx
        ),
        rhs=lambda p, ctx: special.ellmac_eval_rhs(p["mu"], p["kappa"], p["eta"], ctx=ctx),
        sampler=_sample_ellmac_eval,
        default_samples=len(ELLMAC_EVAL_COMBOS),
    )
)

_register(
    IdentityEntry(
        id="htf-series",
        ref="hypergeometric theta integral vs its defining weighted series",
        domain="mu=2, kappa=4; Im eta < 0; Im(tau + 4 eta) > 0",
        lhs=lambda p, ctx: special.delta_tilde(
            p["mu"], p["kappa"], p["lam"], p["tau"], p["eta"], ctx=ctx
        ),
        rhs=lambda p, ctx: special.delta_tilde_series(
            p["mu"], p["kappa"], p["lam"], p["tau"], p["eta"], ctx=ctx
        ),
        sampler=_sample_htf_series,
        tolerance=COMPOUND_TOLERANCE,
        default_samples=5,
    )
)


def _mod_lhs(branch):
    def lhs(p, ctx):
        lam, tau, eta = p["lam"], p["tau"], p["eta"]
        first = special.ellmac_P(0, 4, lam, tau, eta, ctx=ctx)
        if branch == "minus":
            scale = special.s_minus(tau, eta, ctx=ctx)
            second = special.ellmac_P(0, 4, lam, -1 / tau, eta / tau, ctx=ctx)
        else:
            scale = special.s_plus(tau, eta, ctx=ctx)
            second = special.ellmac_P(0, 4, lam, -1 / tau, -eta / tau, ctx=ctx)
        return first * scale / second

    return lhs


_register(
    IdentityEntry(
        id="mod-minus",
        ref="three-term modular relation, first branch, vs exponential constant",
        domain="eta = -i h e^{i a}, tau = i T e^{i b} with b < a",
        lhs=_mod_lhs("minus"),
        rhs=lambda p, ctx: special.mod_minus_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=lambda rng, index: _sample_modular(rng, index, "minus"),
        tolerance=COMPOUND_TOLERANCE,
        default_samples=5,
    )
)

_register(
    IdentityEntry(
        id="mod-plus",
        ref="three-term modular relation, second branch, vs exponential constant",
        domain="eta = -i h e^{i a}, tau = i T e^{i b} with b > a",
        lhs=_mod_lhs("plus"),
        rhs=lambda p, ctx: special.mod_plus_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=lambda rng, index: _sample_modular(rng, index, "plus"),
        tolerance=COMPOUND_TOLERANCE,
        default_samples=5,
    )
)

_register(
    IdentityEntry(
        id="theta-mod",
        ref="half-period theta under the inversion of its modulus",
        domain="tau = r e^{i theta}, theta in [0.3, 2.6]; z generic",
        lhs=lambda p, ctx: jacobi_theta(p["z"] / p["tau"], -1 / p["tau"], ctx=ctx),
        rhs=lambda p, ctx: (
            -1j
            * ctx.sqrt(-1j * p["tau"])
            * ctx.epi(p["z"] ** 2 / p["tau"])
            * jacobi_theta(p["z"], p["tau"], ctx=ctx)
        ),
        sampler=_sample_theta_mod,
    )
)

_register(
    IdentityEntry(
        id="ellgam-mod",
        ref="three-term modular relation of the double-periodic gamma",
        domain="arg sigma in [0.2, 1.2]; arg tau exceeds it by [0.3, 1.3]",
        lhs=lambda p, ctx: ell_gamma(
            p["z"] / p["sigma"], p["tau"] / p["sigma"], -1 / p["sigma"], ctx=ctx
        ),
        rhs=lambda p, ctx: (
            ctx.epi(ell_gamma_modular_Q(p["z"], p["tau"], p["sigma"], ctx=ctx))
            * ell_gamma(
                (p["z"] - p["sigma"]) / p["tau"], -1 / p["tau"], -p["sigma"] / p["tau"], ctx=ctx
            )
            * ell_gamma(p["z"], p["tau"], p["sigma"], ctx=ctx)
        ),
        sampler=_sample_ellgam_mod,
    )
)

# ---- supporting lemma identities ----

_register(
    IdentityEntry(
        id="lemma.sym-rearrange",
        ref="pointwise gamma-ratio rearrangement into the two-gamma form",
        domain="generic t; Im tau in [0.4, 0.9]; Im eta in [0.15, 0.45]",
        lhs=lambda p, ctx: lemmas.sym_rearrange_lhs(p["t"], p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.sym_rearrange_rhs(p["t"], p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_pointwise_eta,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-rearrange",
        ref="one-sided integral equals the rearranged two-gamma integral",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p, ctx: lemmas.int_rearrange_lhs(p["lam"], p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.int_rearrange_rhs(p["lam"], p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_int_rearrange,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp",
        ref="three-theta product collapse at doubled modulus",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p, ctx: lemmas.theta_simp_lhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.theta_simp_rhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.full-sym",
        ref="symmetrized integrand combination in fully expanded form",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p, ctx: lemmas.full_sym_lhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.full_sym_rhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp2",
        ref="quadratic theta relation at quadrupled modulus",
        domain="generic z; Im sigma in [0.4, 1.0]",
        lhs=lambda p, ctx: lemmas.theta_simp2_lhs(p["z"], p["sigma"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.theta_simp2_rhs(p["z"], p["sigma"], ctx=ctx),
        sampler=_sample_theta_simp2,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp3",
        ref="level-eight theta splitting into doubled-modulus factors",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p, ctx: lemmas.theta_simp3_lhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.theta_simp3_rhs(p["t"], p["lam"], p["tau"], ctx=ctx),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp4",
        ref="gamma-product value rewritten through shifted Pochhammer blocks",
        domain="Im tau in [0.4, 0.9]; Im eta in [0.15, 0.45]",
        lhs=lambda p, ctx: lemmas.theta_simp4_lhs(p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.theta_simp4_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_pointwise_eta,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-eval1",
        ref="first beta-frame integral vs its fourteen-gamma product",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p, ctx: lemmas.int_eval1_lhs(p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.int_eval1_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_int_lemma,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-eval2",
        ref="second beta-frame integral vs its twelve-gamma product",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p, ctx: lemmas.int_eval2_lhs(p["tau"], p["eta"], ctx=ctx),
        rhs=lambda p, ctx: lemmas.int_eval2_rhs(p["tau"], p["eta"], ctx=ctx),
        sampler=_sample_int_lemma,
    )
)

# ---- bridge identities (evaluators provided by the bridge module) ----


def _bridge_unity_lhs(p, ctx):
    from . import bridge

    return bridge.J_mu_k2(0, 0, p["q"], p["lam"], p["omega"], ctx=ctx)


def _aff_eval_lhs(p, ctx):
    from . import bridge

    return bridge.J_mu_k2(p["mu"], p["k"], p["q"], 2.0, 4.0, ctx=ctx)


def _aff_eval_rhs(p, ctx):
    from . import bridge

    return bridge.eval_conj_rhs(p["mu"], p["k"], p["q"], ctx=ctx)


_register(
    IdentityEntry(
        id="bridge-unity",
        ref="normalized character ratio at the trivial weight equals one",
        domain="q in [1.15, 1.45]; omega in [3.3, 5.5]; lam in [0.25, 1.75]",
        lhs=_bridge_unity_lhs,
        rhs=lambda p, ctx: 1.0 + 0j,
        sampler=_sample_bridge_unity,
        tolerance=COMPOUND_TOLERANCE,
        default_samples=10,
    )
)

_register(
    IdentityEntry(
        id="aff-eval",
        ref="full-pipeline evaluation identity at the distinguished point (2, 4)",
        domain="(mu, k) in {(1,1), (2,0), (0,2)}; q in [1.25, 1.5]",
        lhs=_aff_eval_lhs,
        rhs=_aff_eval_rhs,
        sampler=_sample_aff_eval,
        tolerance=COMPOUND_TOLERANCE,
        default_samples=3,
    )
)

# ---- exact series checks (runners provided by the conjectures module) ----


def _register_series(check_id, ref, runner, default_order):
    _register(
        IdentityEntry(
            id=check_id,
            ref=ref,
            domain="exact rational coefficients through the configured order",
            kind="series",
            tolerance=None,
            default_samples=None,
            runner=runner,
            default_order=default_order,
        )
    )


_register_series(
    "series.triple-product",
    "level theta as lattice sum vs triple product, exact coefficients",
    conjectures.triple_product_cases,
    12,
)
_register_series(
    "series.denominator",
    "conjectured graded normalizing product vs rank-one closed form",
    conjectures.denominator_cases,
    6,
)
_register_series(
    "series.aff-eval",
    "conjectured character-ratio product vs rank-one theorem, 16 weights",
    conjectures.aff_eval_cases,
    40,
)
_register_series(
    "series.hall-limit",
    "elliptic weight degenerations: nome substitution and zero-base limit",
    conjectures.hall_limit_cases,
    8,
)
for _name in ("sym-rearrange", "theta-simp2", "theta-simp3", "theta-simp4"):
    _register_series(
        f"series.{_name}",
        f"exact series form of the {_name} rearrangement",
        functools.partial(conjectures.theta_lemma_cases, _name),
        8,
    )


# --------------------------------------------------------------------------
# execution


def identity_ids(kind: Optional[str] = None):
    """Sorted ids of every registered check, or of those of one kind."""
    return tuple(
        sorted(cid for cid, entry in _REGISTRY.items() if kind is None or entry.kind == kind)
    )


def get_entry(identity_id: str) -> IdentityEntry:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(identity_id) from None


def entry_of_kind(identity_id: str, kind: str) -> IdentityEntry:
    """The entry of ``identity_id``; :class:`UnknownIdentity` unless it is ``kind``."""
    entry = get_entry(identity_id)
    if entry.kind != kind:
        raise UnknownIdentity(f"{identity_id} is not a {kind} check")
    return entry


def sample_params(identity_id: str, seed: int, sample_index: int) -> dict:
    entry = entry_of_kind(identity_id, "numeric")
    return entry.sampler(rng_for(seed, identity_id, sample_index), sample_index)


def run_check(
    identity_id: str,
    seed: int = 0,
    sample_index: int = 0,
    params: Optional[dict] = None,
    tolerance: Optional[float] = None,
    ctx=STANDARD,
) -> IdentityResult:
    """Draw (or accept) a parameter point and compare both sides."""
    entry = entry_of_kind(identity_id, "numeric")
    if params is None:
        params = sample_params(identity_id, seed, sample_index)
    tol = entry.tolerance if tolerance is None else float(tolerance)

    with achieved_errors() as errors:
        lhs = entry.lhs(params, ctx)
        rhs = entry.rhs(params, ctx)
    abs_error = abs(complex(lhs) - complex(rhs))
    scale = max(1.0, abs(complex(rhs)))
    rel_error = abs_error / max(abs(complex(rhs)), 1e-300)
    return IdentityResult(
        identity_id=identity_id,
        sample_index=sample_index,
        parameters=params,
        lhs_value=complex(lhs),
        rhs_value=complex(rhs),
        abs_error=abs_error,
        rel_error=rel_error,
        quadrature_error_estimate=max(errors) if errors else None,
        tolerance=tol,
        decision=DECISION_RULE,
        passed=abs_error <= tol * scale,
    )
