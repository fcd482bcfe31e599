"""Registry of every check, numeric and exact.

Each entry has a stable string ID and a kind.  A ``numeric`` entry pairs an
LHS and RHS evaluator with a seeded domain sampler and a declared tolerance;
a ``series`` entry names a runner from :mod:`.conjectures` and its default
expansion order.  ``identity_ids()`` is the machine-readable manifest.  The
integral evaluators in :mod:`.special` and :mod:`.lemmas` end in
:func:`.special.audited_integral`, which picks each path from the pole
inventory derived from the declared factors and audits it before the
quadrature, raising :class:`PoleOnPath` on a rejected path;
:func:`run_check` reports the largest error those quadratures achieved.
The pointwise checks sample with a :class:`UniformMap` and their sides take
arrays (``array_sides``): :func:`run_batch` evaluates many of their draws in
one call, as columns, one array per parameter, side and error (a :class:`Batch`).

Sampling is reproducible by construction: the random stream for a check is
keyed by ``(seed, fnv1a64(identity_id), sample_index)``, so adding or
reordering catalog entries never shifts another identity's draws.
:func:`rng_for` defines each draw's stream; a batch draws every draw's
stream at once (:func:`uniforms_for`), bit-identical to :func:`rng_for`.
It keeps each SeedSequence hash word and each Philox4x64-10 word of the whole
batch in one Python int, one lane per draw, so each step of the hash or of a
Philox round is one big-int operation.  Lanes cannot carry into each other:
a 32-bit hash word sits in a 64-bit lane, where its products by 32-bit
constants fit and its differences are taken with 2**32 added to every lane,
and a 64-bit Philox word sits in a 128-bit lane, where its product by a
64-bit multiplier fits and is split by shift and mask.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
from typing import Callable, Optional, Sequence

import numpy as np

from . import bridge, conjectures, lemmas, special
from .contour import PoleOnPath, achieved_errors
from .kernel import ell_gamma_modular_Q, epi
from .special import Factor, product

__all__ = [
    "IdentityEntry",
    "IdentityResult",
    "UnknownIdentity",
    "NoAdmissiblePoint",
    "UniformMap",
    "PoleOnPath",
    "identity_ids",
    "get_entry",
    "entry_of_kind",
    "sample_params",
    "run_check",
    "run_batch",
    "Batch",
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


class NoAdmissiblePoint(RuntimeError):
    """A rejection sampler found no admissible point in its allowed tries."""


@dataclasses.dataclass(frozen=True)
class IdentityEntry:
    """One registered check.

    A ``numeric`` entry compares ``lhs`` and ``rhs`` at points drawn by
    ``sampler``, a function ``(rng, index) -> params``; a check whose
    sampler is a :class:`UniformMap` has ``array_sides``.  A ``series`` entry has
    ``runner``, which maps an order to a list of case dicts with an ``exact``
    flag, and ``default_order``; its ``tolerance`` and ``default_samples``
    are ``None``.
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

    @property
    def array_sides(self) -> bool:
        """The sides run no quadrature and take arrays, one entry per draw, as
        well as numbers: the sampler is a :class:`UniformMap`, as :func:`run_batch` needs."""
        return isinstance(self.sampler, UniformMap)


@dataclasses.dataclass(frozen=True)
class IdentityResult:
    identity_id: str
    sample_index: int
    parameters: dict
    lhs_value: complex
    rhs_value: complex
    abs_error: float
    #: abs_error / (tolerance * max(1, |rhs|)), at most 1 exactly when a
    #: finite abs_error passes; nan when an infinite rhs makes both infinite
    margin: float
    #: largest error / max(1, |value|) among the quadratures the draw ran
    #: (None when it ran none)
    quadrature_error_estimate: Optional[float]
    tolerance: float
    decision: str
    passed: bool


@functools.lru_cache(maxsize=64)
def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of ``text`` (stable across platforms/versions);
    cached, so each check id is hashed once, not once per draw."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def rng_for(seed: int, identity_id: str, sample_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, identity, sample)."""
    ss = np.random.SeedSequence((int(seed), fnv1a64(identity_id), int(sample_index)))
    return np.random.Generator(np.random.Philox(ss))


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _words(n: int) -> list:
    """The uint32 words ``SeedSequence`` makes of the int ``n``, low word first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _lanes(width: int, n: int) -> int:
    """The int with a 1 at the bottom of each of ``n`` lanes ``width`` bits wide."""
    return ((1 << width * n) - 1) // ((1 << width) - 1)


def _philox_keys(words) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(2, uint64)`` of each row of the
    entropy whose words are ``words`` (pool size 4), as a (2, N) uint64 array:
    a word is an int, the same in every row, or N uint32 words, one per row.

    Each hash word of all N rows is one int, row k's 32-bit word in its k-th
    64-bit lane.  A product of a 32-bit word and a 32-bit constant is below
    2**64, so it stays inside its lane and is masked back to 32 bits; ``mix``
    adds 2**32 to every lane (still below 2**64) before it subtracts a 32-bit
    word, so no lane borrows from the next.
    """
    n = next(len(word) for word in words if not isinstance(word, int))
    ones = _lanes(64, n)
    low = _MASK32 * ones

    def hasher(const, mult):
        # SeedSequence's hash: xor in const, step it by mult, multiply by the new const
        def hash_(value):
            nonlocal const
            value ^= const * ones
            const = const * mult & _MASK32
            value = value * const & low
            return value ^ value >> 16 & low

        return hash_

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    borrow = ones << 32

    def mix(x, y):
        result = (0xCA01F9DD * x + borrow - (0x4973F715 * y & low)) & low
        return result ^ result >> 16 & low

    lanes = [
        word * ones if isinstance(word, int) else int.from_bytes(np.asarray(word, "<u8"), "little")
        for word in words
    ]
    pool = [hashmix(lanes[i] if i < len(lanes) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in lanes[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool))
    keys = (state[0] | state[1] << 32, state[2] | state[3] << 32)
    raw = b"".join(key.to_bytes(8 * n, "little") for key in keys)
    return np.frombuffer(raw, "<u8").reshape(2, n)


def _philox_doubles(keys, count) -> np.ndarray:
    """``Generator(Philox(key=k)).random(count)`` for each column k of the
    (2, N) ``keys``: Philox4x64-10 on counters 1, 2, ..., as (N, count) doubles.

    Each word of every counter block of all N rows is one int, one 128-bit
    lane per (block, row).  The product of a 64-bit multiplier and a 64-bit
    word fills at most its lane, so ``p >> 64`` is the lane's high word once
    masked.  A lane may carry junk above its low 64 bits (a product's high
    word, an unmasked key sum) only where the next step is an xor masked to
    the low 64 bits, or the final read, which takes the low 64 bits alone.
    """
    n, blocks = keys.shape[1], -(-count // 4)
    ones = _lanes(128, n * blocks)
    low = _MASK64 * ones
    spread = np.zeros((blocks, n, 2), "<u8")

    def lanes(values):
        spread[..., 0] = values
        return int.from_bytes(spread.tobytes(), "little")

    k0, k1 = lanes(keys[0]), lanes(keys[1])
    w0, w1 = 0x9E3779B97F4A7C15 * ones, 0xBB67AE8584CAA73B * ones
    c0, c1, c2, c3 = lanes(np.arange(1, blocks + 1)[:, None]), 0, 0, 0
    for round_ in range(10):
        if round_:
            k0, k1 = k0 + w0, k1 + w1
        p1, p0 = 0xCA5A826395121157 * c2, 0xD2E7470EE14C6C93 * c0
        c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0) & low, p1, (p0 >> 64 ^ c3 ^ k1) & low, p0
    raw = b"".join(word.to_bytes(16 * n * blocks, "little") for word in (c0, c1, c2, c3))
    words = np.frombuffer(raw, "<u8").reshape(4, blocks, n, 2)[..., 0].transpose(2, 1, 0)
    return (words.reshape(n, 4 * blocks)[:, :count] >> 11) * 2.0**-53


def uniforms_for(seed: int, identity_id: str, sample_indices, count: int) -> np.ndarray:
    """Row k is ``rng_for(seed, identity_id, sample_indices[k]).random(count)``,
    bit for bit, for every index ``rng_for`` accepts; any other raises its error.

    All rows are drawn at once, one pass per number of words in an index (a
    longer entropy mixes differently).  A pass holds each word of all its rows
    in one int, one lane per row, and no lane carries into the next (see
    :func:`_philox_keys` and :func:`_philox_doubles`), so a row never depends
    on its batch.
    """
    prefix = _words(int(seed)) + _words(fnv1a64(identity_id))
    words = [_words(int(index)) for index in sample_indices]
    uniforms = np.empty((len(words), count))
    for length in {len(index) for index in words}:
        rows = [row for row, index in enumerate(words) if len(index) == length]
        columns = zip(*(words[row] for row in rows))
        uniforms[rows] = _philox_doubles(_philox_keys(prefix + list(columns)), count)
    return uniforms


class _Uniforms:
    """``count`` uniforms from one ``rng.random(count)``, handed out in order.

    ``lo + (hi - lo) * u`` is numpy's own ``uniform`` formula, so the doubles
    are those of ``count`` consecutive ``rng.uniform`` calls, at a fraction
    of their cost.  A sampler asks for exactly as many as it uses, so that
    a later draw from the same stream starts where it did.
    """

    def __init__(self, rng, count):
        self._next = iter(rng.random(count).tolist()).__next__

    def real(self, lo, hi) -> float:
        return lo + (hi - lo) * self._next()

    def cx(self, re_lo, re_hi, im_lo, im_hi) -> complex:
        return complex(self.real(re_lo, re_hi), self.real(im_lo, im_hi))


class _Columns(_Uniforms):
    """:class:`_Uniforms` for many draws: hands out the columns of an
    (N, count) array of uniforms, so each value has an entry per draw."""

    def __init__(self, uniforms):
        self._next = iter(uniforms.T).__next__

    def cx(self, re_lo, re_hi, im_lo, im_hi) -> np.ndarray:
        z = self.real(re_lo, re_hi).astype(complex)
        z.imag = self.real(im_lo, im_hi)
        return z


@dataclasses.dataclass(frozen=True)
class UniformMap:
    """A sampler that maps ``count`` uniforms per draw: ``to_params`` takes
    an (N, count) array, row k the uniforms of draw k, to one array per
    parameter.  Called as a sampler, it maps the one row ``rng.random(count)``.
    """

    count: int
    to_params: Callable

    def __call__(self, rng, index) -> dict:
        params = self.to_params(rng.random(self.count)[None])
        return {name: values.tolist()[0] for name, values in params.items()}


def _reject(draw, accept, tries=500):
    for _ in range(tries):
        params = draw()
        if accept(params):
            return params
    raise NoAdmissiblePoint(f"sampler failed to find an admissible point in {tries} tries")


# wider than contour.CLEARANCE (1/64), so no accepted draw meets the evaluators' refusal
_TOWER_MARGIN = 1 / 48


def _tower_clear(tau, eta) -> bool:
    """No member of +-(2 eta - k tau) within :data:`_TOWER_MARGIN` of the real axis."""
    tau = complex(tau)
    eta = complex(eta)
    k = 0
    while True:
        depth = (2 * eta - k * tau).imag
        if abs(depth) < _TOWER_MARGIN:
            return False
        if depth < -0.5:
            return True
        k += 1


# --------------------------------------------------------------------------
# samplers


def _sample_spiridonov(rng, index):
    u = _Uniforms(rng, 14)
    tau = u.cx(-0.3, 0.3, 0.5, 1.2)
    sigma = u.cx(-0.3, 0.3, 0.5, 1.2)
    s = [u.cx(-0.25, 0.25, 0.10, 0.18) for _ in range(5)]
    s.append(tau + sigma - sum(s))  # balancing; Im >= 1.0 - 5*0.18 > 0.05
    return {"s": s, "tau": tau, "sigma": sigma}


def _sample_two_moduli(rng, index):
    u = _Uniforms(rng, 4)
    return {
        "tau": u.cx(-0.3, 0.3, 0.5, 1.2),
        "sigma": u.cx(-0.3, 0.3, 0.5, 1.2),
    }


def _sample_eval3(rng, index):
    def draw():
        u = _Uniforms(rng, 6)
        tau = u.cx(-0.25, 0.25, 0.2, 0.8)
        eta = u.cx(-0.2, 0.2, 0.2, 0.8)
        lam = u.cx(-0.45, 0.45, -0.25, 0.25)
        return {"lam": lam, "tau": tau, "eta": eta}

    def accept(p):
        if not _tower_clear(p["tau"], p["eta"]):
            return False
        # keep the closed form's theta zeros at a working distance
        return all(
            special.lattice_distance(p["lam"] - shift, p["tau"]) > 0.04
            for shift in (0, 2 * p["eta"], -2 * p["eta"])
        )

    return _reject(draw, accept)


def _sample_ellmac_val(rng, index):
    def draw():
        u = _Uniforms(rng, 8)
        eta = u.cx(-0.06, 0.06, -0.5, -0.1)
        depth = 2 * abs(eta.imag)
        tau = u.cx(-0.3, 0.3, depth + 0.15, depth + 1.0)
        lam = u.cx(-0.4, 0.4, -0.2, 0.2)
        lam_alt = u.cx(-0.4, 0.4, -0.2, 0.2)
        return {"lam": lam, "lam_alt": lam_alt, "tau": tau, "eta": eta}

    def accept(p):
        return all(
            special.lattice_distance(which - shift, p["tau"]) > 0.04
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
    eta = _Uniforms(rng, 2).cx(-0.05, 0.05, -0.3, -0.08)
    return {"mu": mu, "kappa": kappa, "eta": eta}


def _sample_htf_series(rng, index):
    u = _Uniforms(rng, 6)
    eta = u.cx(-0.04, 0.04, -0.12, -0.05)
    gap = 4 * abs(eta.imag)  # series convergence needs Im(tau + 4 eta) > 0
    tau = u.cx(-0.25, 0.25, gap + 0.15, gap + 0.8)
    lam = u.cx(-0.3, 0.3, -0.15, 0.15)
    return {"mu": 2, "kappa": 4, "lam": lam, "tau": tau, "eta": eta}


def _sample_modular(rng, index, branch):
    def draw():
        u = _Uniforms(rng, 6)
        h = u.real(0.10, 0.20)
        alpha = u.real(0.35, 0.60)
        T = u.real(0.80, 1.10)
        delta = u.real(0.15, 0.30)
        beta = alpha - delta if branch == "minus" else alpha + delta
        eta = -1j * h * np.exp(1j * alpha)
        tau = 1j * T * np.exp(1j * beta)
        lam = u.cx(-0.3, 0.3, -0.1, 0.1)
        return {"lam": lam, "tau": complex(tau), "eta": complex(eta)}

    def accept(p):
        tau, eta, lam = p["tau"], p["eta"], p["lam"]
        tau2 = -1 / tau
        eta2 = eta / tau if branch == "minus" else -eta / tau
        for t, e in ((tau, eta), (tau2, eta2)):
            for shift in (0, 2 * e, -2 * e):
                if special.lattice_distance(lam - shift, t) < 0.03:
                    return False
        return True

    return _reject(draw, accept)


@functools.partial(UniformMap, 4)
def _sample_theta_mod(uniforms):
    u = _Columns(uniforms)
    r = u.real(0.6, 1.3)
    theta = u.real(0.3, 2.6)
    tau = r * np.exp(1j * theta)
    z = u.cx(-0.4, 0.4, -0.3, 0.3)
    return {"z": z, "tau": tau}


@functools.partial(UniformMap, 6)
def _sample_ellgam_mod(uniforms):
    u = _Columns(uniforms)
    arg_sigma = u.real(0.2, 1.2)
    arg_tau = arg_sigma + u.real(0.3, 1.3)
    sigma = u.real(0.5, 1.2) * np.exp(1j * arg_sigma)
    tau = u.real(0.5, 1.2) * np.exp(1j * arg_tau)
    z = u.cx(-0.4, 0.4, -0.4, 0.4)
    return {"z": z, "tau": tau, "sigma": sigma}


@functools.partial(UniformMap, 6)
def _sample_pointwise_eta(uniforms):
    u = _Columns(uniforms)
    return {
        "t": u.cx(-0.4, 0.4, -0.25, 0.25),
        "tau": u.cx(-0.2, 0.2, 0.4, 0.9),
        "eta": u.cx(-0.1, 0.1, 0.15, 0.45),
    }


@functools.partial(UniformMap, 6)
def _sample_pointwise_lam(uniforms):
    u = _Columns(uniforms)
    return {
        "t": u.cx(-0.4, 0.4, -0.25, 0.25),
        "lam": u.cx(-0.4, 0.4, -0.2, 0.2),
        "tau": u.cx(-0.2, 0.2, 0.4, 0.9),
    }


@functools.partial(UniformMap, 4)
def _sample_theta_simp2(uniforms):
    u = _Columns(uniforms)
    return {
        "z": u.cx(-0.4, 0.4, -0.25, 0.25),
        "sigma": u.cx(-0.2, 0.2, 0.4, 1.0),
    }


def _sample_int_lemma(rng, index):
    def draw():
        u = _Uniforms(rng, 4)
        return {
            "tau": u.cx(-0.2, 0.2, 0.35, 0.8),
            "eta": u.cx(-0.1, 0.1, 0.2, 0.45),
        }

    return _reject(draw, lambda p: _tower_clear(p["tau"], p["eta"]))


def _sample_int_rearrange(rng, index):
    params = _sample_int_lemma(rng, index)
    params["lam"] = _Uniforms(rng, 2).cx(-0.4, 0.4, -0.2, 0.2)
    return params


def _sample_bridge_unity(rng, index):
    u = _Uniforms(rng, 3)
    return {
        "q": u.real(1.15, 1.45),
        "lam": u.real(0.25, 1.75),
        "omega": u.real(3.3, 5.5),
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
        lhs=lambda p: special.spiridonov_lhs(p["s"], p["tau"], p["sigma"]),
        rhs=lambda p: special.spiridonov_rhs(p["s"], p["tau"], p["sigma"]),
        sampler=_sample_spiridonov,
    )
)

_register(
    IdentityEntry(
        id="eval1",
        ref="quarter-shift integral vs (1+i) gamma-ratio value",
        domain="Im tau, Im sigma in [0.5, 1.2]; path above -1/4, below +1/4",
        lhs=lambda p: special.eval1_lhs(p["tau"], p["sigma"]),
        rhs=lambda p: special.eval1_rhs(p["tau"], p["sigma"]),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="eval2",
        ref="mirrored quarter-shift integral vs (1-i) gamma-ratio value",
        domain="Im tau, Im sigma in [0.5, 1.2]; path above +1/4, below -1/4",
        lhs=lambda p: special.eval2_lhs(p["tau"], p["sigma"]),
        rhs=lambda p: special.eval2_rhs(p["tau"], p["sigma"]),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="eval3",
        ref="antisymmetrized one-sided integral vs triple-theta closed form",
        domain="Im tau, Im eta in [0.2, 0.8]; gamma towers clear of the path",
        lhs=lambda p: special.I_sym(p["lam"], p["tau"], p["eta"]),
        rhs=lambda p: special.eval3_rhs(p["lam"], p["tau"], p["eta"]),
        sampler=_sample_eval3,
        default_samples=30,
    )
)

_register(
    IdentityEntry(
        id="fv-val1",
        ref="half-integral weight value of u at the lower quarter point",
        domain="Im tau, Im sigma in [0.5, 1.2]; eta = -1/8, path above +1/4, below -1/4",
        lhs=lambda p: special.fv_u(0.5, 0.5, p["tau"], p["sigma"], -0.125),
        rhs=lambda p: special.fv_val1_rhs(p["tau"], p["sigma"]),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="fv-val2",
        ref="half-integral weight value of u at the upper quarter point",
        domain="Im tau, Im sigma in [0.5, 1.2]; eta = +1/8, path above -1/4, below +1/4",
        lhs=lambda p: special.fv_u(0.5, 0.5, p["tau"], p["sigma"], 0.125),
        rhs=lambda p: special.fv_val2_rhs(p["tau"], p["sigma"]),
        sampler=_sample_two_moduli,
    )
)

_register(
    IdentityEntry(
        id="ellmac-val",
        ref="constant-term normalization: kappa=4 polynomial vs closed form",
        domain="Im eta in [-0.5, -0.1]; Im tau > 2|Im eta|; lam off theta zeros",
        lhs=lambda p: special.ellmac_P(0, 4, p["lam"], p["tau"], p["eta"]),
        rhs=lambda p: special.ellmac_val_rhs(p["tau"], p["eta"]),
        sampler=_sample_ellmac_val,
        default_samples=10,
    )
)

_register(
    IdentityEntry(
        id="ellmac-eval",
        ref="principal evaluation of the polynomial at the distinguished point",
        domain="kappa in {4,5,6,8}, mu in {0,1,2} with mu+2 != +-1 mod kappa; Im eta < 0",
        lhs=lambda p: special.ellmac_P(
            p["mu"], p["kappa"], 4 * p["eta"], -8 * p["eta"], p["eta"]
        ),
        rhs=lambda p: special.ellmac_eval_rhs(p["mu"], p["kappa"], p["eta"]),
        sampler=_sample_ellmac_eval,
        default_samples=len(ELLMAC_EVAL_COMBOS),
    )
)

_register(
    IdentityEntry(
        id="htf-series",
        ref="hypergeometric theta integral vs its defining weighted series",
        domain="mu=2, kappa=4; Im eta < 0; Im(tau + 4 eta) > 0",
        lhs=lambda p: special.delta_tilde(
            p["mu"], p["kappa"], p["lam"], p["tau"], p["eta"]
        ),
        rhs=lambda p: special.delta_tilde_series(
            p["mu"], p["kappa"], p["lam"], p["tau"], p["eta"]
        ),
        sampler=_sample_htf_series,
        tolerance=COMPOUND_TOLERANCE,
        default_samples=5,
    )
)


def _mod_lhs(branch):
    def lhs(p):
        lam, tau, eta = p["lam"], p["tau"], p["eta"]
        first = special.ellmac_P(0, 4, lam, tau, eta)
        if branch == "minus":
            scale = special.s_minus(tau, eta)
            second = special.ellmac_P(0, 4, lam, -1 / tau, eta / tau)
        else:
            scale = special.s_plus(tau, eta)
            second = special.ellmac_P(0, 4, lam, -1 / tau, -eta / tau)
        return first * scale / second

    return lhs


_register(
    IdentityEntry(
        id="mod-minus",
        ref="three-term modular relation, first branch, vs exponential constant",
        domain="eta = -i h e^{i a}, tau = i T e^{i b} with b < a",
        lhs=_mod_lhs("minus"),
        rhs=lambda p: special.mod_minus_rhs(p["tau"], p["eta"]),
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
        rhs=lambda p: special.mod_plus_rhs(p["tau"], p["eta"]),
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
        lhs=lambda p: product(1, Factor("jacobi", p["z"] / p["tau"], 0, (-1 / p["tau"],))),
        rhs=lambda p: product(
            -1j * np.sqrt(-1j * p["tau"]) * epi(p["z"] ** 2 / p["tau"]),
            Factor("jacobi", p["z"], 0, (p["tau"],)),
        ),
        sampler=_sample_theta_mod,
    )
)

_register(
    IdentityEntry(
        id="ellgam-mod",
        ref="three-term modular relation of the double-periodic gamma",
        domain="arg sigma in [0.2, 1.2]; arg tau exceeds it by [0.3, 1.3]",
        lhs=lambda p: product(
            1, Factor("gamma", p["z"] / p["sigma"], 0, (p["tau"] / p["sigma"], -1 / p["sigma"]))
        ),
        rhs=lambda p: product(
            epi(ell_gamma_modular_Q(p["z"], p["tau"], p["sigma"])),
            Factor(
                "gamma", (p["z"] - p["sigma"]) / p["tau"], 0,
                (-1 / p["tau"], -p["sigma"] / p["tau"]),
            ),
            Factor("gamma", p["z"], 0, (p["tau"], p["sigma"])),
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
        lhs=lambda p: lemmas.sym_rearrange_lhs(p["t"], p["tau"], p["eta"]),
        rhs=lambda p: lemmas.sym_rearrange_rhs(p["t"], p["tau"], p["eta"]),
        sampler=_sample_pointwise_eta,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-rearrange",
        ref="one-sided integral equals the rearranged two-gamma integral",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p: lemmas.int_rearrange_lhs(p["lam"], p["tau"], p["eta"]),
        rhs=lambda p: lemmas.int_rearrange_rhs(p["lam"], p["tau"], p["eta"]),
        sampler=_sample_int_rearrange,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp",
        ref="three-theta product collapse at doubled modulus",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p: lemmas.theta_simp_lhs(p["t"], p["lam"], p["tau"]),
        rhs=lambda p: lemmas.theta_simp_rhs(p["t"], p["lam"], p["tau"]),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.full-sym",
        ref="symmetrized integrand combination in fully expanded form",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p: lemmas.full_sym_lhs(p["t"], p["lam"], p["tau"]),
        rhs=lambda p: lemmas.full_sym_rhs(p["t"], p["lam"], p["tau"]),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp2",
        ref="quadratic theta relation at quadrupled modulus",
        domain="generic z; Im sigma in [0.4, 1.0]",
        lhs=lambda p: lemmas.theta_simp2_lhs(p["z"], p["sigma"]),
        rhs=lambda p: lemmas.theta_simp2_rhs(p["z"], p["sigma"]),
        sampler=_sample_theta_simp2,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp3",
        ref="level-eight theta splitting into doubled-modulus factors",
        domain="generic t, lam; Im tau in [0.4, 0.9]",
        lhs=lambda p: lemmas.theta_simp3_lhs(p["t"], p["lam"], p["tau"]),
        rhs=lambda p: lemmas.theta_simp3_rhs(p["t"], p["lam"], p["tau"]),
        sampler=_sample_pointwise_lam,
    )
)

_register(
    IdentityEntry(
        id="lemma.theta-simp4",
        ref="gamma-product value rewritten through shifted Pochhammer blocks",
        domain="Im tau in [0.4, 0.9]; Im eta in [0.15, 0.45]",
        lhs=lambda p: lemmas.theta_simp4_lhs(p["tau"], p["eta"]),
        rhs=lambda p: lemmas.theta_simp4_rhs(p["tau"], p["eta"]),
        sampler=_sample_pointwise_eta,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-eval1",
        ref="first beta-frame integral vs its fourteen-gamma product",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p: lemmas.int_eval1_lhs(p["tau"], p["eta"]),
        rhs=lambda p: lemmas.int_eval1_rhs(p["tau"], p["eta"]),
        sampler=_sample_int_lemma,
    )
)

_register(
    IdentityEntry(
        id="lemma.int-eval2",
        ref="second beta-frame integral vs its twelve-gamma product",
        domain="Im tau in [0.35, 0.8]; Im eta in [0.2, 0.45]; towers clear",
        lhs=lambda p: lemmas.int_eval2_lhs(p["tau"], p["eta"]),
        rhs=lambda p: lemmas.int_eval2_rhs(p["tau"], p["eta"]),
        sampler=_sample_int_lemma,
    )
)

# ---- bridge identities (evaluators provided by the bridge module) ----

_register(
    IdentityEntry(
        id="bridge-unity",
        ref="normalized character ratio at the trivial weight equals one",
        domain="q in [1.15, 1.45]; omega in [3.3, 5.5]; lam in [0.25, 1.75]",
        lhs=lambda p: bridge.J_mu_k2(0, 0, p["q"], p["lam"], p["omega"]),
        rhs=lambda p: 1.0 + 0j,
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
        lhs=lambda p: bridge.J_mu_k2(p["mu"], p["k"], p["q"], 2.0, 4.0),
        rhs=lambda p: bridge.eval_conj_rhs(p["mu"], p["k"], p["q"]),
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
            domain="exact integer coefficients through the configured order",
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
) -> IdentityResult:
    """Draw (or accept) a parameter point and compare both sides."""
    entry = entry_of_kind(identity_id, "numeric")
    if params is None:
        params = sample_params(identity_id, seed, sample_index)
    tol = entry.tolerance if tolerance is None else float(tolerance)

    with achieved_errors() as errors:
        lhs = complex(entry.lhs(params))
        rhs = complex(entry.rhs(params))
    abs_error, size, margin, passed = _compare(np.array(lhs), np.array(rhs), tol)
    # keep the OverflowError Python's abs raises where np.hypot of a finite value reads inf
    for value, magnitude in ((lhs - rhs, abs_error), (rhs, size)):
        if cmath.isfinite(value) and not np.isfinite(magnitude):
            raise OverflowError("absolute value too large")
    return IdentityResult(
        identity_id=identity_id,
        sample_index=sample_index,
        parameters=params,
        lhs_value=lhs,
        rhs_value=rhs,
        abs_error=float(abs_error),
        margin=float(margin),
        quadrature_error_estimate=max(errors) if errors else None,
        tolerance=tol,
        decision=DECISION_RULE,
        passed=bool(passed),
    )


def _compare(lhs, rhs, tol):
    """``(abs_error, |rhs|, margin, passed)`` of complex side arrays by
    :data:`DECISION_RULE`, the margin being abs_error over its bound.
    ``np.hypot(z.real, z.imag)`` is ``abs(z)`` bit for bit (``np.abs`` is
    not), but reads ``inf`` where ``abs`` overflows."""
    with np.errstate(all="ignore"):
        diff = lhs - rhs
        abs_error = np.hypot(diff.real, diff.imag)
        size = np.hypot(rhs.real, rhs.imag)
        bound = tol * np.maximum(1.0, size)
        # an infinite rhs makes the bound infinite too: inf <= inf is no pass
        passed = (abs_error <= bound) & np.isfinite(abs_error)
        return abs_error, size, abs_error / bound, passed


@dataclasses.dataclass(frozen=True)
class Batch:
    """The draws of one :func:`run_batch` as columns, entry k of each array
    the k-th distinct index it was given: one complex array per parameter
    (none if the batch raised), the sides, and their comparison under
    ``tolerance``.  Only the ``settled`` draws' values hold; :func:`run_check`
    settles the others."""

    parameters: dict
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    settled: np.ndarray
    tolerance: float


def run_batch(
    identity_id: str,
    seed: int,
    sample_indices: Sequence[int],
    tolerance: Optional[float] = None,
) -> Batch:
    """:func:`run_check` for many draws of a check with ``array_sides``.

    Every draw's stream is drawn at once by :func:`uniforms_for`, bit for bit
    the stream :func:`rng_for` gives the draw alone, and the check's
    :class:`UniformMap` turns the whole batch into one array per parameter,
    so each draw gets exactly the parameters :func:`sample_params` gives it;
    each side is evaluated once on the arrays, and both are compared by the
    function :func:`run_check` uses.  Returns a :class:`Batch` with one row
    per distinct index, in order.  A draw is settled unless the sampling or
    a side raised for the batch (then no draw is), or one of its sides, its
    ``abs_error`` or its ``|rhs|`` is not finite; :func:`run_check` gives an
    unsettled draw its own result or error.  A side's last bits may differ
    from :func:`run_check`'s (numpy rounds some complex operations
    differently from Python), and the sum of a point's log series runs to
    the term count of the slowest point in its batch.
    """
    entry = entry_of_kind(identity_id, "numeric")
    if not entry.array_sides:
        raise ValueError(f"{identity_id} does not declare array sides")
    tol = entry.tolerance if tolerance is None else float(tolerance)
    indices = tuple(dict.fromkeys(sample_indices))
    try:
        sampler = entry.sampler
        arrays = sampler.to_params(uniforms_for(seed, identity_id, indices, sampler.count))
        lhs = rhs = np.empty(0, complex)
        # a pole or an overflow shows as a non-finite side, not as a warning;
        # the array kernel has no term count for an empty batch
        with np.errstate(all="ignore"):
            if indices:
                lhs = np.broadcast_to(entry.lhs(arrays), len(indices))
                rhs = np.broadcast_to(entry.rhs(arrays), len(indices))
    except Exception:  # every draw left unsettled: run_check isolates the culprit
        arrays, lhs = {}, np.full(len(indices), np.nan, complex)
        rhs = lhs
    abs_error, size, margin, passed = _compare(lhs, rhs, tol)
    # a finite |lhs - rhs| needs finite sides; neither it nor |rhs| overflowed
    settled = np.isfinite(abs_error) & np.isfinite(size)
    return Batch(arrays, lhs, rhs, margin, passed, settled, tol)
