"""Independent numerical verifiers for the constructions in this package.

The central tool is a see-saw minimization of <psi (x) phi| W |psi (x) phi>
over product vectors: with one factor frozen, the objective is a 3x3
Hermitian quadratic form in the other, minimized exactly by its lowest
eigenvector.  Alternating the two factors yields a non-increasing value
sequence; restarting from Haar-random products gives a block-positivity
estimate that is an upper bound on the true product minimum.

Also here: the Choi-matrix test for complete positivity and the collection
of zero-expectation product vectors with their span rank (the standard
optimality evidence for a witness).  The constructive indecomposability
certificate from the PPT probe family is a closed form and lives in geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import Array
from .maps import LinearMap3
from .witnesses import choi_witness

SEESAW_TOL = 1e-11  # a restart stops at its first alternation that lowers its value by less
ZERO_VALUE_TOL = 1e-9
DEDUP_TOL = 1e-6
SPAN_RANK_TOL = 1e-8


@dataclass(frozen=True)
class SeeSawConfig:
    restarts: int = 200
    max_iters: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ProductVectorPair:
    """Unit vectors psi, phi in C^3 with value = <psi (x) phi|W|psi (x) phi>."""

    psi: Array
    phi: Array
    value: float


def _random_units(rng: np.random.Generator, count: int) -> Array:
    v = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class SeeSawResult:
    """Final state of a batch of see-saw restarts, one row per restart.

    ``iterations[r]`` counts the full alternations restart r ran before it
    stopped; ``converged[r]`` says whether its last step lowered the value by
    less than ``tol``.  ``history[t]`` holds every restart's value after
    iteration t + 1; a stopped restart repeats its final value, so each
    column is non-increasing.
    """

    psi: Array
    phi: Array
    values: Array
    iterations: Array
    converged: Array
    history: Array


def _contract(x: Array, M: Array) -> Array:
    """3x3 forms sum_{jl} conj(x_j) x_l M[(j,l), (i,k)], one per row.

    Hermitian up to roundoff; ``np.linalg.eigh`` reads only the lower
    triangle, so no symmetrization pass is needed.
    """
    outer = (x.conj()[:, :, None] * x[:, None, :]).reshape(-1, 9)
    return (outer @ M).reshape(-1, 3, 3)


def _extrapolate(old: Array, new: Array, step: Array) -> Array:
    """Rows normalize(new + step (new - old)), each old row phase-aligned to its new one.

    ``old`` and ``new`` stack (factor, restart, 3); ``step`` has one entry per restart.
    """
    overlap = (old.conj() * new).sum(-1)
    size = np.abs(overlap)
    phase = np.divide(overlap, size, out=np.zeros(overlap.shape, complex), where=size > 0)
    trial = new + step[:, None] * (new - phase[..., None] * old)
    # The row 2-norm exactly as numpy.linalg.norm computes it, without its Python-level argument handling.
    return trial / np.sqrt((trial.conj() * trial).real.sum(-1, keepdims=True))


def _seesaw_batch(W4: Array, psi: Array, phi: Array, max_iters: int, tol: float) -> SeeSawResult:
    """Alternate exact one-factor minimizations for a batch of starts.

    Each alternation solves two 3x3 eigenproblems: psi against the frozen
    phi, then phi against the new psi.  After each plain alternation but the
    first, every running restart also tries an extrapolated point, the
    line-search step for alternating least squares: both factors move,
    psi' = normalize(psi_t + beta (psi_t - psi_{t-1})) and likewise phi',
    each old factor phase-aligned to its new one.  The trial is scored
    directly by Re <psi' (x) phi'|W|psi' (x) phi'>, with no third
    eigensolve, and replaces the plain step only if that value is strictly
    lower, so the values stay non-increasing.  Each restart keeps its own
    beta: x1.5 after an accepted trial, x0.5 (floor 0.1) after a rejected
    one.

    Each restart stops at its own first iteration whose value drop is below
    tol.  Every alternation runs on the compacted set of running restarts:
    their factors in one (2, n, 3) stack, with their betas and values beside
    it, in batch order.  A restart's factors, iteration count and converged
    flag are written to the result once, when it stops or reaches max_iters.
    Its result depends on its own start alone, up to the roundoff of the
    batched 9x9 products, which round differently for a different number of
    rows; for a given batch it is bitwise reproducible.
    """
    # <psi (x) phi|W|psi (x) phi> as a form in psi (phi frozen) and in phi.
    M_psi = W4.transpose(1, 3, 0, 2).reshape(9, 9)
    M_phi = W4.transpose(0, 2, 1, 3).reshape(9, 9)
    W = W4.reshape(9, 9)
    count = psi.shape[0]
    factors = np.empty((2, count, 3), complex)
    values = np.full(count, inf)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    # The running restarts: their rows in the result, factors, betas and values.
    rows = np.arange(count)
    x = np.array((psi, phi))
    beta = np.ones(count)
    value = values.copy()
    history = []
    for t in range(1, max_iters + 1):
        _, vecs = np.linalg.eigh(_contract(x[1], M_psi))
        new_psi = vecs[:, :, 0]
        w, vecs = np.linalg.eigh(_contract(new_psi, M_phi))
        new, new_value = np.array((new_psi, vecs[:, :, 0])), w[:, 0]
        if t > 1:
            trial = _extrapolate(x, new, beta)
            u = _products(trial[0], trial[1])
            trial_value = ((u.conj() @ W) * u).sum(1).real
            accept = trial_value < new_value
            new = np.where(accept[:, None], trial, new)
            new_value = np.where(accept, trial_value, new_value)
            beta = np.where(accept, 1.5 * beta, np.maximum(0.5 * beta, 0.1))
        stop = value - new_value < tol
        x, value = new, new_value
        values[rows] = value
        history.append(values.copy())
        done = stop | (t == max_iters)
        if np.count_nonzero(done):
            out = rows[done]
            factors[:, out] = x[:, done]
            iterations[out] = t
            converged[out] = stop[done]
            keep = ~done
            rows, x, beta, value = rows[keep], x[:, keep], beta[keep], value[keep]
        if not rows.size:
            break
    return SeeSawResult(factors[0], factors[1], values, iterations, converged, np.array(history))


def _products(psi: Array, phi: Array) -> Array:
    """Rows psi_r (x) phi_r, one product vector per stacked pair."""
    return (psi[:, :, None] * phi[:, None, :]).reshape(-1, 9)


def _ordered(values: Array, psi: Array, phi: Array) -> tuple[Array, Array]:
    """Deterministic order of a stack of restarts, with their product vectors.

    Each product vector is rotated so that its first largest-modulus entry is
    real and positive; rows are sorted by (value, real parts rounded to 12
    digits, imaginary parts rounded to 12 digits), ties kept in row order.
    Returns the order and the phase-fixed products in that order.
    """
    U = _products(psi, phi)
    lead = U[np.arange(len(U)), np.argmax(np.abs(U), axis=1)]
    # hypot rounds like the scalar abs(); the vectorized complex np.abs can differ in the last bit.
    size = np.hypot(lead.real, lead.imag)
    U = U * np.divide(lead.conj(), size, out=np.ones_like(lead), where=size > 0)[:, None]
    digits = np.round(np.concatenate([U.real, U.imag], axis=1), 12)
    # lexsort's last key is the primary one.
    order = np.lexsort(np.vstack([digits.T[::-1], values]))
    return order, U[order]


def _run_seesaw(W, cfg: SeeSawConfig) -> SeeSawResult:
    M = linalg.require_hermitian(W, 1e-9)
    W4 = M.reshape(3, 3, 3, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    psi0 = _random_units(rng, cfg.restarts)
    phi0 = _random_units(rng, cfg.restarts)
    return _seesaw_batch(W4, psi0, phi0, cfg.max_iters, SEESAW_TOL)


def min_product_expectation(W, cfg: SeeSawConfig | None = None) -> ProductVectorPair:
    """Best product-vector expectation found by the restarted see-saw.

    The returned value is an upper bound on min <psi (x) phi|W|psi (x) phi>;
    restarts are merged by (value, lexicographic product vector) so the
    result does not depend on evaluation order.
    """
    cfg = cfg or SeeSawConfig()
    res = _run_seesaw(W, cfg)
    best = _ordered(res.values, res.psi, res.phi)[0][0]
    return ProductVectorPair(res.psi[best], res.phi[best], float(res.values[best]))


def is_cp_choi(phi: LinearMap3 | Callable[[Array], Array]) -> bool:
    """Complete positivity via the Choi criterion: the Choi matrix is PSD."""
    return linalg.is_psd(choi_witness(phi).matrix)


def zero_product_vectors(
    W, cfg: SeeSawConfig | None = None, dedup_tol: float = DEDUP_TOL
) -> list[ProductVectorPair]:
    """Distinct see-saw limits with |value| <= 1e-9 on a block-positive W.

    Candidates are ordered by (value, lexicographic product vector) and
    deduplicated by the projective distance 1 - |<u, v>| on the product
    vectors.  May return an empty list (e.g. strictly positive W).
    """
    cfg = cfg or SeeSawConfig()
    res = _run_seesaw(W, cfg)
    zero = np.flatnonzero(res.values <= ZERO_VALUE_TOL)
    order, U = _ordered(res.values[zero], res.psi[zero], res.phi[zero])
    close = 1.0 - np.abs(U.conj() @ U.T) <= dedup_tol
    # Greedy scan in order: a candidate survives unless an earlier survivor is close.
    # Only candidates with a close later partner can drop anything; usually there are none.
    keep = np.ones(len(order), dtype=bool)
    for i in np.flatnonzero(np.triu(close, 1).any(axis=1)):
        if keep[i]:
            keep[i + 1 :] &= ~close[i, i + 1 :]
    return [ProductVectorPair(res.psi[r], res.phi[r], float(res.values[r])) for r in zero[order[keep]]]


def span_rank(pairs: Sequence[ProductVectorPair]) -> int:
    """Numerical rank of the span of the product vectors psi (x) phi.

    Computed from the 9x9 Gram accumulation sum_r u_r u_r^dagger = U^T conj(U),
    which has the same nonzero spectrum as the k x k Gram matrix; eigenvalues
    above SPAN_RANK_TOL * largest count toward the rank.
    """
    if not pairs:
        return 0
    U = _products(np.array([pair.psi for pair in pairs]), np.array([pair.phi for pair in pairs]))
    w = linalg.eigenvalues(U.T @ U.conj())
    top = float(w[-1])
    if top <= 0:
        return 0
    return int(np.sum(w > SPAN_RANK_TOL * top))
