"""Independent numerical verifiers for the constructions in this package.

The central tool is a see-saw minimization of <psi (x) phi| W |psi (x) phi>
over product vectors: with one factor frozen, the objective is a 3x3
Hermitian quadratic form in the other, minimized exactly by its lowest
eigenvector.  Alternating the two factors yields a non-increasing value
sequence; restarting from Haar-random products gives a block-positivity
estimate that is an upper bound on the true product minimum.

The lowest eigenpairs come from `_lowest`: a closed form (trigonometric
Cardano root, adjugate column, Rayleigh quotient) for a batch of at least
CLOSED_FORM_MIN_ROWS forms, LAPACK's ``eigh`` for a smaller batch and for
the rows of a large one whose lowest pair is not well separated.  A restart
run alone therefore takes LAPACK where its batch took the closed form, and
the two runs can differ by roundoff.

Also here: the collection of zero-expectation product vectors with their
span rank (the standard optimality evidence for a witness).  The Choi-matrix
test lives beside choi_witness in witnesses, and the indecomposability
certificate from the PPT probe family is a closed form in geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Integral
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import Array

SEESAW_TOL = 1e-11  # a restart stops at its first alternation that lowers its value by less
ZERO_VALUE_TOL = 1e-9
DEDUP_TOL = 1e-6
SPAN_RANK_TOL = 1e-8

# Below this many forms `_lowest` calls LAPACK's batched eigh.  On see-saw forms (numpy 2.4,
# 2-core Xeon, best of 21 timeit runs) the closed form costs about 47 us fixed and 0.2 us per
# form, eigh 7 us fixed and 2 us per form.  eigh against the closed form: 49 against 53 us at
# 24 forms, 74 against 65 at 28, 84 against 59 at 32, 444 against 84 at 200.
CLOSED_FORM_MIN_ROWS = 32
# A form whose two lowest eigenvalues lie closer than this times p (the spread of its
# spectrum, p^2 = ||H - tr(H) I/3||_F^2 / 6) goes to eigh.  Forced onto the closed form, 4,000
# random forms U diag(-1, -1 + g, [0.5, 2]) U^H per gap g gave Rayleigh quotients at most 2 ulp
# of 3 max |H_ij| above eigvalsh's lowest value (as eigh's own vectors) down to g = 1e-5, then
# 107 ulp at 1e-6 and 1e5 ulp at 1e-7, growing as g^-3: the tolerance leaves a factor 100.
CLOSED_FORM_GAP_TOL = 1e-4


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
    less than ``SEESAW_TOL``.  ``history[t]`` holds every restart's value after
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

    Hermitian up to roundoff; `_lowest` reads only the lower triangle, as
    ``np.linalg.eigh`` does, so no symmetrization pass is needed.
    """
    outer = (x.conj()[:, :, None] * x[:, None, :]).reshape(-1, 9)
    return (outer @ M).reshape(-1, 3, 3)


# The entries read, (H00, H11, H22, x, y, z) with x = H10, y = H20, z = H21: their rows,
# columns and row-major flat indices, and how often each occurs in the full matrix.
_LOWER_ROW, _LOWER_COL = np.array([0, 1, 2, 1, 2, 2]), np.array([0, 1, 2, 0, 0, 1])
_LOWER = 3 * _LOWER_ROW + _LOWER_COL
_LOWER_WEIGHTS = np.array([1.0, 1, 1, 2, 2, 2])
# Rows of the packed forms E = (b0, b1, b2, x, y, z, x*, y*, z*), one column per form: the
# diagonal b of H - s I for a shift s and the lower triangle with its conjugates.
# det(H - s I) = b0 b1 b2 - b0 |z|^2 - b1 |y|^2 - b2 |x|^2 + 2 Re(x z y*).
_DET_TERMS = np.array([(0, 1, 2), (0, 8, 5), (1, 7, 4), (2, 6, 3), (3, 5, 7)]).T
_DET_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 2.0])
# Entry (r, c) of adj(H - s I), row-major: E[i] E[j] - E[k] E[l].
_ADJUGATE = np.array([
    (1, 2, 5, 8),  # b1 b2 - z z*
    (7, 5, 2, 6),  # y* z - b2 x*
    (6, 8, 1, 7),  # x* z* - b1 y*
    (4, 8, 2, 3),  # y z* - b2 x
    (2, 0, 4, 7),  # b2 b0 - y y*
    (3, 7, 0, 8),  # x y* - b0 z*
    (3, 5, 1, 4),  # x z - b1 y
    (6, 4, 0, 5),  # x* y - b0 z
    (0, 1, 3, 6),  # b0 b1 - x x*
]).T
# r = cos(3 phi) < this  <=>  lambda2 - lambda1 = 2 sqrt(3) p sin(phi) > CLOSED_FORM_GAP_TOL p.
_SEPARATED = np.cos(3 * np.arcsin(CLOSED_FORM_GAP_TOL / (2 * np.sqrt(3))))


def _lowest(H: Array) -> tuple[Array, Array]:
    """Lowest eigenvalue and a unit eigenvector of each 3x3 Hermitian form in an (n, 3, 3) stack.

    Reads the diagonal's real part and the lower triangle, as ``np.linalg.eigh`` does.  A
    batch of fewer than CLOSED_FORM_MIN_ROWS forms goes to eigh.  Otherwise, with q = tr(H)/3
    and the spread p of CLOSED_FORM_GAP_TOL, the lowest eigenvalue is q + 2 p cos(phi +
    2 pi/3), phi = acos(r)/3, r = det(H - q I) / (2 p^3) (Kopp, Int. J. Mod. Phys. C 19, 523
    (2008)).  For a simple eigenvalue lambda, adj(H - lambda I) is a positive multiple of v v^H,
    so its column with the largest diagonal entry is the eigenvector, normalized.  The value
    returned is that vector's Rayleigh quotient Re v^H H v.  Rows whose two lowest eigenvalues
    are closer than CLOSED_FORM_GAP_TOL p, and rows with p outside [1e-50, 1e50], where p^3 and
    |adj|^2 would leave the float range, get eigh's pair instead.
    """
    n = len(H)
    if n < CLOSED_FORM_MIN_ROWS:
        w, v = np.linalg.eigh(H)
        return w[:, 0], v[:, :, 0]
    lower = H.reshape(n, 9).T[_LOWER]
    E = np.empty((9, n), complex)
    E[3:6] = lower[3:]
    np.conjugate(lower[3:], out=E[6:])
    # Rows sent to eigh below may divide by zero or overflow here; their results are replaced.
    with np.errstate(all="ignore"):
        # A shift by the rounded q leaves a trace of about eps |q|, which would move r by that
        # over p; a second shift by the remainder leaves about eps p.
        b = lower[:3].real - lower[:3].real.sum(0) / 3
        E[:3] = b - b.sum(0) / 3
        spread2 = _LOWER_WEIGHTS @ (E[:6].real ** 2 + E[:6].imag ** 2) / 6
        spread = np.sqrt(spread2)
        terms = E[_DET_TERMS]
        r = _DET_SIGNS @ (terms[0] * terms[1] * terms[2]).real / (2 * spread2 * spread)
        simple = (r < _SEPARATED) & (spread > 1e-50) & (spread < 1e50)
        E[:3] -= 2 * spread * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3 + 2 * np.pi / 3)
        factors = E[_ADJUGATE]
        adj = factors[0] * factors[1] - factors[2] * factors[3]
        v = adj[np.arange(0, 9, 3)[:, None] + adj[::4].real.argmax(0), np.arange(n)]
        outer = v.conj()[_LOWER_ROW] * v[_LOWER_COL]
        norm2 = outer[:3].real.sum(0)
        values = _LOWER_WEIGHTS @ (outer * lower).real / norm2
        v = (v / np.sqrt(norm2)).T
    if not simple.all():
        close = ~simple
        w, vecs = np.linalg.eigh(H[close])
        values[close], v[close] = w[:, 0], vecs[:, :, 0]
    return values, v


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


def _seesaw_batch(W4: Array, psi: Array, phi: Array, max_iters: int) -> SeeSawResult:
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
    SEESAW_TOL.  Every alternation runs on the compacted set of running restarts:
    their factors in one (2, n, 3) stack, with their betas and values beside
    it, in batch order.  A restart's factors, iteration count and converged
    flag are written to the result once, when it stops or reaches max_iters.
    Its result depends on its own start alone, up to roundoff: the batched
    9x9 products round differently for a different number of rows, and
    `_lowest` takes LAPACK or the closed form by batch size.  For a given
    batch it is bitwise reproducible.
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
        new_psi = _lowest(_contract(x[1], M_psi))[1]
        new_value, new_phi = _lowest(_contract(new_psi, M_phi))
        new = np.array((new_psi, new_phi))
        if t > 1:
            trial = _extrapolate(x, new, beta)
            u = _products(trial[0], trial[1])
            trial_value = ((u.conj() @ W) * u).sum(1).real
            accept = trial_value < new_value
            new = np.where(accept[:, None], trial, new)
            new_value = np.where(accept, trial_value, new_value)
            beta = np.where(accept, 1.5 * beta, np.maximum(0.5 * beta, 0.1))
        stop = value - new_value < SEESAW_TOL
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


def _run_seesaw(W, cfg: SeeSawConfig) -> SeeSawResult:
    M = linalg.require_hermitian(W)
    W4 = M.reshape(3, 3, 3, 3)
    rng = np.random.default_rng(cfg.rng_seed)
    psi0 = _random_units(rng, cfg.restarts)
    phi0 = _random_units(rng, cfg.restarts)
    return _seesaw_batch(W4, psi0, phi0, cfg.max_iters)


def min_product_expectation(W, cfg: SeeSawConfig | None = None) -> ProductVectorPair:
    """Best product-vector expectation found by the restarted see-saw.

    The returned value is an upper bound on min <psi (x) phi|W|psi (x) phi>.
    The pair is the first restart, in restart order, that attains the
    smallest value.
    """
    cfg = cfg or SeeSawConfig()
    res = _run_seesaw(W, cfg)
    best = np.argmin(res.values)
    return ProductVectorPair(res.psi[best], res.phi[best], float(res.values[best]))


def zero_product_vectors(W, cfg: SeeSawConfig | None = None) -> list[ProductVectorPair]:
    """Distinct see-saw limits with value <= ZERO_VALUE_TOL on a block-positive W.

    Candidates are taken by value, tied values in restart order, and each is
    kept unless an earlier kept one lies within DEDUP_TOL of it in the
    projective distance 1 - |<u, v>| of the product vectors u = psi (x) phi,
    which ignores their phases.  May return an empty list (e.g. strictly
    positive W).
    """
    cfg = cfg or SeeSawConfig()
    res = _run_seesaw(W, cfg)
    zero = np.flatnonzero(res.values <= ZERO_VALUE_TOL)
    zero = zero[np.argsort(res.values[zero], kind="stable")]
    U = _products(res.psi[zero], res.phi[zero])
    close = 1.0 - np.abs(U.conj() @ U.T) <= DEDUP_TOL
    # Greedy scan in order: a candidate survives unless an earlier survivor is close.
    # Only candidates with a close later partner can drop anything; usually there are none.
    keep = np.ones(len(zero), dtype=bool)
    for i in np.flatnonzero(np.triu(close, 1).any(axis=1)):
        if keep[i]:
            keep[i + 1 :] &= ~close[i, i + 1 :]
    return [ProductVectorPair(res.psi[r], res.phi[r], float(res.values[r])) for r in zero[keep]]


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
    return int(np.sum(w > SPAN_RANK_TOL * w[-1]))
