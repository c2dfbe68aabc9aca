"""Two-qutrit entanglement witnesses built from the map families.

Every witness here is the Choi operator of a unital positive map against the
maximally entangled projector P+ = |psi+><psi+|, |psi+> = 3^{-1/2} sum |ii>.
The map acts on the first (row-block) tensor factor, so the 9x9 matrices come
out with the diagonal pattern grouped by the first index:

    W[a,b,c]  = N/3 * [ diag blocks (a,b,c)/(c,a,b)/(b,c,a), -1 on |ii><jj| ]
    W~[a,b,c] = 1/6 * [ diag blocks (a,b,c)/(b,c,a)/(c,a,b), -1 on |ii><jj| ]

The improper-family witnesses W~ are decomposable: W~ = (P + Q^G)/6 with
explicit PSD blocks P, Q, Q^G the partial transpose of Q on the second
factor.  Conjugating W by the local permutation U (x) I that swaps the second
and third levels of the first qutrit gives W_U, which shares the diagonal of
W~ but keeps the detection power of W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from . import linalg
from .gellmann import default_basis
from .geometry import MapParams, Number, _ellipse_side, _require_slice, improper_coeffs, n_abc, so2_coeffs
from .linalg import DOUBLES, PLUS_ONE, PLUS_TWO, Array, partial_transpose
from .maps import _ROWS, LinearMap3, _rows

# Each witness kind: the map family whose rows fill its diagonal, and the flat indices carrying
# the -1 grid.  U (x) I sends the |ii> to |11>, |32>, |23> and the circulant rows to the improper.
_KINDS = {
    "standard": ("circulant", DOUBLES),
    "tilde": ("improper", DOUBLES),
    "u_conjugated": ("improper", (DOUBLES[0], PLUS_ONE[1], PLUS_TWO[2])),
}

_J_MINUS_I = 1 - np.eye(3)  # made once: np.eye costs as much as the rest of the P block


@dataclass(frozen=True)
class WitnessMatrix:
    """A 9x9 Hermitian witness with its parameters and construction tag."""

    matrix: Array
    params: Optional[MapParams]
    kind: str

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def min_eigenvalue(self) -> float:
        return linalg.min_eigenvalue(self.matrix)


@dataclass(frozen=True)
class DecompositionCertificate:
    """PSD pair (P, Q) with P + Q^G = scale * W~ on the second-factor
    partial transpose; a constructive proof of decomposability."""

    P: Array
    Q: Array
    scale: ClassVar[float] = 6.0

    def residual(self, witness: "WitnessMatrix | Array") -> float:
        W = linalg.as_matrix(witness)
        return float(np.linalg.norm(self.P + partial_transpose(self.Q) - self.scale * W))


def _form(p: MapParams, kind: str) -> tuple[Number, list[Number], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The structured form (pref, scaled, rows, doubles) of a witness kind: with
    scaled = pref * (a, b, c), the 9x9 entries are scaled[rows[i][l]] at
    (3i+l, 3i+l) and -pref off the diagonal of the doubles block, zero
    elsewhere, with pref = N/3.  Evaluated in the parameters' own arithmetic
    (exact for rationals).  The kinds other than "standard" are defined on the
    plane a+b+c = 2.
    """
    if kind not in _KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if kind != "standard":
        _require_slice(p)
    family, doubles = _KINDS[kind]
    pref = n_abc(p) / 3
    return pref, [pref * x for x in p.astuple()], _ROWS[family], doubles


def _witness(p: MapParams, kind: str) -> WitnessMatrix:
    pref, scaled, rows, doubles = _form(p, kind)
    values = [float(x) for x in scaled]
    diagonal = [values[k] for row in rows for k in row]
    return WitnessMatrix(linalg.structured(diagonal, -float(pref), doubles), p, kind)


def witness_matrix(p: MapParams) -> WitnessMatrix:
    """Witness of the circulant-family map with parameters (a, b, c)."""
    return _witness(p, "standard")


def witness_tilde_matrix(p: MapParams) -> WitnessMatrix:
    """Witness of the improper-family map; defined on the plane a+b+c = 2."""
    return _witness(p, "tilde")


def witness_u(p: MapParams) -> WitnessMatrix:
    """Local-unitary conjugation (U (x) I) W[a,b,c] (U (x) I)^dagger.

    U is a permutation, so the entries are those of W moved to new places;
    they are built directly.  Defined on the plane a+b+c = 2.
    """
    return _witness(p, "u_conjugated")


def choi_witness(phi: LinearMap3 | Callable[[Array], Array]) -> WitnessMatrix:
    """Choi operator (1/3) sum_ij Phi(|i><j|) (x) |i><j| of a map.

    The map is applied to the first tensor factor of the maximally entangled
    projector, matching the row-major composite convention.  For a LinearMap3
    this is (1/3) sum_ab S_ab f_a (x) conj(f_b), one contraction with the basis.
    """
    if isinstance(phi, LinearMap3):
        if not np.isfinite(phi.superop).all():  # the contraction would warn first
            raise ValueError("superoperator has a non-finite entry")
        F = default_basis().stacked
        images = (F.T @ phi.superop @ F.conj()).T  # row 3i + j: Phi(E_ij) = sum_ab S_ab (f_b)_ji f_a
    else:
        images = np.array([phi(E) for E in np.eye(9, dtype=complex).reshape(9, 3, 3)], dtype=complex)
    # Complex division turns an inf into NaN, with a RuntimeWarning: check first.
    if not np.isfinite(images).all():
        raise ValueError("map image has a non-finite entry")
    # Phi(E_ij)[k, l] lands at row 3k + i, column 3l + j.
    W = images.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    return WitnessMatrix(W / 3.0, None, "choi")


def decompose_tilde(p: MapParams) -> DecompositionCertificate:
    """Decomposability certificate (P, Q) with P + Q^G = 6 W~[a,b,c].

    With R the improper-family rows [[a,b,c],[b,c,a],[c,a,b]] and J the
    all-ones 3x3 matrix, P is R - (J - I) on the |ii> block and

        Q = sum_{i<j} R_ij (|ij> - |ji>)(<ij| - <ji|),

    both evaluated at the point itself.  Q >= 0 since a, b, c >= 0.  On the
    plane the P block has trace a+b+c = 2, sends (1,1,1) to zero, and its 2x2
    principal minors sum to 3(bc - (1-a)^2): its other two eigenvalues have
    sum 2 and that product, so P >= 0 exactly on the region bc >= (1-a)^2.
    """
    _require_slice(p)
    if _ellipse_side(p) < 0:
        raise ValueError(f"parameters {p} are outside the region bc >= (1-a)^2")
    R = _rows(p, "improper")
    P = linalg.structured(None, R - _J_MINUS_I, DOUBLES)
    Q = np.zeros((9, 9), dtype=complex)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        s, t = 3 * i + j, 3 * j + i  # |ij>, |ji>
        Q[s, s] = Q[t, t] = R[i, j]
        Q[s, t] = Q[t, s] = -R[i, j]
    return DecompositionCertificate(P, Q)


def mix_witnesses(
    standard_weights: Sequence[tuple[float, float]], tilde_weights: Sequence[tuple[float, float]] = ()
) -> WitnessMatrix:
    """Convex combination of rotation-angle witnesses from both families.

    Each entry is an (angle, weight) atom; weights must be non-negative and
    sum to one.  The mixture is again a witness, but its (in)decomposability
    is not controlled, so the result carries the 'mixed' tag and no
    parameters.
    """
    weights = [w for _, w in standard_weights] + [w for _, w in tilde_weights]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be non-negative")
    if abs(sum(weights) - 1.0) > 1e-10:
        raise ValueError("mixture weights must sum to one")
    M = np.zeros((9, 9), dtype=complex)
    for alpha, w in standard_weights:
        M += w * witness_matrix(so2_coeffs(alpha)).matrix
    for alpha, w in tilde_weights:
        M += w * witness_tilde_matrix(improper_coeffs(alpha)).matrix
    return WitnessMatrix(M, None, "mixed")


# ---------------------------------------------------------------------------
# Serialization shared with the command-line interface.
# ---------------------------------------------------------------------------


def matrix_entries(M: Array) -> list[list[list[float]]]:
    """Row-major nested entries [[re, im], ...] for JSON output."""
    A = linalg.as_matrix(M)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def exact_witness_entries(p: MapParams, kind: str = "standard") -> list[list[str]]:
    """The witness entries as exact rational strings "p/q".

    Only available when the parameters are rational numbers; the entries are
    rational multiples of the parameters in every construction used here.
    """
    if not p.is_exact:
        raise ValueError("exact entries require rational parameters")
    pref, scaled, rows, doubles = _form(p, kind)
    values = [str(x) for x in scaled]
    grid = [["0"] * 9 for _ in range(9)]
    minus = str(-pref)
    for i in doubles:
        for j in doubles:
            grid[i][j] = minus
    for k, x in enumerate(values[pos] for row in rows for pos in row):
        grid[k][k] = x
    return grid
