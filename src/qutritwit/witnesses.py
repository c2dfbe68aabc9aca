"""The two-parameter families of unital positive maps on 3x3 matrices and the
two-qutrit operators built from them: the maps' entanglement witnesses, the
PPT probe states and the structural physical approximation (SPA), all as
numpy arrays.

The circulant family acts as

    Phi[a,b,c](X) = N (D[a,b,c](X) - X),        N = 1 / (a+b+c),

where D[a,b,c] returns the diagonal matrix with entries

    ( (a+1) x11 + b x22 + c x33,
      c x11 + (a+1) x22 + b x33,
      b x11 + c x22 + (a+1) x33 ).

The improper family Phi~[a,b,c] replaces D by the non-circulant pattern

    ( (a+1) x11 + b x22 + c x33,
      b x11 + (c+1) x22 + a x33,
      c x11 + a x22 + (b+1) x33 ).

Special members on the plane a+b+c = 2: the reduction map at (0,1,1), the
Choi map and its dual at (1,1,0) and (1,0,1).  The boundary of the positivity
region on that plane is the ellipse bc = (1-a)^2, swept by O(2) rotation
angles; both families are recovered from a general rotation construction over
the Gell-Mann basis.  The parameters, their classification and the rotation
angles' coefficients are scalar formulas and live in geometry.

Maps act on the qutrit Gell-Mann basis, ordered (f_0, d_1, d_2, u_12, u_13,
u_23, v_12, v_13, v_23), where, for 1-based kets |1>, |2>, |3>,

    f_0  = I_3 / sqrt(3),
    d_1  = ( |1><1| - |2><2| ) / sqrt(2),
    d_2  = ( |1><1| + |2><2| - 2 |3><3| ) / sqrt(6),
    u_kl = ( |k><l| + |l><k| ) / sqrt(2),
    v_kl = -i ( |k><l| - |l><k| ) / sqrt(2),          for k < l.

All elements are Hermitian, f_1, ..., f_8 are traceless, and the set is
orthonormal under the Hilbert-Schmidt pairing Tr(f_a f_b) = delta_ab.  The
ordering is contractual: rotation blocks acting on span{d_1, d_2} rely on the
diagonal elements coming directly after f_0.  Row a of the read-only GELLMANN
is the row-major vec(f_a), so the coefficients c_a = Tr(f_a X) of X, or of a
stack (..., 3, 3), are vec(X^T) @ GELLMANN.T, and c @ GELLMANN rebuilds X.

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
W~ but keeps the detection power of W.  Each kind is one form,
forms._form(p, kind), which the 9x9 builders (through forms.witness_form),
forms.exact_witness_entries and the SPA state read; the certificate's P and
Q are forms.tilde_form.  Also here: any map's Choi operator and the Choi
criterion for complete positivity (is_cp_choi).

The probe states are the unnormalized one-parameter family

    rho_eps = sum_ij |ii><jj| + eps * sum_i |i,i+1><i,i+1|
                               + (1/eps) * sum_i |i,i+2><i,i+2|,

with the level arithmetic i+1, i+2 cyclic on {1,2,3}.  Every member is PPT,
and it is entangled for eps != 1, which makes the family a probe for
indecomposable witnesses: Tr(rho_eps W[a,b,c]) has the closed form
N (b eps^2 + (a-2) eps + c) / eps, negative on an eps-interval exactly when
the discriminant (a-2)^2 - 4bc is positive.  The closed forms of every
witness kind, the interval and the certificate live in geometry, exact and
rounded once for every input.

The SPA mixes a trace-one witness W with white noise: W(p) = (1-p) W + (p/9) I
is PSD from the critical weight p* on.  On the plane a+b+c = 2 with a < 2 the
smallest witness eigenvalue is (a-2)/6, which gives the closed form

    p* = 3(2-a) / (2 + 3(2-a)),

and the critical state admits an explicit decomposition into the separable
blocks sigma_12, sigma_13, sigma_23 plus a diagonal remainder whenever
2b+c >= 1 and 2c+b >= 1, the region that geometry.spa_region decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, inf, sin, ulp
from typing import Callable, ClassVar, Optional

import numpy as np

from . import linalg
from .forms import _ROWS, DOUBLES, TILDE_SCALE, group_diagonal, sigma_pair_form, spa_form, tilde_form, witness_form
from .geometry import MapParams, _n_float, _require_slice
from .linalg import Array, partial_transpose

ORTHOGONALITY_TOL = 1e-10


def _gellmann() -> Array:
    """The rows vec(f_a) of the basis in the module docstring, each divided by its norm."""
    F = np.zeros((9, 3, 3), dtype=complex)
    F[0], F[1], F[2] = np.eye(3), np.diag([1, -1, 0]), np.diag([1, 1, -2])
    for a, (k, l) in enumerate(((0, 1), (0, 2), (1, 2)), start=3):
        F[a, k, l], F[a, l, k] = 1, 1
        F[a + 3, k, l], F[a + 3, l, k] = -1j, 1j
    F = F.reshape(9, 9) / np.sqrt([3, 2, 6, 2, 2, 2, 2, 2, 2])[:, None]
    F.flags.writeable = False  # shared by every expansion, and so are its views
    return F


GELLMANN = _gellmann()


def _rows(p: MapParams, kind: str) -> Array:
    """The family's diagonal-action rows (the row table of forms, positions in (a, b, c), shown
    in the module docstring) as a float 3x3 array."""
    abc = p.asfloats()
    return np.array([[abc[k] for k in row] for row in _ROWS[kind]])


def _diagonal_action(p: MapParams, X, kind: str) -> Array:
    """diag((rows + I) diag(X)) on X or a stack (..., 3, 3): the family's CP part."""
    X = np.asarray(X, dtype=complex)
    D = _rows(p, kind) + np.eye(3)
    out, i = np.zeros_like(X), np.arange(3)
    out[..., i, i] = np.diagonal(X, axis1=-2, axis2=-1) @ D.T
    return out


def apply_D(p: MapParams, X) -> Array:
    """Completely positive diagonal map D[a,b,c]."""
    return _diagonal_action(p, X, "circulant")


def apply_phi(p: MapParams, X) -> Array:
    """Circulant-family map N (D[a,b,c] - id) applied to X."""
    X = np.asarray(X, dtype=complex)
    return _n_float(p) * (apply_D(p, X) - X)


def apply_phi_tilde(p: MapParams, X) -> Array:
    """Improper-family map applied to X."""
    X = np.asarray(X, dtype=complex)
    return _n_float(p) * (_diagonal_action(p, X, "improper") - X)


def so2_rotation(alpha: float) -> Array:
    """Proper rotation T(alpha) in O(2), det = +1."""
    ca, sa = cos(alpha), sin(alpha)
    return np.array([[ca, -sa], [sa, ca]])


def improper_rotation(alpha: float) -> Array:
    """Reflection T~(alpha) = T(alpha) diag(1, -1) in O(2), det = -1: [[cos, sin], [sin, -cos]], the
    second column of so2_rotation negated, which is exact."""
    return so2_rotation(alpha) * [1.0, -1.0]


def _require_orthogonal(R: Array, name: str) -> None:
    """Reject a square R that is not finite (a NaN passes the norm test, an inf warns) or not orthogonal:
    an entry beyond 2 cannot be one of an orthogonal matrix, and would overflow R^T R from about 1e154 on."""
    if not np.isfinite(R).all():
        raise ValueError(f"{name} has a non-finite entry")
    if np.abs(R).max() > 2 or np.linalg.norm(R.T @ R - np.eye(len(R))) > ORTHOGONALITY_TOL:
        raise ValueError(f"{name} is not orthogonal within tolerance")


def rotation_block(T: Array) -> Array:
    """Embed T in O(2) as diag(T, -I_6) acting on (d_1, d_2, u.., v..)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    _require_orthogonal(T, "matrix")
    R = -np.eye(8)
    R[:2, :2] = T
    return R


@dataclass(frozen=True)
class LinearMap3:
    """A Hermiticity-preserving linear map stored by its action matrix in the
    Gell-Mann basis: if x_l = Tr(f_l X) then Phi(X) has coefficients S x; X may be a stack."""

    superop: Array

    def __call__(self, X) -> Array:
        Xt = np.swapaxes(np.asarray(X, dtype=complex), -1, -2)
        x = Xt.reshape(Xt.shape[:-2] + (9,)) @ GELLMANN.T
        return (x @ self.superop.T @ GELLMANN).reshape(Xt.shape)


def _family_map(p: MapParams, kind: str) -> LinearMap3:
    """Superoperator 1 (+) N D^T R D (+) (-N) I_6, R the row table, D's columns the diagonals of d_1, d_2:
    R's rows and columns all sum to a+b+c, so f_0 is fixed, span{d_1, d_2} kept and each u, v scaled by -N."""
    Dt = GELLMANN[1:3, ::4].real  # in a row-major vec the diagonal is every 4th entry
    N = _n_float(p)
    S = np.diag([1.0] + [-N] * 8)
    S[1:3, 1:3] = N * (Dt @ _rows(p, kind) @ Dt.T)
    return LinearMap3(S)


def phi_map(p: MapParams) -> LinearMap3:
    """Circulant-family map packaged with its basis-action matrix."""
    return _family_map(p, "circulant")


def phi_tilde_map(p: MapParams) -> LinearMap3:
    """Improper-family map packaged with its basis-action matrix."""
    return _family_map(p, "improper")


def phi_from_rotation(R: Array) -> LinearMap3:
    """Unital positive map built from an orthogonal rotation of the traceless
    basis sector:

        Phi_R(X) = (1/3) I Tr X + (1/2) sum_kl f_k R_kl Tr(f_l X),

    R an orthogonal 8x8 matrix on (f_1, ..., f_8).  With R = diag(T(alpha), -I_6)
    this reproduces the circulant family at the proper-rotation parameters, and
    the improper family for reflections.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (8, 8):
        raise ValueError("rotation must be 8x8")
    _require_orthogonal(R, "rotation matrix")
    S = np.eye(9)
    S[1:, 1:] = R / 2
    return LinearMap3(S)


def stochastic_matrix(p: MapParams, kind: str = "circulant") -> Array:
    """Doubly stochastic 3x3 matrix characterizing the diagonal action.

    The circulant family yields N * [[a,b,c],[c,a,b],[b,c,a]]; the improper
    family yields (1/2) * [[a,b,c],[b,c,a],[c,a,b]] and is not circulant.
    """
    if kind == "circulant":
        scale = _n_float(p)
    elif kind == "improper":
        _require_slice(p)
        scale = 0.5
    else:
        raise ValueError("kind must be 'circulant' or 'improper'")
    return scale * _rows(p, kind)


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
    scale: ClassVar[float] = TILDE_SCALE


def _witness(p: MapParams, kind: str) -> WitnessMatrix:
    return WitnessMatrix(linalg.structured(*witness_form(p, kind)), p, kind)


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
        # Row 3i + j: Phi(E_ij) = sum_ab S_ab (f_b)_ji f_a.
        images = (GELLMANN.T @ phi.superop @ GELLMANN.conj()).T
    else:
        images = np.array([phi(E) for E in np.eye(9, dtype=complex).reshape(9, 3, 3)], dtype=complex)
    # Complex division turns an inf into NaN, with a RuntimeWarning: check first.
    if not np.isfinite(images).all():
        raise ValueError("map image has a non-finite entry")
    # Phi(E_ij)[k, l] lands at row 3k + i, column 3l + j.
    W = images.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    return WitnessMatrix(W / 3.0, None, "choi")


def is_cp_choi(phi: LinearMap3 | Callable[[Array], Array]) -> bool:
    """Complete positivity via the Choi criterion: the Choi matrix is PSD."""
    return linalg.is_psd(choi_witness(phi).matrix)


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
    P, Q = tilde_form(p)
    return DecompositionCertificate(linalg.structured(*P), linalg.structured(*Q))


@dataclass(frozen=True)
class BipartiteState:
    """A 9x9 Hermitian operator on C^3 (x) C^3, not necessarily trace-one."""

    matrix: Array

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def is_psd(self) -> bool:
        return linalg.is_psd(self.matrix)


def rho_eps(eps: float) -> BipartiteState:
    """The PPT probe state at parameter eps > 0 (kept unnormalized); eps and 1/eps must be finite floats."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        x = float(eps)
    except OverflowError:  # an int or Fraction beyond the float range
        x = inf
    if not (0 < x < inf and 1 / x < inf):  # a NaN fails the first test
        raise ValueError(f"eps and 1/eps must be finite floats, got {eps}")
    return BipartiteState(linalg.structured(group_diagonal(1.0, eps, 1.0 / eps), 1.0, DOUBLES))


def is_ppt(state) -> bool:
    """Positive-partial-transpose test (Peres criterion)."""
    return linalg.is_psd(partial_transpose(linalg.as_matrix(state)))


def sigma_pair(i: int, j: int) -> BipartiteState:
    """Separable building block supported on the levels {i, j} of each factor:

        |ij><ij| + |ji><ji| + (|ii> - |jj>)(<ii| - <jj|).

    PSD, PPT, and supported inside a C^2 (x) C^2 product subspace.
    """
    return BipartiteState(linalg.structured(*sigma_pair_form(i, j)))


@dataclass(frozen=True)
class SpaComponents:
    """Separable pieces with scale * (sum of pieces) = the critical state."""

    sigma_12: BipartiteState
    sigma_13: BipartiteState
    sigma_23: BipartiteState
    sigma_d: BipartiteState
    scale: float

    def reconstruct(self) -> Array:
        total = (
            self.sigma_12.matrix
            + self.sigma_13.matrix
            + self.sigma_23.matrix
            + self.sigma_d.matrix
        )
        return self.scale * total


@dataclass(frozen=True)
class SpaResult:
    p_star: float
    state: BipartiteState
    separable_certified: bool
    components: Optional[SpaComponents]


def spa_mix(W: WitnessMatrix | Array, p: float) -> Array:
    """Noisy witness (1-p) W + (p/9) I; requires a finite W with Tr W = 1 and p in [0, 1]."""
    M = linalg.as_matrix(W)
    if not np.isfinite(M).all():  # a NaN trace would pass the test below
        raise ValueError("matrix has a non-finite entry")
    if abs(np.trace(M).real - 1.0) > 1e-10:
        raise ValueError("structural physical approximation requires Tr W = 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    return (1.0 - p) * M + (p / 9.0) * np.eye(9)


def critical_p_from_witness(W: WitnessMatrix | Array) -> float:
    """Critical weight of any trace-one witness via its smallest eigenvalue:
    p* = 9|lmin| / (1 + 9|lmin|) for lmin < 0, else 0.  An lmin within 16 ulp
    of the spectral norm below zero is the eigensolver's roundoff of a zero eigenvalue."""
    M = linalg.as_matrix(W)
    if abs(np.trace(M).real - 1.0) > 1e-10:
        raise ValueError("requires Tr W = 1")
    spectrum = linalg.eigenvalues(M)
    lmin = float(spectrum[0])
    if lmin >= -16 * ulp(1.0) * max(-lmin, float(spectrum[-1])):
        return 0.0
    return 9 * abs(lmin) / (1 + 9 * abs(lmin))


@lru_cache(maxsize=None)
def _sigma_pairs() -> tuple[BipartiteState, BipartiteState, BipartiteState]:
    """sigma_12, sigma_13 and sigma_23, made once and read-only: every certificate shares them."""
    pairs = (sigma_pair(1, 2), sigma_pair(1, 3), sigma_pair(2, 3))
    for state in pairs:
        state.matrix.flags.writeable = False
    return pairs


def spa_state(p: MapParams) -> SpaResult:
    """Critical noisy witness, read from forms.spa_form, with its separability certificate when available.

    Inside the region 2b+c >= 1, 2c+b >= 1 the state is
    scale * (sigma_12 + sigma_13 + sigma_23 + sigma_d) with
    scale = 1 / (3 (2 + 3(2-a))); outside it no separability claim is made.
    """
    star, state, certificate = spa_form(p)
    components = None
    if certificate is not None:
        scale, sigma_d = certificate
        components = SpaComponents(*_sigma_pairs(), BipartiteState(linalg.structured(sigma_d)), scale)
    return SpaResult(star, BipartiteState(linalg.structured(*state)), certificate is not None, components)
