"""The two-parameter families of unital positive maps on 3x3 matrices.

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
angles' coefficients are scalar formulas and live in geometry; this module
holds the maps themselves as numpy arrays.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .forms import _ROWS
from .geometry import MapParams, _n_float, _require_slice
from .linalg import Array

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
