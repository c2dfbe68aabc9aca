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
the Gell-Mann basis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import cos, isfinite, pi, sin, sqrt, ulp

import numpy as np

from .gellmann import OrthonormalBasis, default_basis
from .linalg import Array

ORTHOGONALITY_TOL = 1e-10
# Inputs of size <= 2 built on a boundary miss it by at most 2 ulp(2) per unit
# of the boundary's gradient; _side forgives 16.
_SIDE_TOL = 16 * ulp(2.0)

Number = float | int | Fraction


@dataclass(frozen=True)
class MapParams:
    """Non-negative triple (a, b, c) selecting a map from either family.

    Entries may be floats or fractions (an int is stored as a Fraction);
    exact rational arithmetic is preserved wherever the construction formulas
    allow it.  The attribute total holds a + b + c.
    """

    a: Number
    b: Number
    c: Number

    def __post_init__(self):
        for name, x in zip("abc", self.astuple()):
            if isinstance(x, np.generic):
                # A numpy scalar becomes the Python number it holds: a float32 gets
                # float64 arithmetic, an int64 the exact path.
                x = x.item()
            if isinstance(x, int):
                x = Fraction(x)  # so that int input rounds once, as Fraction input does
            object.__setattr__(self, name, x)
            try:
                finite = isfinite(x)
            except OverflowError:
                raise ValueError(f"parameter {name} is too large for a float") from None
            if not finite:
                raise ValueError(f"parameter {name} must be finite, got {x}")
        if min(self.a, self.b, self.c) < 0:
            raise ValueError(f"parameters must be non-negative, got {self}")
        # Kept as an attribute, not a field: equality, hash and repr stay those of (a, b, c).
        object.__setattr__(self, "total", self.a + self.b + self.c)
        if self.total == 0:
            raise ValueError("parameter sum must be positive")

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.astuple()) + ")"

    def astuple(self) -> tuple[Number, Number, Number]:
        return (self.a, self.b, self.c)

    def asfloats(self) -> tuple[float, float, float]:
        return (float(self.a), float(self.b), float(self.c))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.total, Fraction)  # a Fraction exactly when a, b and c all are

    def on_slice(self) -> bool:
        """Whether the point lies on the plane a+b+c = 2: the _side decision classify reads."""
        return _side(self.total, 2, 3) == 0


class Positivity(enum.Enum):
    NOT_POSITIVE = "not_positive"
    POSITIVE_NOT_CP = "positive_not_cp"
    COMPLETELY_POSITIVE = "completely_positive"


class Decomposability(enum.Enum):
    DECOMPOSABLE = "decomposable"
    INDECOMPOSABLE = "indecomposable"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class MapClass:
    positivity: Positivity
    decomposability: Decomposability


def n_abc(p: MapParams) -> Number:
    """Normalization 1/(a+b+c) that makes the map unital."""
    return 1 / p.total


def _require_slice(p: MapParams) -> None:
    if not p.on_slice():
        raise ValueError(f"parameters {p} are off the plane a+b+c = 2")


def _side(lhs: Number, rhs: Number, slope: Number) -> int:
    """Sign of lhs - rhs (-1, 0 or +1), exact when both are int or Fraction.

    slope is the 1-norm of the gradient of lhs - rhs in (a, b, c) at the point;
    only an inexact operand reads it, so callers may take it in float.  With any
    other operand (a float or a numpy scalar), |lhs - rhs| <= 16 ulp(2) * slope
    is roundoff: the point is on the boundary (0).
    """
    # A float is tested first: the Fraction test of a float goes through ABCMeta and is slow.
    if isinstance(lhs, float) or not (isinstance(lhs, (int, Fraction)) and isinstance(rhs, (int, Fraction))):
        if abs(lhs - rhs) <= _SIDE_TOL * slope:
            return 0
    return int(lhs > rhs) - int(lhs < rhs)


def _ellipse_side(p: MapParams) -> int:
    """Side of the ellipse bc = (1-a)^2; +1 is the region bc > (1-a)^2."""
    a, b, c = p.astuple()
    fa, fb, fc = p.asfloats()
    return _side(b * c, (1 - a) ** 2, fb + fc + 2 * abs(1 - fa))


def _decomposable_side(p: MapParams) -> int:
    """Side of the line 4bc = (2-a)^2; -1 is the region bc < (2-a)^2/4, indecomposable when positive not CP."""
    a, b, c = p.astuple()
    fa, fb, fc = p.asfloats()
    return _side(b * c, (2 - a) ** 2 / 4, fb + fc + abs(2 - fa) / 2)


# Rows of each family's diagonal action (up to normalization and the +1 on
# the diagonal), as positions in (a, b, c); the module docstring shows them.
_ROWS = {
    "circulant": ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
    "improper": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
}


def _rows(p: MapParams, kind: str) -> Array:
    """The family's diagonal-action rows as a float 3x3 array."""
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
    return float(n_abc(p)) * (apply_D(p, X) - X)


def apply_phi_tilde(p: MapParams, X) -> Array:
    """Improper-family map applied to X."""
    X = np.asarray(X, dtype=complex)
    return float(n_abc(p)) * (_diagonal_action(p, X, "improper") - X)


def classify(p: MapParams) -> MapClass:
    """Positivity class and decomposability flag of Phi[a,b,c].

    The map is completely positive iff a >= 2.  For a < 2 it is positive
    (but not CP) iff a+b+c >= 2 and, when a <= 1, bc >= (1-a)^2.  A positive
    non-CP member is indecomposable iff bc < (2-a)^2 / 4; completely positive
    maps are decomposable outright, so the criterion is not applied to them.
    Each boundary comparison is a _side decision, so a float within roundoff
    of a boundary gets the verdict of a point on it.
    """
    a, b, c = p.astuple()
    if _side(a, 2, 1) >= 0:
        return MapClass(Positivity.COMPLETELY_POSITIVE, Decomposability.DECOMPOSABLE)
    if not p.on_slice() and p.total < 2:  # off the plane, on its lower side
        return MapClass(Positivity.NOT_POSITIVE, Decomposability.UNKNOWN)
    if a <= 1 and _ellipse_side(p) < 0:
        return MapClass(Positivity.NOT_POSITIVE, Decomposability.UNKNOWN)
    if _decomposable_side(p) < 0:
        return MapClass(Positivity.POSITIVE_NOT_CP, Decomposability.INDECOMPOSABLE)
    return MapClass(Positivity.POSITIVE_NOT_CP, Decomposability.DECOMPOSABLE)


def slice_params(b: Number, c: Number) -> MapParams:
    """Lift (b, c) to the plane a+b+c = 2, i.e. (2-b-c, b, c)."""
    # As in MapParams, so that 2 - b - c of two float32 lands on the plane.
    b, c = (x.item() if isinstance(x, np.generic) else x for x in (b, c))
    if b < 0 or c < 0 or _side(b + c, 2, 2) > 0:
        raise ValueError(f"(b, c) = ({b}, {c}) is outside the simplex")
    return MapParams(max(2 - b - c, 0 * b), b, c)  # b + c may pass 2 by roundoff


def on_ellipse(p: MapParams) -> bool:
    """True when bc = (1-a)^2 (a _side decision).  Input must satisfy a+b+c = 2."""
    _require_slice(p)
    return _ellipse_side(p) == 0


def dual(p: MapParams) -> MapParams:
    """Adjoint under the trace pairing: Tr[X Phi(Y)] = Tr[Phi#(X) Y].

    Swapping b and c transposes the diagonal action, which is exactly the
    adjoint for this family.
    """
    return MapParams(p.a, p.c, p.b)


def normalize_angle(alpha: float) -> float:
    """Reduce an angle in radians to [0, 2*pi)."""
    return float(alpha) % (2 * pi)


def so2_coeffs(alpha: float) -> MapParams:
    """Parameters traced out by proper rotations; a+b+c = 2 and bc = (1-a)^2.

    alpha = pi gives the reduction map (0,1,1); alpha = 0 gives
    (4/3, 1/3, 1/3); alpha = +-pi/3 give the Choi map pair (1,0,1), (1,1,0).
    """
    alpha = normalize_angle(alpha)
    a = (2 / 3) * (1 + cos(alpha))
    b = (2 / 3) * (1 - cos(alpha) / 2 - (sqrt(3) / 2) * sin(alpha))
    c = (2 / 3) * (1 - cos(alpha) / 2 + (sqrt(3) / 2) * sin(alpha))
    return MapParams(max(a, 0.0), max(b, 0.0), max(c, 0.0))


def improper_coeffs(alpha: float) -> MapParams:
    """Parameters traced out by improper rotations; same ellipse identities."""
    alpha = normalize_angle(alpha)
    a = (2 / 3) * (1 + cos(alpha) / 2 + (sqrt(3) / 2) * sin(alpha))
    b = (2 / 3) * (1 - cos(alpha))
    c = (2 / 3) * (1 + cos(alpha) / 2 - (sqrt(3) / 2) * sin(alpha))
    return MapParams(max(a, 0.0), max(b, 0.0), max(c, 0.0))


def so2_rotation(alpha: float) -> Array:
    """Proper rotation T(alpha) in O(2), det = +1."""
    ca, sa = cos(alpha), sin(alpha)
    return np.array([[ca, -sa], [sa, ca]])


def improper_rotation(alpha: float) -> Array:
    """Reflection T~(alpha) in O(2), det = -1."""
    ca, sa = cos(alpha), sin(alpha)
    return np.array([[ca, sa], [sa, -ca]])


def rotation_block(T: Array) -> Array:
    """Embed T in O(2) as diag(T, -I_6) acting on (d_1, d_2, u.., v..)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.linalg.norm(T.T @ T - np.eye(2)) > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    R = -np.eye(8)
    R[:2, :2] = T
    return R


@dataclass(frozen=True)
class LinearMap3:
    """A Hermiticity-preserving linear map stored by its action matrix in the
    Gell-Mann basis: if x_l = Tr(f_l X) then Phi(X) has coefficients S x; X may be a stack."""

    superop: Array
    kind: str
    basis: OrthonormalBasis

    def __call__(self, X) -> Array:
        return self.basis.from_coefficients(self.basis.coefficients(X) @ self.superop.T)

    @classmethod
    def _from_stack_map(cls, fn, kind: str) -> "LinearMap3":
        """The map whose images of the stacked basis (m, n, n) fn returns in one call."""
        basis = default_basis()
        S = basis.coefficients(fn(basis.stacked.reshape(len(basis), basis.n, basis.n))).T
        if np.max(np.abs(S.imag)) > 1e-12:
            raise ValueError("map is not Hermiticity-preserving")
        return cls(S.real, kind, basis)


def phi_map(p: MapParams) -> LinearMap3:
    """Circulant-family map packaged with its basis-action matrix."""
    return LinearMap3._from_stack_map(lambda F: apply_phi(p, F), "circulant")


def phi_tilde_map(p: MapParams) -> LinearMap3:
    """Improper-family map packaged with its basis-action matrix."""
    return LinearMap3._from_stack_map(lambda F: apply_phi_tilde(p, F), "improper")


def phi_from_rotation(R: Array) -> LinearMap3:
    """Unital positive map built from an orthogonal rotation of the traceless
    basis sector:

        Phi_R(X) = (1/n) I Tr X + 1/(n-1) * sum_kl f_k R_kl Tr(f_l X).

    With R = diag(T(alpha), -I_6) this reproduces the circulant family at the
    proper-rotation parameters, and the improper family for reflections.
    """
    basis = default_basis()
    n, m = basis.n, len(basis) - 1
    R = np.asarray(R, dtype=float)
    if R.shape != (m, m):
        raise ValueError(f"rotation must be {m}x{m} for n = {n}")
    if np.linalg.norm(R.T @ R - np.eye(m)) > ORTHOGONALITY_TOL:
        raise ValueError("rotation matrix is not orthogonal within tolerance")
    S = np.eye(m + 1)
    S[1:, 1:] = R / (n - 1)
    return LinearMap3(S, "rotation-general", basis)


def stochastic_matrix(p: MapParams, kind: str = "circulant") -> Array:
    """Doubly stochastic 3x3 matrix characterizing the diagonal action.

    The circulant family yields N * [[a,b,c],[c,a,b],[b,c,a]]; the improper
    family yields (1/2) * [[a,b,c],[b,c,a],[c,a,b]] and is not circulant.
    """
    if kind == "circulant":
        scale = float(n_abc(p))
    elif kind == "improper":
        _require_slice(p)
        scale = 0.5
    else:
        raise ValueError("kind must be 'circulant' or 'improper'")
    return scale * _rows(p, kind)
