"""Closed-form geometry of the parameter plane, in scalar arithmetic only.

Everything here is a formula in (a, b, c), evaluated in the parameters' own
arithmetic (exact for int and Fraction input) and rounded once: the
classification of Phi[a,b,c], the plane a+b+c = 2 and the ellipse
bc = (1-a)^2 swept by the O(2) rotation angles, the eps-interval on which
the PPT probe family rho_eps detects the witness, the critical weight of the
structural physical approximation and the indecomposability certificate.
The module imports no numpy, so commands that print only these numbers start
without it; the matrix constructions live in maps, witnesses, states and spa.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import cos, inf, isfinite, pi, sin, sqrt, ulp
from typing import Optional

# Inputs of size <= 2 built on a boundary miss it by at most 2 ulp(2) per unit
# of the boundary's gradient; _side forgives 16.
_SIDE_TOL = 16 * ulp(2.0)

Number = float | int | Fraction


def _numpy_scalar(x) -> bool:
    """Whether x is a numpy scalar; none exists until numpy is imported, so numpy is not."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.generic)


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
            if _numpy_scalar(x):
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
    b, c = (x.item() if _numpy_scalar(x) else x for x in (b, c))
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


def detection_value_exact(p: MapParams, eps: Number) -> Number:
    """Closed form of Tr(rho_eps W[a,b,c]), N (b eps^2 + (a-2) eps + c) / eps, unrounded.

    One expression in the parameters' own arithmetic: for exact parameters eps
    becomes a Fraction and so does the value, so its sign survives the
    cancellation near the vertex as b -> c.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if p.is_exact:
        eps = Fraction(eps.item() if _numpy_scalar(eps) else eps)
    a, b, c = p.astuple()
    return n_abc(p) * (b * eps * eps + (a - 2) * eps + c) / eps


def detection_value(p: MapParams, eps: Number) -> float:
    """Tr(rho_eps W[a,b,c]): detection_value_exact rounded once."""
    return float(detection_value_exact(p, eps))


def detects_rho_family(p: MapParams) -> Optional[tuple[float, float]]:
    """Open interval of eps with Tr(rho_eps W[a,b,c]) < 0, or None.

    The sign of the detection value is that of q(eps) = b eps^2 + (a-2) eps
    + c, negative somewhere on eps > 0 iff a < 2 and bc < (2-a)^2/4 (a
    positive discriminant): classify's _side decisions, so a positive non-CP
    map has an interval iff it is indecomposable.  Its ends are the roots 2c/s
    and s/(2b), s = (2-a) + sqrt((2-a)^2 - 4bc), so neither cancels.  2-a is
    taken in the parameters' own arithmetic; for exact input, 2-a, b and c are
    first scaled by a power of two that brings 2-a to at least 1/2, so that
    neither end is lost where 2-a is below the float range; the scale cancels
    in both ends and, where 2-a is a normal float, changes no bit of them.  The
    upper end is inf when the scaled b is 0 in float.
    """
    a, b, c = p.astuple()
    if _side(a, 2, 1) >= 0 or _decomposable_side(p) >= 0:
        return None
    d = 2 - a
    k = d.denominator.bit_length() - d.numerator.bit_length() if p.is_exact else 0
    if k > 0:
        d, b, c = d * (1 << k), b * (1 << k), c * (1 << k)
    bf = float(b)
    s = float(d) + 2 * sqrt(float(d**2 / 4 - b * c))
    return (2 * float(c) / s, s / (2 * bf) if bf else inf)


def critical_p(p: MapParams) -> float:
    """Closed-form critical weight on the plane a+b+c = 2, rounded once from exact input.

    Returns 0 for a >= 2, where the witness is already PSD.
    """
    _require_slice(p)
    if _side(p.a, 2, 1) >= 0:
        return 0.0
    t = 3 * (2 - p.a)
    return float(t / (2 + t))


def indecomposability_certificate(p: MapParams) -> Optional[tuple[Number, float]]:
    """A PPT probe state with negative expectation against W[a,b,c].

    Returns (eps, value) with value = Tr(rho_eps W[a,b,c]) < 0 when the
    detection interval is non-empty, else None.  eps is the vertex (2-a)/(2b),
    or c/(2-a) + 1 when b = 0, in the parameters' own arithmetic (a Fraction
    for exact input), so no rounding moves it onto an end of the interval.
    """
    if detects_rho_family(p) is None:
        return None
    a, b, c = p.astuple()
    eps = (2 - a) / (2 * b) if b else c / (2 - a) + 1
    return eps, detection_value(p, eps)
