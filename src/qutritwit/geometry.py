"""Closed-form geometry of the parameter plane, in scalar arithmetic only.

Everything here is a formula in (a, b, c), evaluated in the parameters' own
arithmetic (exact for int and Fraction input) and rounded once: the
classification of Phi[a,b,c], the plane a+b+c = 2 and the ellipse
bc = (1-a)^2 swept by the O(2) rotation angles, the eps-interval on which
the PPT probe family rho_eps detects the witness, the critical weight of the
structural physical approximation and the indecomposability certificate.
The module imports no numpy, so commands that print only these numbers start
without it; the matrix constructions live in maps, witnesses, states and spa.

Every point is held in one form, (A, B, C, D) with (a, b, c) = (A, B, C)/D:
integers over one denominator for exact input, (a, b, c, 1.0) in float
otherwise.  Each decision is one _side call on a difference written once on
that form (B*C - (D-A)^2, 4*(B*C) - (2D-A)^2, A+B+C - 2D, A - 2D): the sign of
an integer for exact input, the sign up to roundoff for float input.  Each
exact value is one Fraction(n, d), and each rounded float one true division
n / d; Python rounds an int/int division correctly, so it has the bits of
float() of the same value taken in Fraction arithmetic.  The probe family
rho_eps reads a float point as the rationals its floats hold, so its values
are exact and rounded once for every input.
"""

from __future__ import annotations

import enum
import sys
from collections import namedtuple
from fractions import Fraction
from math import cos, gcd, inf, isfinite, lcm, pi, sin, sqrt, ulp
from typing import Optional

# Inputs of size <= 2 built on a boundary miss it by at most 2 ulp(2) per unit
# of the boundary's gradient; _side forgives 16.
_SIDE_TOL = 16 * ulp(2.0)

Number = float | int | Fraction


def _numpy_scalar(x) -> bool:
    """Whether x is a numpy scalar; none exists until numpy is imported, so numpy is not."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.generic)


class MapParams:
    """Non-negative triple (a, b, c) selecting a map from either family.

    Entries may be floats or fractions (an int is stored as a Fraction);
    exact rational arithmetic is preserved wherever the construction formulas
    allow it.  The attribute ints holds an all-Fraction point as integers
    (A, B, C, D) with (a, b, c) = (A, B, C)/D, D the lcm of the three
    denominators, and is None when any entry is a float.
    Every decision and float formula reads _abcd, ints or else (float(a),
    float(b), float(c), 1.0): input mixing floats and Fractions is its float twin.

    The record is immutable: assigning an attribute raises AttributeError.
    Equality, hash, repr, pickling and copies are those of (a, b, c) alone.
    """

    __slots__ = ("a", "b", "c", "ints", "_abcd", "_float_ints")
    __match_args__ = ("a", "b", "c")

    def __init__(self, a: Number, b: Number, c: Number):
        abc = []
        for name, x in zip("abc", (a, b, c)):
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
            abc.append(x)
        a, b, c = abc
        if min(a, b, c) < 0:
            raise ValueError(f"parameters must be non-negative, got {self}")
        ints = None
        # A float is tested first: the Fraction test of a float goes through ABCMeta and is slow.
        if not isinstance(a, float) and isinstance(a, Fraction) and isinstance(b, Fraction) and isinstance(c, Fraction):
            D = lcm(a.denominator, b.denominator, c.denominator)
            ints = (*(x.numerator * (D // x.denominator) for x in (a, b, c)), D)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "_abcd", ints or (float(a), float(b), float(c), 1.0))
        if sum(self._abcd[:3]) == 0:
            raise ValueError("parameter sum must be positive")
        if ints is None and not 0 < _n_float(self) < inf:  # every float formula reads N; exact input keeps it exact
            raise ValueError(f"N = 1/(a+b+c) must be a finite positive float, got a+b+c = {sum(self._abcd[:3])}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: MapParams is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: MapParams is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    def __reduce__(self):
        return self.__class__, (self.a, self.b, self.c)

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.astuple()) + ")"

    def astuple(self) -> tuple[Number, Number, Number]:
        return (self.a, self.b, self.c)

    def asfloats(self) -> tuple[float, float, float]:
        A, B, C, D = self._abcd
        return (A / D, B / D, C / D)

    @property
    def is_exact(self) -> bool:
        return self.ints is not None

    def on_slice(self) -> bool:
        """Whether the point lies on the plane a+b+c = 2: the _plane_side decision classify reads."""
        return _plane_side(self) == 0


class Positivity(enum.Enum):
    NOT_POSITIVE = "not_positive"
    POSITIVE_NOT_CP = "positive_not_cp"
    COMPLETELY_POSITIVE = "completely_positive"


class Decomposability(enum.Enum):
    DECOMPOSABLE = "decomposable"
    INDECOMPOSABLE = "indecomposable"
    UNKNOWN = "unknown"


MapClass = namedtuple("MapClass", ("positivity", "decomposability"))


def n_abc(p: MapParams) -> Number:
    """Normalization 1/(a+b+c) that makes the map unital."""
    if p.ints is None:  # float input rounds D/(A+B+C); exact input keeps it a Fraction
        return _n_float(p)
    A, B, C, D = p.ints
    return Fraction(D, A + B + C)


def _n_float(p: MapParams) -> float:
    """n_abc(p) as a float, rounded once: for exact parameters one int/int division D/(A+B+C)."""
    A, B, C, D = p._abcd
    return D / (A + B + C)


def _require_slice(p: MapParams) -> None:
    if not p.on_slice():
        raise ValueError(f"parameters {p} are off the plane a+b+c = 2")


def _side(diff: Number, slope: Number) -> int:
    """Sign of the difference diff = lhs - rhs (-1, 0 or +1), exact for an int or Fraction diff.

    slope is the 1-norm of the gradient of diff in (A, B, C) at the point, taken
    in the operands' own arithmetic; only an inexact diff reads it.  With any
    other diff (a float or a numpy scalar), |diff| <= 16 ulp(2) * slope is
    roundoff: the point is on the boundary (0).  A NaN diff reads 0 as well,
    so input from outside the package is checked to be finite first.
    """
    # An int, then a float, is tested first: the Fraction test goes through ABCMeta and is slow.
    if type(diff) is not int and (isinstance(diff, float) or not isinstance(diff, Fraction)):
        if abs(diff) <= _SIDE_TOL * slope:
            return 0
    return 1 if diff > 0 else -1 if diff < 0 else 0


def _plane_side(p: MapParams) -> int:
    """Side of the plane a+b+c = 2."""
    A, B, C, D = p._abcd
    return _side(A + B + C - 2 * D, 3)


def _cp_side(p: MapParams) -> int:
    """Side of the line a = 2; 0 and +1 are the completely positive maps."""
    A, _, _, D = p._abcd
    return _side(A - 2 * D, 1)


def _ellipse_side(p: MapParams) -> int:
    """Side of the ellipse bc = (1-a)^2; +1 is the region bc > (1-a)^2."""
    A, B, C, D = p._abcd
    return _side(B * C - (D - A) ** 2, B + C + 2 * abs(D - A))


def _decomposable_side(p: MapParams) -> int:
    """Side of the line 4bc = (2-a)^2; -1 is the region bc < (2-a)^2/4, indecomposable when positive not CP."""
    A, B, C, D = p._abcd
    return _side(4 * (B * C) - (2 * D - A) ** 2, 4 * (B + C) + 2 * abs(2 * D - A))


def _in_region(B: Number, C: Number, D: Number) -> bool:
    """Whether (b, c) = (B, C)/D has 2b+c >= 1 and 2c+b >= 1, read from a point's form."""
    return _side(2 * B + C - D, 3) >= 0 and _side(2 * C + B - D, 3) >= 0


def _require_finite(**values: Number) -> None:
    """Reject a NaN or infinite argument with a ValueError naming it; an int or Fraction always passes."""
    for name, x in values.items():
        if not -inf < x < inf:  # a NaN fails both comparisons
            raise ValueError(f"parameter {name} must be finite, got {x}")


def classify(p: MapParams) -> MapClass:
    """Positivity class and decomposability flag of Phi[a,b,c].

    The map is completely positive iff a >= 2.  For a < 2 it is positive
    (but not CP) iff a+b+c >= 2 and, when a <= 1, bc >= (1-a)^2.  A positive
    non-CP member is indecomposable iff bc < (2-a)^2 / 4; completely positive
    maps are decomposable outright, so the criterion is not applied to them.
    Each boundary comparison is one _side decision: exact for exact input
    (the sign of an integer polynomial), and for float input a point within
    roundoff of a boundary gets the verdict of a point on it.
    """
    if _cp_side(p) >= 0:
        return MapClass(Positivity.COMPLETELY_POSITIVE, Decomposability.DECOMPOSABLE)
    if _plane_side(p) < 0:  # off the plane, on its lower side
        return MapClass(Positivity.NOT_POSITIVE, Decomposability.UNKNOWN)
    if p._abcd[0] <= p._abcd[3] and _ellipse_side(p) < 0:  # a <= 1
        return MapClass(Positivity.NOT_POSITIVE, Decomposability.UNKNOWN)
    if _decomposable_side(p) < 0:
        return MapClass(Positivity.POSITIVE_NOT_CP, Decomposability.INDECOMPOSABLE)
    return MapClass(Positivity.POSITIVE_NOT_CP, Decomposability.DECOMPOSABLE)


def slice_params(b: Number, c: Number) -> MapParams:
    """Lift (b, c) to the plane a+b+c = 2, i.e. (2-b-c, b, c); b and c must be finite."""
    # As in MapParams, so that 2 - b - c of two float32 lands on the plane.
    b, c = (x.item() if _numpy_scalar(x) else x for x in (b, c))
    _require_finite(b=b, c=c)
    if b < 0 or c < 0 or _side(b + c - 2, 2) > 0:
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
    """Reduce a finite angle in radians to [0, 2*pi)."""
    _require_finite(alpha=alpha)
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


def _over_one_denominator(xs) -> tuple[int, ...]:
    """Floats as integers over their largest (power-of-two) denominator: (*numerators, denominator)."""
    ratios = [x.as_integer_ratio() for x in xs]
    D = max([d for _, d in ratios])
    return (*[n * (D // d) for n, d in ratios], D)


def _integers(p: MapParams) -> tuple[int, int, int, int]:
    """(A, B, C, D) with (a, b, c) = (A, B, C)/D: ints, or a float point's floats, made on first use."""
    ints = p.ints or getattr(p, "_float_ints", None)
    if ints is None:  # a float point's first use: building it leaves the slot empty
        ints = _over_one_denominator(p._abcd[:3])
        object.__setattr__(p, "_float_ints", ints)
    return ints


def _detection_ratio(p: MapParams, e: int, f: int, kind: str) -> tuple[int, int]:
    """Tr(rho_eps W) of a kind's witness W at eps = e/f > 0, as integers (n, d) with value n/d:
    (B e^2 + (A-2D) e f + C f^2) / ((A+B+C) e f) for standard; on the plane, where each index group of
    W~ and W_U holds one copy of a, b and c, (e-f)^2 / (3ef) for tilde, (e^2 + ef + f^2) / (3ef) for u_conjugated."""
    if kind == "standard":
        A, B, C, D = _integers(p)
        return B * e * e + (A - 2 * D) * e * f + C * f * f, (A + B + C) * e * f
    if kind not in ("tilde", "u_conjugated"):
        raise ValueError(f"unsupported kind {kind!r}")
    _require_slice(p)
    return (e - f) ** 2 if kind == "tilde" else e * e + e * f + f * f, 3 * e * f


def detection_value_exact(p: MapParams, eps: Number, kind: str = "standard") -> Number:
    """Tr(rho_eps W) for the witness W of a kind, exact for the parameters and eps as given: a Fraction for
    exact parameters (its sign survives the cancellation near the vertex as b -> c), else detection_value."""
    if not 0 < eps < inf:  # a NaN fails both; a Fraction beyond the float range is below inf
        raise ValueError(f"eps must be finite and positive, got {eps}")
    n, d = _detection_ratio(p, *(eps.item() if _numpy_scalar(eps) else eps).as_integer_ratio(), kind)
    if p.ints is not None:
        return Fraction(n, d)
    try:
        return n / d
    except OverflowError:
        raise OverflowError(f"the detection value at eps = {eps} overflows a float") from None


def detection_value(p: MapParams, eps: Number, kind: str = "standard") -> float:
    """Tr(rho_eps W) for the witness W of a kind ("standard", or "tilde" and "u_conjugated" on the plane
    a+b+c = 2): detection_value_exact rounded once, or OverflowError beyond the float range."""
    return float(detection_value_exact(p, eps, kind))


def _detects(p: MapParams) -> bool:
    """Whether q(eps) = b eps^2 + (a-2) eps + c is negative somewhere on eps > 0: a < 2 and bc < (2-a)^2/4."""
    return _cp_side(p) < 0 and _decomposable_side(p) < 0


def _ratio(n: int, d: int) -> float:
    """n / d rounded once; inf where it is beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return inf


def detects_rho_family(p: MapParams) -> Optional[tuple[float, float]]:
    """Open interval of eps with Tr(rho_eps W[a,b,c]) < 0, or None.

    The sign of the detection value is that of q(eps) = b eps^2 + (a-2) eps
    + c, negative somewhere on eps > 0 iff a < 2 and bc < (2-a)^2/4 (a
    positive discriminant): classify's _side decisions, so a positive non-CP
    map has an interval iff it is indecomposable.  Its ends are the roots 2c/s
    and s/(2b), s = (2-a) + sqrt((2-a)^2 - 4bc), so neither cancels, from the
    integer form with 2-a, b and c scaled by the power of two that brings 2-a
    to at least 1/2: neither end is lost where 2-a is below the float range,
    and where it is a normal float the scale changes no bit.  The upper end is
    inf when the scaled b is 0 in float.  Where the scaled b or c is beyond the
    float range, each end is rounded once from its ratio to s (inf beyond it).
    """
    if not _detects(p):
        return None
    A, B, C, D = _integers(p)
    N = 2 * D - A  # 2-a = N/D; k is read from it in lowest terms, as from the Fraction 2-a
    g = gcd(N, D)
    k = max((D // g).bit_length() - (N // g).bit_length(), 0)
    Bk, Ck = B << k, C << k  # the scaled b and c, over D
    s = (N << k) / D + 2 * sqrt(((N * N - 4 * B * C) << 2 * k) / (4 * D * D))
    try:
        bf, cf = Bk / D, Ck / D
    except OverflowError:  # the scaled bc is below 1/4, so the other of the two is small
        sn, sd = s.as_integer_ratio()
        return (_ratio(2 * Ck * sd, D * sn), _ratio(D * sn, 2 * Bk * sd) if B else inf)
    return (2 * cf / s, s / (2 * bf) if bf else inf)


def critical_p(p: MapParams) -> float:
    """Closed-form critical weight on the plane a+b+c = 2, rounded once from exact input.

    Returns 0 for a >= 2, where the witness is already PSD.
    """
    _require_slice(p)
    if _cp_side(p) >= 0:
        return 0.0
    A, _, _, D = p._abcd
    t = 3 * (2 * D - A)
    return t / (2 * D + t)


def indecomposability_certificate(p: MapParams) -> Optional[tuple[Number, float]]:
    """A PPT probe state with negative expectation against W[a,b,c].

    Returns (eps, value) with value = detection_value(p, eps) < 0 when the
    detection interval is non-empty, else None.  eps is the vertex (2-a)/(2b),
    or c/(2-a) + 1 when b = 0, from the integer form: a Fraction for exact
    input (no rounding moves it onto an end of the interval; it may lie beyond
    the float range), and for float input the nearest float, or OverflowError.
    """
    if not _detects(p):
        return None
    A, B, C, D = _integers(p)
    e, f = (2 * D - A, 2 * B) if B else (C + 2 * D - A, 2 * D - A)
    if p.ints is None:  # float input: the float nearest the vertex, and the value there
        return e / f, detection_value(p, e / f)
    n, d = _detection_ratio(p, e, f, "standard")
    return Fraction(e, f), n / d
