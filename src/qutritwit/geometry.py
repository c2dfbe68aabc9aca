"""Closed-form geometry of the parameter plane, in scalar arithmetic only.

Everything here is a formula in (a, b, c), evaluated in the parameters' own
arithmetic (exact for int and Fraction input) and rounded once: the
classification of Phi[a,b,c], the plane a+b+c = 2 and the ellipse
bc = (1-a)^2 swept by the O(2) rotation angles, the eps-interval on which
the PPT probe family rho_eps detects the witness, the critical weight of
each witness kind, the certified-separable region (spa_region) of the
structural physical approximation, and the indecomposability certificate.
The module imports no numpy, so commands that print only these numbers start
without it; the matrix constructions live in witnesses.

Every point is held in one form, (A, B, C, D) with (a, b, c) = (A, B, C)/D:
integers over one denominator for exact input, (a, b, c, 1.0) in float
otherwise.  Each decision is one _side call on a difference written once on
that form (B*C - (D-A)^2, 4*(B*C) - (2D-A)^2, A+B+C - 2D, A - 2D): the sign of
an integer for exact input, the sign up to roundoff for float input.  Each
exact value is one Fraction(n, d), and each rounded float one true division
n / d; Python rounds an int/int division correctly, so it has the bits of
float() of the same value taken in Fraction arithmetic.  The probe family
rho_eps and the critical weight read a float point as the rationals its
floats hold, so their values are exact and rounded once for every input;
a value with a square root, such as an end of the detection interval, is
bracketed by one integer square root and rounded once (_round_with_root),
and a root of an integer cubic, such as W~'s least eigenvalue, is found by
bisection over the floats on the cubic's exact sign (_nearest).
"""

from __future__ import annotations

import enum
import sys
from collections import namedtuple
from fractions import Fraction
from math import cos, inf, isfinite, isqrt, lcm, pi, sin, sqrt, ulp
from struct import unpack
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


def spa_region(b: Number, c: Number) -> bool:
    """True when the diagonal remainder is PSD: 2b+c >= 1 and 2c+b >= 1; b and c must be finite."""
    _require_finite(b=b, c=c)
    return _in_region(b, c, 1)


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


def _arc(alpha: float, sign: float) -> list[float]:
    """so2_coeffs's (a, b, c), each at least 0, at (sign cos alpha, sign sin alpha) for alpha reduced to [0, 2 pi)."""
    _require_finite(alpha=alpha)
    alpha = float(alpha) % (2 * pi)
    ca, sa = sign * cos(alpha), sign * sin(alpha)
    return [max((2 / 3) * x, 0.0) for x in (1 + ca, 1 - ca / 2 - (sqrt(3) / 2) * sa, 1 - ca / 2 + (sqrt(3) / 2) * sa)]


def so2_coeffs(alpha: float) -> MapParams:
    """Parameters traced out by proper rotations; a+b+c = 2 and bc = (1-a)^2.

    alpha = pi gives the reduction map (0,1,1); alpha = 0 gives
    (4/3, 1/3, 1/3); alpha = +-pi/3 give the Choi map pair (1,0,1), (1,1,0).
    """
    return MapParams(*_arc(alpha, 1.0))


def improper_coeffs(alpha: float) -> MapParams:
    """Parameters traced out by improper rotations T(alpha) diag(1, -1); same ellipse identities.
    They are so2_coeffs's formulas at (-cos alpha, -sin alpha), an exact negation, with a and b swapped."""
    b, a, c = _arc(alpha, -1.0)
    return MapParams(a, b, c)


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
    """n / d rounded once; inf where it is beyond the float range or d is 0."""
    try:
        return n / d if d else inf
    except OverflowError:
        return inf


def _round_with_root(m: int, *maps: tuple[int, int, int, int]) -> tuple[float, ...]:
    """Each (p sqrt(m) + q) / (r sqrt(m) + t) of maps' integers (p, q, r, t), rounded once
    through _ratio, for an integer m >= 0 and denominators of one sign (or 0) near sqrt(m).

    One isqrt(m << 2k) brackets sqrt(m) 2^k in [lo, hi]: hi = lo where the root is exact,
    else lo + 1.  A map is monotone there, so its value lies between its values at lo and
    hi over 2^k, and k grows until those two round to the same float for every map: the
    value rounded once, ties included.  k = 0 comes first, where an exact root takes one
    small division per map, then 64, doubling.
    """
    k = 0
    while True:
        m2k = m << 2 * k
        lo = isqrt(m2k)
        hi = lo + (lo * lo != m2k)
        values = []
        for p, q, r, t in maps:
            q, t = q << k, t << k
            x = _ratio(p * lo + q, r * lo + t)
            if hi != lo and x != _ratio(p * hi + q, r * hi + t):
                break
            values.append(x)
        else:
            return tuple(values)
        k = 2 * k or 64


# Ordinals number the floats in order: a float's bits, mirrored below zero (both zeros are 0).
# _TOP, the bits of inf, stands one place past the largest float, for 2^1024.
_TOP = 0x7FF0_0000_0000_0000


def _ordinal_ratio(k: int) -> tuple[int, int]:
    """The float at ordinal k as integers (n, d) with value n/d; +-2^1024 at +-_TOP."""
    if abs(k) >= _TOP:
        return (1 << 1024 if k > 0 else -(1 << 1024)), 1
    return unpack("<d", (k if k >= 0 else (1 << 63) - k).to_bytes(8, "little"))[0].as_integer_ratio()


def _nearest(side) -> float:
    """The one root r of side rounded to the nearest float, ties to even, as float(r) would be.

    side(n, d) is the sign of n/d - r.  Bisection over the ordinals from -2^1024 to 2^1024
    leaves two adjacent ones lo < r <= hi, and the sign at their midpoint picks one; a root
    in (-2^-1075, 0) picks ordinal 0 and gives -0.0.  Raises OverflowError where r rounds
    beyond the float range.
    """
    lo, hi = -_TOP, _TOP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if side(*_ordinal_ratio(mid)) >= 0 else (mid, hi)
    (ln, ld), (hn, hd) = _ordinal_ratio(lo), _ordinal_ratio(hi)
    n, d = ln * hd + hn * ld, 2 * ld * hd  # the midpoint
    s = side(n, d)
    if s == 0:
        return float(Fraction(n, d))  # a tie, rounded to even
    k = lo if s > 0 else hi
    if abs(k) >= _TOP:
        raise OverflowError("the value is beyond the float range")
    if k == 0 and side(0, 1) > 0:  # a negative root that rounds to zero
        return -0.0
    n, d = _ordinal_ratio(k)
    return n / d


def detects_rho_family(p: MapParams) -> Optional[tuple[float, float]]:
    """Open interval of eps with Tr(rho_eps W[a,b,c]) < 0, or None.

    The sign of the detection value is that of q(eps) = b eps^2 + (a-2) eps
    + c, negative somewhere on eps > 0 iff a < 2 and bc < (2-a)^2/4 (a
    positive discriminant): classify's _side decisions, so a positive non-CP
    map has an interval iff it is indecomposable.  Its ends are the roots
    2c/s and s/(2b), s = (2-a) + sqrt((2-a)^2 - 4bc), so neither cancels: on
    the integer form 2C / (N + sqrt(disc)) and (N + sqrt(disc)) / (2B), with
    N = 2D - A and disc = N^2 - 4BC, each the exact root rounded once by
    _round_with_root.  An end beyond the float range is 0.0 or inf, and the
    upper end is inf at b = 0.
    """
    if not _detects(p):
        return None
    A, B, C, D = _integers(p)
    N = 2 * D - A
    return _round_with_root(N * N - 4 * B * C, (0, 2 * C, 1, N), (1, N, 0, 2 * B))


def _tilde_side(p: MapParams):
    """The sign test side(n, d) of W~'s least eigenvalue lam on the plane: the sign of n/d - lam.

    On the integer form W~ is (1/t) [diag(w) - D J] on the |ii>, w = (A, B, C) + D in some order
    and t = 3(A+B+C), and diagonal off them.  The |ii> have Rayleigh quotients A/t, B/t and C/t,
    the values of the six entries off them, so lam is the block's: the one root below min(w)/t of
    det(diag(w) - D J - t x), a cubic symmetric in (A, B, C), whose sign is read with no rounding.
    """
    _require_slice(p)
    A, B, C, D = _integers(p)
    t = 3 * (A + B + C)
    w = (A + D, B + D, C + D)
    floor = min(w)

    def side(n: int, d: int) -> int:
        nt = n * t
        if nt >= d * floor:  # n/d >= min(w)/t lies above the root
            return 1
        u0, u1, u2 = (d * x - nt for x in w)  # det(diag(u) - d D J), the cubic times (t d)^3
        f = u0 * u1 * u2 - d * D * (u0 * u1 + u0 * u2 + u1 * u2)
        return (f < 0) - (f > 0)

    return side


def critical_p(p: MapParams, kind: str = "standard") -> float:
    """The critical weight p* = 9|lam| / (1 + 9|lam|) of the witness of a kind ("standard",
    "tilde" or "u_conjugated") on the plane a+b+c = 2, for its least eigenvalue lam < 0, else 0,
    rounded once from the integer form (exact, or the rationals a float point's floats hold).

    W and W_U share the least eigenvalue (a-2)/6 for a < 2, so their p* is t/(2 + t), t = 3(2-a),
    and 0 for a >= 2, where the witness is PSD.  W~'s p* is the root in (0, 1) of lam = -p / (9 (1 - p)),
    which falls as p rises: x - p* has the sign of lam - lam(x), read from _tilde_side's cubic.
    """
    if kind == "tilde":
        side = _tilde_side(p)  # the plane check
        if side(0, 1) <= 0:  # 0 <= lam
            return 0.0
        # x = n/d outside (0, 1) lies on its own side of p*; inside it, lam(x) = -n / (9 (d - n)).
        return _nearest(lambda n, d: (1 if n > 0 else -1) if n <= 0 or n >= d else -side(-n, 9 * (d - n)))
    if kind not in ("standard", "u_conjugated"):
        raise ValueError(f"unsupported kind {kind!r}")
    _require_slice(p)
    if _cp_side(p) >= 0:
        return 0.0
    A, _, _, D = _integers(p)
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
