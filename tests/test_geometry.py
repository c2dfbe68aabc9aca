"""The integer form of exact parameters against the same formulas in Fraction arithmetic.

An all-Fraction MapParams holds its point as integers (A, B, C) over one
denominator D, and geometry and the witnesses read their exact decisions,
values and roundings from them.  Each test below evaluates the formula in
Fraction arithmetic, as the package did before it held that form, and asks
for the same decision, the same Fraction and the same float bits.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import inf, pi, sqrt, ulp

import numpy as np
import pytest

from qutritwit.geometry import (
    MapParams,
    _n_float,
    classify,
    critical_p,
    detection_value,
    detection_value_exact,
    detects_rho_family,
    improper_coeffs,
    indecomposability_certificate,
    n_abc,
    on_ellipse,
    slice_params,
    so2_coeffs,
)
from qutritwit.spa import spa_region, spa_state
from qutritwit.forms import exact_witness_entries
from qutritwit.witnesses import witness_matrix, witness_tilde_matrix, witness_u

TINY = Fraction(1, 10**400)


def _lattice():
    """The 190 exact lattice points (i, j)/9 of the simplex on a+b+c = 2."""
    return [(2 - Fraction(i + j, 9), Fraction(i, 9), Fraction(j, 9)) for i in range(19) for j in range(19 - i)]


def _random_rationals():
    """200 seeded rational points with denominators up to 10^12: half on the plane, half anywhere."""
    rng = random.Random(22)
    points = []
    for k in range(200):
        d = [rng.randint(1, 10**12) for _ in range(3)]
        if k % 2:
            b, c = Fraction(rng.randint(0, d[1]), d[1]), Fraction(rng.randint(0, d[2]), d[2])
            points.append((2 - b - c, b, c))
        else:
            points.append(tuple(Fraction(rng.randint(0, 3 * x), x) for x in d))
    return points


# The 10^400 points of the console-script smoke step.
SMOKE = [(2 - TINY, TINY, 0), (2 - TINY, 0, 1), (2 - TINY, 0, TINY), (1 - TINY, TINY, 1), (2 - TINY, 1, 0)]
# 2-a = 3/4 is 9*2^1020 / (3*2^1022) over the common denominator, a bit-length difference of 0
# where lowest terms give 1, and b is subnormal: the upper end's last bits show which power of
# two scaled it.
SUBNORMAL = [(Fraction(5, 4), Fraction(1, 3 * 2**1022), Fraction(1, 3))]
POINTS = _lattice() + _random_rationals() + SMOKE + SUBNORMAL


def _fractions(t):
    return tuple(Fraction(x) for x in t)


def ref_class(a, b, c):
    if a >= 2:
        return "completely_positive", "decomposable"
    if a + b + c < 2:
        return "not_positive", "unknown"
    if a <= 1 and b * c < (1 - a) ** 2:
        return "not_positive", "unknown"
    return "positive_not_cp", "indecomposable" if 4 * b * c < (2 - a) ** 2 else "decomposable"


def ref_interval(a, b, c):
    """The ends 2c/s and s/(2b) with 2-a, b and c scaled in Fraction by the power of two that brings 2-a to 1/2."""
    if not (a < 2 and 4 * b * c < (2 - a) ** 2):
        return None
    d = 2 - a
    k = d.denominator.bit_length() - d.numerator.bit_length()
    if k > 0:
        d, b, c = d * 2**k, b * 2**k, c * 2**k
    bf = float(b)
    s = float(d) + 2 * sqrt(float(d * d / 4 - b * c))
    return 2 * float(c) / s, s / (2 * bf) if bf else inf


def ref_value(a, b, c, eps):
    eps = Fraction(eps)
    return (b * eps * eps + (a - 2) * eps + c) / ((a + b + c) * eps)


# Diagonal rows of each witness kind, as positions in (a, b, c), and its grid block.
_DOUBLES, _U = (0, 4, 8), (0, 5, 7)
_CIRCULANT, _IMPROPER = ((0, 1, 2), (2, 0, 1), (1, 2, 0)), ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_KINDS = {"standard": (_CIRCULANT, _DOUBLES), "tilde": (_IMPROPER, _DOUBLES), "u_conjugated": (_IMPROPER, _U)}
_BUILDERS = {"standard": witness_matrix, "tilde": witness_tilde_matrix, "u_conjugated": witness_u}


def ref_entries(abc, kind):
    """The 9x9 witness as Fractions: pref * (a, b, c) spread by the row table, -pref on the grid, pref = 1/(3(a+b+c))."""
    rows, block = _KINDS[kind]
    pref = 1 / (3 * sum(abc))
    W = [[Fraction(0)] * 9 for _ in range(9)]
    for r in block:
        for s in block:
            W[r][s] = -pref
    for i, row in enumerate(rows):
        for l, pos in enumerate(row):
            W[3 * i + l][3 * i + l] = pref * abc[pos]
    return W


@pytest.mark.parametrize("t", POINTS)
def test_decisions_match_fraction_arithmetic(t):
    a, b, c = abc = _fractions(t)
    p = MapParams(*t)
    assert p.ints is not None and p.is_exact
    A, B, C, D = p.ints
    assert (Fraction(A, D), Fraction(B, D), Fraction(C, D)) == abc
    cls = classify(p)
    assert (cls.positivity.value, cls.decomposability.value) == ref_class(*abc)
    assert p.on_slice() == (a + b + c == 2)
    assert p.asfloats() == tuple(float(x) for x in abc)
    assert _n_float(p).hex() == float(n_abc(p)).hex() == float(1 / (a + b + c)).hex()
    if p.on_slice():
        assert on_ellipse(p) == (b * c == (1 - a) ** 2)
        t3 = 3 * (2 - a)
        assert critical_p(p) == (0.0 if a >= 2 else float(t3 / (2 + t3)))
    else:
        with pytest.raises(ValueError):
            critical_p(p)


@pytest.mark.parametrize("t", POINTS)
def test_detection_matches_fraction_arithmetic(t):
    a, b, c = abc = _fractions(t)
    p = MapParams(*t)
    try:
        want = ref_interval(*abc)
    except OverflowError:  # only where 2-a is below the float range and c is not: tested below
        want = "overflow"
    if want != "overflow":
        assert detects_rho_family(p) == want
    cert = indecomposability_certificate(p)
    if want is None:
        assert cert is None
    else:
        eps = (2 - a) / (2 * b) if b else c / (2 - a) + 1
        assert type(cert[0]) is Fraction and cert[0] == eps
        assert cert[1] == float(ref_value(*abc, eps))
    for eps in (Fraction(1, 3), 0.5, 7, np.float64(1.25), Fraction(10**30 + 1, 10**15)):
        exact = detection_value_exact(p, eps)
        assert type(exact) is Fraction and exact == ref_value(*abc, eps)
        assert detection_value(p, eps) == float(exact)


@pytest.mark.parametrize("t", _lattice()[::7] + _random_rationals()[::10] + SMOKE)
@pytest.mark.parametrize("kind", _KINDS)
def test_witness_entries_match_fraction_arithmetic(t, kind):
    p = MapParams(*t)
    abc = _fractions(t)
    if kind != "standard" and sum(abc) != 2:  # the other kinds are defined on the plane
        with pytest.raises(ValueError, match="off the plane"):
            exact_witness_entries(p, kind)
        return
    ref = ref_entries(abc, kind)
    assert exact_witness_entries(p, kind) == [[str(x) for x in row] for row in ref]
    W = _BUILDERS[kind](p).matrix
    assert W.tobytes() == np.array([[complex(float(x)) for x in row] for row in ref]).tobytes()



def _float_points():
    """Float input by group: the lattice, seeded random points on and off the plane, and both
    families at 720 rotation angles."""
    rng = np.random.default_rng(26)
    bc = [(b, c) for b, c in rng.uniform(0, 2, (400, 2)) if b + c <= 2]
    angles = [2 * np.pi * k / 720 for k in range(720)]
    return {
        "lattice": [tuple(float(x) for x in t) for t in _lattice()],
        "random_on_plane": [(float(2 - b - c), float(b), float(c)) for b, c in bc],
        "random_off_plane": [tuple(float(x) for x in t) for t in rng.uniform(0, 3, (200, 3))],
        "so2": [so2_coeffs(alpha).astuple() for alpha in angles],
        "improper": [improper_coeffs(alpha).astuple() for alpha in angles],
    }


FLOAT_POINTS = _float_points()


def ref_float_witness(abc, kind):
    """The float witness as the package rounds it: pref = N/3 with N = 1/(a+b+c), each pref * x
    spread by the row table, -pref on the grid."""
    rows, block = _KINDS[kind]
    pref = (1.0 / (abc[0] + abc[1] + abc[2])) / 3
    W = np.zeros((9, 9), dtype=complex)
    W[np.ix_(block, block)] = -pref
    for i, row in enumerate(rows):
        for l, pos in enumerate(row):
            W[3 * i + l, 3 * i + l] = pref * abc[pos]
    return W


@pytest.mark.parametrize("group", FLOAT_POINTS)
@pytest.mark.parametrize("kind", _KINDS)
def test_float_witness_bits(group, kind):
    for abc in FLOAT_POINTS[group]:
        p = MapParams(*abc)
        if kind != "standard" and not p.on_slice():
            with pytest.raises(ValueError, match="off the plane"):
                _BUILDERS[kind](p)
            continue
        assert _BUILDERS[kind](p).matrix.tobytes() == ref_float_witness(abc, kind).tobytes(), (abc, kind)


# A 12^3 grid of extremes, each point as float, exact and mixed (a and c Fractions, b a float) input.
_ULP = Fraction(ulp(1.0))
EXTREMES = [Fraction(x) for x in (0, 5e-324, 1e-300, 0.25, 0.5)] + [1 - _ULP / 4, Fraction(1), 1 + _ULP]
EXTREMES += [2 - _ULP / 2, Fraction(2), 2 + 2 * _ULP, Fraction(1e300)]
_INPUTS = {"float": lambda t: tuple(map(float, t)), "exact": lambda t: t, "mixed": lambda t: (t[0], float(t[1]), t[2])}
# Rejected: the all-zero point, and for float and mixed input the 7 points whose a+b+c is a
# subnormal float, where N = 1/(a+b+c) is inf.  Their exact twins get past construction, and
# their D/T is beyond the float range.
_OUTCOMES = {
    "float": {"rejected": 8, "built": 1720},
    "exact": {"rejected": 1, "overflow": 7, "built": 1720},
    "mixed": {"rejected": 8, "built": 1720},
}


@pytest.mark.parametrize("mode", _INPUTS)
def test_extremes_give_finite_trace_one_witnesses_or_raise(mode):
    outcomes = dict.fromkeys(_OUTCOMES[mode], 0)
    for t in itertools.product(EXTREMES, repeat=3):
        try:
            p = MapParams(*_INPUTS[mode](t))
        except ValueError:
            outcomes["rejected"] += 1
            continue
        try:
            matrices = [build(p).matrix for kind, build in _BUILDERS.items() if kind == "standard" or p.on_slice()]
        except OverflowError:
            assert mode == "exact", t
            outcomes["overflow"] += 1
            continue
        for W in matrices:
            assert np.isfinite(W).all() and abs(np.trace(W).real - 1) <= 1e-12, (mode, t)
        outcomes["built"] += 1
    assert outcomes == _OUTCOMES[mode]

def test_ends_beyond_the_float_range():
    # a = 2 - 1e-400: with b = 0, c = 1 the interval is (10^400, inf); with b = 1, c = 0 it is
    # (0, 1e-400).  Scaling 2-a to 1/2 puts the scaled c (or b) beyond the float range; each
    # end is rounded once from its ratio instead.
    assert detects_rho_family(MapParams(2 - TINY, 0, 1)) == (inf, inf)
    assert detects_rho_family(MapParams(2 - TINY, 1, 0)) == (0.0, 0.0)
    assert detects_rho_family(MapParams(2 - TINY, 0, TINY)) == (1.0, inf)


class TestMapParamsRecord:
    def test_ints_over_the_lcm(self):
        p = MapParams(Fraction(1, 6), Fraction(3, 4), 2)
        assert p.ints == (2, 9, 24, 12)

    def test_equality_hash_and_repr_are_those_of_abc(self):
        p, q = MapParams(Fraction(1, 2), 1, Fraction(1, 2)), MapParams(0.5, 1.0, 0.5)
        assert p == q and hash(p) == hash(q) == hash((Fraction(1, 2), Fraction(1), Fraction(1, 2)))
        assert repr(p) == "MapParams(a=Fraction(1, 2), b=Fraction(1, 1), c=Fraction(1, 2))"
        assert p != MapParams(Fraction(1, 2), 1, Fraction(1, 3)) and p != (Fraction(1, 2), 1, Fraction(1, 2))
        with pytest.raises(AttributeError):
            p.a = Fraction(1, 3)
        with pytest.raises(AttributeError):
            p.ints = None
        assert p.a == Fraction(1, 2) and p.ints == (1, 2, 1, 2)

    @pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
    def test_pickle_and_copy_keep_the_form(self, clone):
        p = MapParams(Fraction(1, 3), Fraction(2, 3), 1)
        q = clone(p)
        assert q == p and q.ints == p.ints and q.is_exact
        assert classify(q) == classify(p) and detects_rho_family(q) == detects_rho_family(p)

    @pytest.mark.parametrize(
        "t", [(Fraction(1), 1.0, 0), (1.0, Fraction(1), 0), (Fraction(1, 3), Fraction(2, 3), 1.0)], ids=["a", "b", "c"]
    )
    def test_mixed_input_takes_the_float_path(self, t):
        p = MapParams(*t)
        assert p.ints is None and not p.is_exact
        with pytest.raises(ValueError, match="rational"):
            exact_witness_entries(p)
        q = MapParams(*(float(x) for x in t))
        assert witness_matrix(p).matrix.tobytes() == witness_matrix(q).matrix.tobytes()
        assert type(detection_value_exact(p, Fraction(1, 2))) is float


# ---------------------------------------------------------------------------
# Float decisions at the edge of the tolerance, against the README's rule.
# ---------------------------------------------------------------------------

TOL = 16 * ulp(2.0)


def ref_side(lhs, rhs, slope):
    """The README's rule in float: |lhs - rhs| <= 16 ulp(2) * slope is on the boundary."""
    d = lhs - rhs
    return 0 if abs(d) <= TOL * slope else 1 if d > 0 else -1


# Each boundary as (lhs, rhs, slope) at a float point (a, b, c); the decomposability line in its
# unscaled form bc against (2-a)^2/4, with slope b + c + |2-a|/2.
RULES = {
    "plane": lambda a, b, c: (a + b + c, 2, 3),
    "a=2": lambda a, b, c: (a, 2, 1),
    "ellipse": lambda a, b, c: (b * c, (1 - a) ** 2, b + c + 2 * abs(1 - a)),
    "decomposable": lambda a, b, c: (b * c, (2 - a) ** 2 / 4, b + c + abs(2 - a) / 2),
    "b+c=2": lambda a, b, c: (b + c, 2, 2),
    "2b+c=1": lambda a, b, c: (2 * b + c, 1, 3),
    "2c+b=1": lambda a, b, c: (2 * c + b, 1, 3),
}


def ref_decisions(a, b, c):
    side = {name: ref_side(*rule(a, b, c)) for name, rule in RULES.items()}
    if side["a=2"] >= 0:
        cls = ("completely_positive", "decomposable")
    elif side["plane"] < 0 or (a <= 1 and side["ellipse"] < 0):
        cls = ("not_positive", "unknown")
    else:
        cls = ("positive_not_cp", "indecomposable" if side["decomposable"] < 0 else "decomposable")
    on_slice = side["plane"] == 0
    region = side["2b+c=1"] >= 0 and side["2c+b=1"] >= 0
    return {
        "classify": cls,
        "on_slice": on_slice,
        "on_ellipse": side["ellipse"] == 0 if on_slice else ValueError,
        "spa_region": region,
        "certified": region if on_slice and side["a=2"] < 0 else ValueError,
        "detects": side["a=2"] < 0 and side["decomposable"] < 0,
    }


def _attempt(f):
    try:
        return f()
    except ValueError:
        return ValueError


def decisions(p):
    cls = classify(p)
    return {
        "classify": (cls.positivity.value, cls.decomposability.value),
        "on_slice": p.on_slice(),
        "on_ellipse": _attempt(lambda: on_ellipse(p)),
        "spa_region": spa_region(p.b, p.c),
        "certified": _attempt(lambda: spa_state(p).separable_certified),
        "detects": detects_rho_family(p) is not None,
    }


# (boundary, base point on it, direction of the offset): a point (a, b, c), or a pair (b, c)
# lifted to the plane by slice_params.
EDGES = {
    "plane": ("plane", (1.25, 0.5, 0.25), (1, 0, 0)),
    "a=2": ("a=2", (2.0, 0.5, 0.25), (1, 0, 0)),
    "a=2-corner": ("a=2", (2.0, 0.0, 0.0), (-1, 0, 0)),
    "ellipse-plane": ("ellipse", (1.0, 0.0, 1.0), (0, 1, 0)),
    "ellipse-along-plane": ("ellipse", (1.0, 0.0, 1.0), (-1, 0, 1)),
    "ellipse-reduction": ("ellipse", (0.0, 1.0, 1.0), (0, 1, 0)),
    "decomposable": ("decomposable", (1.0, 0.5, 0.5), (1, 0, 0)),
    "decomposable-along-plane": ("decomposable", (1.0, 0.5, 0.5), (0, 1, -1)),
    "b+c=2": ("b+c=2", (1.5, 0.5), (1, 0)),
    "2b+c=1": ("2b+c=1", (0.25, 0.5), (1, 0)),
    "2c+b=1": ("2c+b=1", (0.5, 0.25), (0, 1)),
}


def _abc(x):
    return x if len(x) == 3 else (2 - x[0] - x[1], *x)


def _offset(base, direction, t):
    return tuple(x + t * d for x, d in zip(base, direction))


def _edge(rule, base, direction):
    """The adjacent offsets t_in < t_out of base + t * direction, t >= 0, inside and outside the tolerance."""

    def inside(t):
        lhs, rhs, slope = rule(*_abc(_offset(base, direction, t)))
        return abs(lhs - rhs) <= TOL * slope

    lo, hi = 0.0, 1e-3
    assert inside(lo) and not inside(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo, hi


# Both offsets along each direction, where the point stays non-negative.
EDGE_PARAMS = [
    pytest.param(case, sign, id=f"{case}-{'up' if sign > 0 else 'down'}")
    for case, (_, base, direction) in EDGES.items()
    for sign in (1, -1)
    if min(_offset(base, direction, sign * 1e-3)) >= 0
]


@pytest.mark.parametrize("case, sign", EDGE_PARAMS)
def test_float_decisions_at_the_tolerance_edge(case, sign):
    name, base, direction = EDGES[case]
    rule, direction = RULES[name], tuple(sign * d for d in direction)
    t_in, t_out = _edge(rule, base, direction)
    seen = []
    for t in (0.0, t_in, t_out):
        x = _offset(base, direction, t)
        lhs, rhs, slope = rule(*_abc(x))
        seen.append(abs(lhs - rhs) / (TOL * slope))
        if len(x) == 2:
            accepted = x[0] >= 0 and x[1] >= 0 and ref_side(*RULES["b+c=2"](*_abc(x))) <= 0
            assert (_attempt(lambda: slice_params(*x)) is not ValueError) == accepted
            assert spa_region(*x) == ref_decisions(*_abc(x))["spa_region"]
            if not accepted:
                continue
            p = slice_params(*x)
        else:
            p = MapParams(*x)
        assert decisions(p) == ref_decisions(*p.astuple())
    # lhs - rhs is 0 at the base, within the tolerance at t_in and beyond it at t_out.
    assert seen[0] == 0 and 0 < seen[1] <= 1 < seen[2]


# ---------------------------------------------------------------------------
# Float input: the probe family's values are the exact values of the floats, rounded once.
# ---------------------------------------------------------------------------


def _float_points():
    """Seeded random float points of the plane, and 72 angles of both families."""
    rng = random.Random(34)
    points = []
    while len(points) < 400:
        b, c = rng.uniform(0, 2), rng.uniform(0, 2)
        if b + c <= 2:
            points.append(slice_params(b, c))
    for k in range(72):
        points += [so2_coeffs(2 * pi * k / 72), improper_coeffs(2 * pi * k / 72)]
    return points


def _ref_float_value(p, eps, kind="standard"):
    """The value at the rationals the floats hold, in Fraction arithmetic, rounded once."""
    e = Fraction(eps)
    if kind == "tilde":
        return float((e - 1) ** 2 / (3 * e))
    if kind == "u_conjugated":
        return float((1 + e + 1 / e) / 3)
    return float(ref_value(*_fractions(p.astuple()), e))


def test_float_values_at_both_printed_ends_are_the_exact_values_rounded_once():
    # At so2_coeffs(2.0) the upper end 4.7445... is a float just above the root: the float
    # formula printed 0.0 there, where the exact value of the same floats is 4.9e-17.
    ends = 0
    for p in _float_points() + [so2_coeffs(2.0)]:
        interval = detects_rho_family(p)
        if interval is None:
            continue
        for eps in interval:
            if 0 < eps < inf:
                assert detection_value(p, eps) == _ref_float_value(p, eps), (p, eps)
                assert detection_value_exact(p, eps) == detection_value(p, eps)
                ends += 1
    assert ends > 600
    _, hi = detects_rho_family(so2_coeffs(2.0))
    assert detection_value(so2_coeffs(2.0), hi) == _ref_float_value(so2_coeffs(2.0), hi) > 0


def test_float_certificate_is_the_vertex_rounded_once():
    # eps is the float nearest the exact vertex of the floats, and value the exact value there.
    for p in _float_points():
        cert = indecomposability_certificate(p)
        if cert is None:
            continue
        a, b, c = _fractions(p.astuple())
        eps, value = cert
        assert type(eps) is float and eps == float((2 - a) / (2 * b) if b else c / (2 - a) + 1)
        assert value == _ref_float_value(p, eps) < 0, p


@pytest.mark.parametrize("kind", ["tilde", "u_conjugated"])
def test_float_tilde_and_u_values_near_one_are_correctly_rounded(kind):
    # (eps-1)^2/(3 eps) cancels in floats as eps -> 1: at 1 + 2^-30 it printed 0.0 for 2.89e-19.
    p = improper_coeffs(1.1)
    for k in (10, 20, 26, 30, 40, 52):
        for eps in (1 + 2.0**-k, 1 - 2.0**-k):
            assert detection_value(p, eps, kind) == _ref_float_value(p, eps, kind), (kind, eps)
    assert detection_value(p, 1 + 2.0**-30, "tilde") > 2.8e-19


def test_float_vertex_beyond_the_float_range_raises_overflow():
    # b = 5e-324 puts the vertex (2-a)/(2b) near 1e323.  It became inf, and the value at inf
    # raised a ValueError about eps by accident; rounding the exact vertex raises OverflowError.
    p = MapParams(1.0, 5e-324, 1.0)
    assert detects_rho_family(p) == (pytest.approx(1.0), inf)
    with pytest.raises(OverflowError):
        indecomposability_certificate(p)


def test_probe_kinds_off_the_plane_or_unknown_raise():
    for p in (MapParams(1, 2, 3), MapParams(1.0, 2.0, 3.0)):
        assert detection_value(p, 2.0) == _ref_float_value(p, 2.0)
        for kind in ("tilde", "u_conjugated"):
            with pytest.raises(ValueError, match="off the plane"):
                detection_value(p, 2.0, kind)
    with pytest.raises(ValueError, match="unsupported kind"):
        detection_value(MapParams(1, 1, 0), 2.0, "u")
