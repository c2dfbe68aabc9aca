"""The structured 9x9 operators as forms, in scalar arithmetic only.

A form is the arguments (diagonal, grid, block, entries) of
linalg.structured, which builds the numpy matrix, and of `dense`, which
writes the same floats as nine rows of Python floats, the real parts of that
matrix.  Here are the forms of the three witness kinds (with their exact
entries), the critical SPA state and its separable pieces and the P + Q^G
certificate, and the least eigenvalues of them all: closed forms for the SPA
state, P and Q, and for each witness kind the one root of an integer cubic
below its diagonal, certified to the nearest float.
The composite ket |ij> sits at flat index 3(i-1) + (j-1).

The module imports no numpy, so the commands that print these rows start
without it; the numpy builders in witnesses, states and spa read the same
forms, so their matrices hold the same floats.  It is a module of its own,
apart from geometry, because the scalar commands that never read a form
need not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import acos, cos, fsum, inf, isfinite, pi, sqrt
from operator import itemgetter
from struct import pack, unpack
from typing import Optional, Sequence

from .geometry import (
    MapParams,
    Number,
    _cp_side,
    _ellipse_side,
    _in_region,
    _n_float,
    _over_one_denominator,
    _require_slice,
    critical_p,
)

# Flat indices of the three index groups |ii>, |i,i+1> and |i,i+2>, levels cyclic on {1, 2, 3}.
INDEX_GROUPS = ((0, 4, 8), (1, 5, 6), (2, 3, 7))
DOUBLES, PLUS_ONE, PLUS_TWO = INDEX_GROUPS
_SPREAD = itemgetter(*(next(g for g, group in enumerate(INDEX_GROUPS) if k in group) for k in range(9)))

# Rows of each family's diagonal action (up to normalization and the +1 on
# the diagonal), as positions in (a, b, c); maps shows them.
_ROWS = {
    "circulant": ((0, 1, 2), (2, 0, 1), (1, 2, 0)),
    "improper": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
}


def _spread(rows: tuple[tuple[int, ...], ...]) -> itemgetter:
    """The row table read row by row: spread(values)[3i+l] = values[rows[i][l]]."""
    return itemgetter(*(k for row in rows for k in row))


# Each witness kind: the spread of the row table that fills its diagonal, and the flat indices
# carrying the -1 grid.  U (x) I sends the |ii> to |11>, |32>, |23> and the circulant rows to the improper.
_KINDS = {
    "standard": (_spread(_ROWS["circulant"]), DOUBLES),
    "tilde": (_spread(_ROWS["improper"]), DOUBLES),
    "u_conjugated": (_spread(_ROWS["improper"]), (DOUBLES[0], PLUS_ONE[1], PLUS_TWO[2])),
}

# The scale of the improper-family certificate P + Q^G = 6 W~.
TILDE_SCALE = 6.0


def group_diagonal(*values) -> tuple:
    """The 9 diagonal entries, each the value of its flat index's group: values[g] on INDEX_GROUPS[g]."""
    return _SPREAD(values)


def dense(diagonal=None, grid=0.0, block: tuple[int, ...] = (), entries=()) -> list[list[float]]:
    """The rows of linalg.structured(diagonal, grid, block, entries) as Python floats: the real parts
    of its entries, whose imaginary parts are all 0.0.  grid (a number, or len(block) rows of
    len(block) numbers) goes on block x block, then diagonal, unless None, on the main diagonal,
    then each x of entries' (k, x) at the flat index k = 9r + s of (r, s); zero elsewhere."""
    rows = [[0.0] * 9 for _ in range(9)]
    grid_rows = grid if isinstance(grid, (list, tuple)) else [[grid] * len(block)] * len(block)
    for r, grid_row in zip(block, grid_rows):
        for s, x in zip(block, grid_row):
            rows[r][s] = float(x)
    for k, x in enumerate(() if diagonal is None else diagonal):
        rows[k][k] = float(x)
    for k, x in entries:
        rows[k // 9][k % 9] = float(x)
    return rows


def _form(p: MapParams, kind: str) -> tuple[Sequence[Number], Number, Number, itemgetter, tuple[int, ...]]:
    """The one form (values, m, t, spread, kets) of a witness kind, spread the kind's row table
    read row by row: the 9x9 entries are spread(values)[k] / t at (k, k), values[rows[i][l]] / t
    at k = 3i+l, and -m / t off the diagonal of kets x kets, zero elsewhere; as (R', m, pi),
    R'[i][l] = values[rows[i][l]] / m + [3i+l in kets] and the kets are the |i pi(i)>.  Kinds
    other than "standard" are defined on the plane a+b+c = 2.
    Exact input gives integers, values = (A, B, C), m = D and t = 3(A+B+C): each float entry is
    one int/int division, each exact one Fraction(x, t).  Float input gives values =
    pref * (a, b, c), m = pref = N/3 and t = 1.0: dividing by it changes no bit."""
    if kind not in _KINDS:
        raise ValueError(f"unsupported kind {kind!r}")
    if kind != "standard":
        _require_slice(p)
    spread, kets = _KINDS[kind]
    if p.ints is None:  # float input rounds pref, then each pref * x; exact input rounds each entry once
        pref = _n_float(p) / 3
        return [pref * x for x in p._abcd[:3]], pref, 1.0, spread, kets
    A, B, C, D = p.ints
    return (A, B, C), D, 3 * (A + B + C), spread, kets


def witness_form(p: MapParams, kind: str) -> tuple[tuple[float, ...], float, tuple[int, ...]]:
    """The float witness of a kind as (diagonal, grid, kets), read from _form."""
    values, m, t, spread, kets = _form(p, kind)
    x, y, z = values  # three divisions in one display: a comprehension costs a frame per witness
    return spread((x / t, y / t, z / t)), -m / t, kets


def exact_witness_entries(p: MapParams, kind: str = "standard") -> list[list[str]]:
    """The witness entries as exact rational strings "p/q".

    Only available when the parameters are rational numbers; the entries are
    rational multiples of the parameters in every construction used here.
    """
    if not p.is_exact:
        raise ValueError("exact entries require rational parameters")
    values, m, t, spread, kets = _form(p, kind)
    grid = [["0"] * 9 for _ in range(9)]
    minus = str(Fraction(-m, t))
    for i in kets:
        for j in kets:
            grid[i][j] = minus
    for k, x in enumerate(spread([str(Fraction(x, t)) for x in values])):
        grid[k][k] = x
    return grid


def _least_side(p: MapParams, kind: str):
    """(trace, side, guess) of the witness of a kind, for its least eigenvalue lam.

    In integers the witness is (1/t) [diag(w) - m J] on its kets and diag(rest) / t off them:
    exact input reads _form's (values, m, t), float input the floats the matrix holds over
    their common power-of-two denominator t.  The kets block diag(e) + g J, e = w/t and
    g = -m/t < 0, has its least eigenvalue below min(e), simple: the one root there of
    det(diag(e) + g J - x) = prod(e - x) (1 + g sum 1/(e - x)), whose second factor falls
    from 1 to -inf.  lam is the lesser of that root and min(rest)/t, and side(n, d) is the
    sign of n/d - lam for integers n and d > 0, read from the integer cubic with no rounding.
    trace is the exact trace rounded once; guess is a float near lam.
    """
    values, m, t, spread, kets = _form(p, kind)
    diagonal = spread(values)
    if p.ints is None:  # float input: the matrix's own floats, read as integers over one denominator
        *diagonal, m, t = _over_one_denominator((*diagonal, m))
    w = [diagonal[k] + m for k in kets]
    floor = min(w)
    low = min(diagonal[k] for k in range(9) if k not in kets)

    def side(n: int, d: int) -> int:
        nt, dl = n * t, d * low
        root = 1  # n/d >= min(e) lies above the root
        if nt < d * floor:
            u0, u1, u2 = (d * x - nt for x in w)  # det(diag(u) - h J), the cubic times (t d)^3
            f = u0 * u1 * u2 - d * m * (u0 * u1 + u0 * u2 + u1 * u2)
            root = (f < 0) - (f > 0)
        return max(root, (nt > dl) - (nt < dl))

    guess = min(_cardano_least([diagonal[k] / t for k in kets], -m / t), low / t)
    return sum(diagonal) / t, side, guess


def _cardano_least(d: list[float], g: float) -> float:
    """A float guess at the least eigenvalue of diag(d) + g (J - I): trigonometric Cardano on
    (B - q I)/p, q the mean of d and p the spread (Kopp, Int. J. Mod. Phys. C 19, 523, 2008)."""
    q = (d[0] + d[1] + d[2]) / 3
    b = [x - q for x in d]
    p = sqrt((b[0] * b[0] + b[1] * b[1] + b[2] * b[2]) / 6 + g * g)
    if not 0 < p < inf:  # a NaN fails both
        return min(d) + 2 * g
    b0, b1, b2 = (x / p for x in b)
    h = g / p
    r = (b0 * b1 * b2 - h * h * (b0 + b1 + b2) + 2 * h * h * h) / 2  # det((B - q I)/p) / 2
    return q + 2 * p * cos(acos(max(-1.0, min(1.0, r))) / 3 + 2 * pi / 3)


# Ordinals number the floats in order: a float's bits, mirrored below zero (both zeros are 0).
# _TOP, the bits of inf, stands one place past the largest float, for 2^1024.
_TOP = 0x7FF0_0000_0000_0000


def _ordinal(x: float) -> int:
    bits = int.from_bytes(pack("<d", x), "little")
    return bits if bits < 1 << 63 else (1 << 63) - bits


def _ratio(k: int) -> tuple[int, int]:
    """The float at ordinal k as integers (n, d) with value n/d; +-2^1024 at +-_TOP."""
    if abs(k) >= _TOP:
        return (1 << 1024 if k > 0 else -(1 << 1024)), 1
    return unpack("<d", (k if k >= 0 else (1 << 63) - k).to_bytes(8, "little"))[0].as_integer_ratio()


def _nearest(side, guess: float) -> float:
    """The one root r of side rounded to the nearest float, ties to even, as float(r) would be.

    side(n, d) is the sign of n/d - r.  Steps of 1, 2, 4, ... floats from the guess find floats
    on both sides of r, bisection leaves two adjacent ones lo < r <= hi, and the sign at their
    midpoint picks one.  Raises OverflowError where r rounds beyond the float range.
    """
    def above(k):  # the float at ordinal k is at least r
        return side(*_ratio(k)) >= 0

    k = _ordinal(guess) if isfinite(guess) else 0
    step = 1
    if above(k):
        lo, hi = k - 1, k
        while lo > -_TOP and above(lo):
            step *= 2
            lo, hi = max(lo - step, -_TOP), lo
    else:
        lo, hi = k, k + 1
        while hi < _TOP and not above(hi):
            step *= 2
            lo, hi = hi, min(hi + step, _TOP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    (ln, ld), (hn, hd) = _ratio(lo), _ratio(hi)
    n, d = ln * hd + hn * ld, 2 * ld * hd  # the midpoint
    s = side(n, d)
    if s == 0:
        return float(Fraction(n, d))  # a tie, rounded to even
    k = lo if s > 0 else hi
    if abs(k) >= _TOP:
        raise OverflowError("the value is beyond the float range")
    n, d = _ratio(k)
    return n / d


def witness_spectrum(p: MapParams, kind: str) -> tuple[float, float]:
    """(trace, least eigenvalue) of the witness of a kind, each the exact value rounded to the
    nearest float: of the rational matrix for exact input, of the float matrix otherwise.

    The least eigenvalue is the lesser of the six diagonal entries off the kets and the least
    root of the kets block's cubic, found by _nearest from a Cardano guess.  For the standard
    kind that root is (N/3)(a-2).
    """
    trace, side, guess = _least_side(p, kind)
    return trace, _nearest(side, guess)


def witness_critical_p(p: MapParams, kind: str) -> float:
    """The critical weight p* = 9|lam| / (1 + 9|lam|) of the witness of a kind for its least
    eigenvalue lam < 0, else 0, rounded to the nearest float from the exact lam.

    p* is the root in (0, 1) of lam = -p / (9 (1 - p)), which falls as p rises, so the sign of
    x - p* is minus that of lam(x) - lam, read from witness_spectrum's cubic.
    """
    _, side, guess = _least_side(p, kind)
    if side(0, 1) <= 0:  # 0 <= lam
        return 0.0

    def side_p(n: int, d: int) -> int:
        if n <= 0 or n >= d:
            return 1 if n > 0 else -1
        return -side(-n, 9 * (d - n))

    guess = -9 * guess / (1 - 9 * guess) if guess < 0 else 0.5
    return _nearest(side_p, guess)


def spa_form(p: MapParams) -> tuple[float, tuple, Optional[tuple[float, tuple]]]:
    """(p*, state, certificate) of the structural physical approximation at p.

    state = (diagonal, grid, kets) is the critical state (1-p*) W + (p*/9) I, entry for entry
    the floats of spa.spa_mix(witness_matrix(p), p*).  certificate is (scale, sigma_d's
    diagonal) inside the region 2b+c >= 1, 2c+b >= 1, where the state is
    scale * (sigma_12 + sigma_13 + sigma_23 + sigma_d) with scale = 1 / (3 (2 + 3(2-a))),
    and None outside it.  sigma_d is never negative.
    """
    star = critical_p(p)  # the one plane check
    if star == 0.0:
        if _cp_side(p) >= 0:
            raise ValueError("requires a < 2; the witness is already PSD")
        raise ValueError("the critical weight p* = 3(2-a)/(2+3(2-a)) underflows a float: 2-a is too small")
    values, m, t, spread, kets = _form(p, "standard")
    state = spread([(1.0 - star) * (x / t) + star / 9.0 for x in values]), (1.0 - star) * (-m / t), kets
    certificate = None
    if _in_region(*p._abcd[1:]):
        fa, fb, fc = p.asfloats()
        sigma_d = sigma_diag_diagonal(fb, fc)
        if min(sigma_d) < 0:  # a remainder below zero that _in_region forgave as roundoff is 0
            sigma_d = tuple(max(0.0, x) for x in sigma_d)
        certificate = 1.0 / (3.0 * (2.0 + 3.0 * (2.0 - fa))), sigma_d
    return star, state, certificate


def spa_min_eigenvalue(state: tuple[tuple[float, ...], float, tuple[int, ...]]) -> float:
    """The least eigenvalue of a spa_form state, correctly rounded from its floats.

    Its |ii> block is s I + g (J - I), s the block's one diagonal value and g the grid, with
    eigenvalues s + 2g and s - g (twice); the other six eigenvalues are its diagonal entries.
    """
    diagonal, g, kets = state
    s = diagonal[kets[0]]
    return min(s + 2 * g, s - g, *(diagonal[k] for k in PLUS_ONE + PLUS_TWO))


def sigma_pair_form(i: int, j: int) -> tuple[list[float], float, tuple[int, int]]:
    """The form of |ij><ij| + |ji><ji| + (|ii> - |jj>)(<ii| - <jj|), levels i != j in {1, 2, 3}."""
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("indices must be distinct and in {1, 2, 3}")
    ii, jj = DOUBLES[i - 1], DOUBLES[j - 1]
    diagonal = [0.0] * 9
    # |ii>, |jj>, |ij> and |ji>: |rs> sits s - r places along the row of |rr>.
    diagonal[ii] = diagonal[jj] = diagonal[ii + j - i] = diagonal[jj + i - j] = 1.0
    return diagonal, -1.0, (ii, jj)


def sigma_diag_diagonal(b: float, c: float) -> tuple:
    """The diagonal of sigma_d at float (b, c): 2b+c-1 on each |i,i+1>, 2c+b-1 on each |i,i+2>."""
    return _SPREAD((0.0, 2 * b + c - 1, 2 * c + b - 1))


# Each pair i < j of levels: the flat indices of |ij><ij|, |ji><ji|, |ij><ji| and |ji><ij|, and
# the position in (a, b, c) of R_ij, R the improper-family rows.
_TILDE_PAIRS = tuple(
    (10 * (3 * i + j), 10 * (3 * j + i), 28 * i + 12 * j, 28 * j + 12 * i, _ROWS["improper"][i][j])
    for i, j in ((0, 1), (0, 2), (1, 2))
)


def tilde_form(p: MapParams) -> tuple[tuple, tuple]:
    """The forms of P and Q in P + Q^G = 6 W~[a,b,c], at a point of the plane with bc >= (1-a)^2.

    With R the improper-family rows of the float (a, b, c), P holds R - (J - I) on the |ii>
    block and Q = sum_{i<j} R_ij (|ij> - |ji>)(<ij| - <ji|) holds R_ij and -R_ij as entries.
    """
    _require_slice(p)
    if _ellipse_side(p) < 0:
        raise ValueError(f"parameters {p} are outside the region bc >= (1-a)^2")
    abc = p.asfloats()
    rows = _ROWS["improper"]
    block = [[abc[k] - (0.0 if i == j else 1.0) for j, k in enumerate(row)] for i, row in enumerate(rows)]
    entries = []
    for ii, jj, ij, ji, k in _TILDE_PAIRS:
        x = abc[k]
        entries += ((ii, x), (jj, x), (ij, -x), (ji, -x))
    return (None, block, DOUBLES), (None, 0.0, (), entries)


def tilde_min_eigenvalues(p: MapParams) -> tuple[float, float]:
    """The least eigenvalues of tilde_form's P and Q, from their closed-form spectra.

    R - J is reverse-circulant and shares J's eigenvector (1,1,1), so the P block R - (J - I)
    has eigenvalues a+b+c-2 and 1 +- sqrt(a^2+b^2+c^2-ab-bc-ca), the root taken as
    sqrt(((a-b)^2 + (b-c)^2 + (c-a)^2) / 2); P's six other eigenvalues are 0.  Q's are
    0 (six times) and 2 R_ij for i < j, that is 2a, 2b and 2c.
    """
    a, b, c = p.asfloats()
    root = sqrt(((a - b) ** 2 + (b - c) ** 2 + (c - a) ** 2) / 2)
    return min(0.0, fsum((a, b, c, -2.0)), 1.0 - root), min(0.0, 2 * a, 2 * b, 2 * c)


def reconstruction_residual(P: list[list[float]], Q: list[list[float]], W: list[list[float]]) -> float:
    """||P + Q^G - 6 W||_F of dense rows, Q^G the partial transpose <ij|Q^G|kl> = <il|Q|kj>."""
    return sqrt(fsum(
        (P[r][s] + Q[r - r % 3 + s % 3][s - s % 3 + r % 3] - TILDE_SCALE * W[r][s]) ** 2
        for r in range(9) for s in range(9)
    ))
