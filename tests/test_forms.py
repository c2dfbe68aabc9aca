"""The numpy-free forms against the numpy builders that read them.

`spa`, `certify --tilde` and `witness` (CSV, and JSON for float input) print
the rows that `forms.dense` writes from a form, the first two with
closed-form least eigenvalues; the library builds the same forms with
`linalg.structured` and takes its spectra from LAPACK.  The two must agree byte for byte in every printed entry, and
each closed-form eigenvalue within 1e-15 of `eigvalsh`.  The witnesses' certified traces, least eigenvalues and
critical weights must also be the exact values rounded to nearest, decided here in Fraction arithmetic.
"""

import decimal
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import matrix_entries, random_slice_params, random_tilde_region_params
from qutritwit import cli, forms
from qutritwit.geometry import (
    MapParams,
    _integers,
    critical_p,
    detection_value,
    detection_value_exact,
    improper_coeffs,
    on_ellipse,
    slice_params,
    so2_coeffs,
    spa_region,
)
from qutritwit.witnesses import decompose_tilde, sigma_pair, spa_state, witness_matrix, witness_tilde_matrix, witness_u

_BUILDERS = {"standard": witness_matrix, "tilde": witness_tilde_matrix, "u_conjugated": witness_u}


def _points():
    """The n = 18 plane lattice, exact and float, and 720 angles of both families."""
    n = 18
    for i in range(n + 1):
        for j in range(n + 1 - i):
            b, c = Fraction(2 * i, n), Fraction(2 * j, n)
            yield slice_params(b, c)
            yield slice_params(float(b), float(c))
    for k in range(720):
        alpha = 2 * math.pi * k / 720
        yield so2_coeffs(alpha)
        yield improper_coeffs(alpha)


_POINTS = list(_points())


def _csv_matrix(M) -> str:
    """The CSV text of the real part of a numpy matrix, 17 significant digits."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in M.real)


def _same(rows, M) -> bool:
    """The CLI's JSON pairs of dense rows are those of the numpy matrix, byte for byte."""
    return json.dumps(cli._write(rows)) == json.dumps(matrix_entries(M))


def test_witness_csv_is_the_library_matrices():
    for p in _POINTS:
        for kind, build in _BUILDERS.items():
            rows = forms.dense(*forms.witness_form(p, kind))
            assert cli._write(rows, csv=True) == _csv_matrix(build(p).matrix), (p, kind)


def test_witness_json_is_the_library_matrices(monkeypatch):
    # The command line reads each number as a Fraction; read as a float, --bc takes the
    # lattice's float points, which reach witness JSON otherwise only through --alpha.
    monkeypatch.setattr(cli, "_parse_number", float)
    parser = cli.build_parser()
    for p in _POINTS[1:380:2]:
        for flag, build in zip(("standard", "tilde", "u"), _BUILDERS.values()):
            args = parser.parse_args(["witness", "--kind", flag, "--bc", repr(p.b), repr(p.c), "--restarts", "1"])
            _, results = args.run(args)
            assert results["exact"] is False, p
            assert json.dumps(results["matrix"]) == json.dumps(matrix_entries(build(p).matrix)), (p, flag)


def test_spa_rows_are_the_library_matrices():
    pairs = [forms.dense(*forms.sigma_pair_form(i, j)) for i, j in ((1, 2), (1, 3), (2, 3))]
    refused = 0
    for p in _POINTS:
        try:
            star, state, certificate = forms.spa_form(p)
        except ValueError:  # a = 2: the witness is already PSD
            with pytest.raises(ValueError):
                spa_state(p)
            refused += 1
            continue
        res = spa_state(p)
        assert star == res.p_star and _same(forms.dense(*state), res.state.matrix), p
        assert (certificate is None) == (res.components is None) == (not res.separable_certified), p
        if certificate is not None:
            scale, sigma_d = certificate
            comp = res.components
            assert scale == comp.scale and _same(forms.dense(sigma_d), comp.sigma_d.matrix), p
            for rows, piece in zip(pairs, (comp.sigma_12, comp.sigma_13, comp.sigma_23)):
                assert _same(rows, piece.matrix)
    assert refused == 2  # (2, 0, 0), exact and float


def test_tilde_rows_are_the_library_matrices():
    decomposed = 0
    for p in _POINTS:
        try:
            P, Q = forms.tilde_form(p)
        except ValueError as exc:  # outside the region bc >= (1-a)^2
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                decompose_tilde(p)
            continue
        cert = decompose_tilde(p)
        assert _same(forms.dense(*P), cert.P) and _same(forms.dense(*Q), cert.Q), p
        decomposed += 1
    assert decomposed == 1634


@pytest.mark.parametrize("i, j", [(1, 2), (1, 3), (2, 3), (3, 1)])
def test_sigma_pair_rows(i, j):
    assert _same(forms.dense(*forms.sigma_pair_form(i, j)), sigma_pair(i, j).matrix)


def test_closed_form_least_eigenvalues_match_lapack():
    for p in _POINTS:
        if p.a < 2:
            _, state, _ = forms.spa_form(p)
            lapack = np.linalg.eigvalsh(spa_state(p).state.matrix)[0]
            assert abs(forms.spa_min_eigenvalue(state) - lapack) <= 1e-15, p
        try:
            cert = decompose_tilde(p)
        except ValueError:
            continue
        min_p, min_q = forms.tilde_min_eigenvalues(p)
        assert abs(min_p - np.linalg.eigvalsh(cert.P)[0]) <= 1e-15, p
        assert abs(min_q - np.linalg.eigvalsh(cert.Q)[0]) <= 1e-15, p


def _ellipse_points():
    """The 486 exact points (2 - b - c, b, c) of the ellipse, b = n^2/d and c = m^2/d with
    d = n^2 + mn + m^2, for k = m/n, |m| <= 40 and n in {1, 2, 3, 5, 7, 11}."""
    for m in range(-40, 41):
        for n in (1, 2, 3, 5, 7, 11):
            d = n * n + m * n + m * m
            yield slice_params(Fraction(n * n, d), Fraction(m * m, d))


def test_tilde_p_is_exactly_psd_on_the_ellipse():
    # On the ellipse P's block has eigenvalues 0 and 2: min_eig_P is 0.0, where float
    # arithmetic on the rounded a, b, c printed a nonzero value at 240 of these points,
    # -2.22e-16 at (25/19, 4/19, 9/19).
    points = list(_ellipse_points())
    assert len(points) == 486 and all(on_ellipse(p) for p in points)
    for p in points:
        assert forms.tilde_min_eigenvalues(p)[0] == 0.0, p


def _ref_tilde_min_p(p):
    """min(0, a+b+c-2, 1 - sqrt(a^2+b^2+c^2-ab-bc-ca)) of the point's rationals, in 120-digit Decimal."""
    a, b, c = (Fraction(x) for x in p.astuple())
    m = a * a + b * b + c * c - a * b - b * c - c * a
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        root = 1 - decimal.Decimal(m.numerator).sqrt() / decimal.Decimal(m.denominator).sqrt()
        return min(0.0, float(a + b + c - 2), float(root))


def test_tilde_min_eigenvalue_of_p_is_the_exact_value_rounded_once():
    seen = 0
    for p in _POINTS:
        try:
            forms.tilde_form(p)
        except ValueError:
            continue
        assert forms.tilde_min_eigenvalues(p)[0] == _ref_tilde_min_p(p), p
        seen += 1
    assert seen > 1500


def _exact_tilde(p):
    """P and Q of P + Q^G = 6 W~ in Fraction arithmetic at the point's rationals: with R the rows
    [[a,b,c],[b,c,a],[c,a,b]], P is R - (J - I) on |11>, |22>, |33> and
    Q = sum_{i<j} R_ij (|ij> - |ji>)(<ij| - <ji|)."""
    a, b, c = (Fraction(x) for x in p.astuple())
    R = ((a, b, c), (b, c, a), (c, a, b))
    P, Q = [[0] * 9 for _ in range(9)], [[0] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            P[4 * i][4 * j] = R[i][j] - (i != j)
            if i < j:
                ij, ji = 3 * i + j, 3 * j + i
                Q[ij][ij] = Q[ji][ji] = R[i][j]
                Q[ij][ji] = Q[ji][ij] = -R[i][j]
    return P, Q


def test_tilde_entries_are_the_exact_entries_rounded_once():
    # Every P and Q entry is its exact entry rounded once: on the exact n = 40 plane lattice
    # inside the region, at random float points of it and at 1,440 angles of the improper
    # family.  Float arithmetic on the rounded a printed a - 1 rounded twice: -0.19999999999999996
    # for c - 1 = -1/5 at (23/20, 1/20, 4/5), and 1,212 of the lattice's 4,320 P-block entries.
    n = 40
    lattice = [slice_params(Fraction(2 * i, n), Fraction(2 * j, n)) for i in range(n + 1) for j in range(n + 1 - i)]
    lattice = [p for p in lattice if p.b * p.c >= (1 - p.a) ** 2]
    rng = np.random.default_rng(38)
    floats = [random_tilde_region_params(rng) for _ in range(2000)]
    angles = [improper_coeffs(2 * math.pi * k / 1440) for k in range(1440)]
    assert len(lattice) == 480
    for p in lattice + floats + angles:
        got = [forms.dense(*form) for form in forms.tilde_form(p)]
        assert got == [[[float(x) for x in row] for row in M] for M in _exact_tilde(p)], p


def test_spa_scale_is_rounded_once():
    # scale = 1 / (3 (2 + 3(2-a))) of the point's rationals, rounded once; float arithmetic
    # on the float a missed it at most of these points, exact and float.
    seen = 0
    for p in _POINTS:
        if p.a >= 2 or not spa_region(p.b, p.c):
            continue
        _, _, (scale, _) = forms.spa_form(p)
        assert scale == float(1 / (3 * (2 + 3 * (2 - Fraction(p.a))))), p
        seen += 1
    assert seen > 1000


def test_spa_least_eigenvalue_is_the_block_spectrum_correctly_rounded():
    # s I + g (J - I) on the |ii>, s and g the printed floats: s + 2g in Fraction arithmetic, rounded once.
    for p in _POINTS[:380]:
        if p.a < 2:
            _, (diagonal, g, kets), _ = forms.spa_form(p)
            exact = [Fraction(diagonal[0]) + 2 * Fraction(g), Fraction(diagonal[0]) - Fraction(g)]
            exact += [Fraction(diagonal[k]) for k in (1, 2, 3, 5, 6, 7)]
            assert forms.spa_min_eigenvalue((diagonal, g, kets)) == float(min(exact)), p


def test_detection_values_of_every_kind_are_the_pairing_of_the_exact_form():
    # Tr(rho_eps W) in Fraction arithmetic from the kind's exact entries: rho_eps holds (1, eps, 1/eps)
    # on the index groups and 1 off the diagonal of the |ii> block.  geometry's closed form of each
    # kind is that pairing, and detection_value rounds it once.
    grid = cli._linspace(0.1, 2.0, 20) + [1e-300, 7.5, 1e300]
    for p in _POINTS[:380:6]:
        for kind in _BUILDERS:
            W = [[Fraction(x) for x in row] for row in forms.exact_witness_entries(p, kind)]
            grid_sum = sum(W[i][j] for i in forms.DOUBLES for j in forms.DOUBLES if i != j)
            for eps in grid:
                rho = forms.group_diagonal(Fraction(1), Fraction(eps), 1 / Fraction(eps))
                exact = sum(rho[k] * W[k][k] for k in range(9)) + grid_sum
                assert detection_value_exact(p, eps, kind) == exact, (p, kind, eps)
                assert detection_value(p, eps, kind) == float(exact), (p, kind, eps)


def test_reconstruction_residual_is_small():
    for p in _POINTS:
        try:
            P, Q = forms.tilde_form(p)
        except ValueError:
            continue
        W = forms.dense(*forms.witness_form(p, "tilde"))
        assert forms.reconstruction_residual(forms.dense(*P), forms.dense(*Q), W) <= 1e-12, p


def test_reconstruction_residual_reads_the_partial_transpose():
    # Q^G moves -R_ij from |ij><ji| to |ii><jj|; a Q left untransposed misses 6 W~ there.
    p = slice_params(Fraction(1, 2), Fraction(1, 2))
    P, Q = (forms.dense(*form) for form in forms.tilde_form(p))
    W = forms.dense(*forms.witness_form(p, "tilde"))
    assert forms.reconstruction_residual(P, Q, W) == 0.0
    untransposed = [[P[r][s] + Q[r][s] - 6 * W[r][s] for s in range(9)] for r in range(9)]
    assert math.sqrt(sum(x * x for row in untransposed for x in row)) > 1


def test_cli_prints_the_forms(capsys):
    # The commands print these rows: spa's state, certify's P and Q and a W_U in CSV.
    p = slice_params(1, Fraction(1, 2))
    assert cli.main(["spa", "--bc", "1", "1/2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    _, state, _ = forms.spa_form(p)
    assert results["state"] == matrix_entries(spa_state(p).state.matrix)
    assert results["state_min_eigenvalue"] == forms.spa_min_eigenvalue(state) == 0.0
    assert cli.main(["certify", "--tilde", "--bc", "1", "1/2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    cert = decompose_tilde(p)
    assert results["P"] == matrix_entries(cert.P) and results["Q"] == matrix_entries(cert.Q)
    assert results["scale"] == cert.scale
    assert cli.main(["witness", "--kind", "u", "--bc", "1/2", "1/2", "--format", "csv"]) == 0
    W = witness_u(slice_params(Fraction(1, 2), Fraction(1, 2))).matrix
    assert capsys.readouterr().out == _csv_matrix(W) + "\n"


def _exact_matrix(p, kind):
    """The rational witness of a kind at the point's rationals: its exact entries for exact input,
    and for float input the entries (a, b, c) / (3(a+b+c)) spread by the kind's row table and
    -1 / (3(a+b+c)) on its grid, of the rationals the floats hold."""
    if p.is_exact:
        return [[Fraction(x) for x in row] for row in forms.exact_witness_entries(p, kind)]
    spread, kets = forms._KINDS[kind]
    A, B, C, D = _integers(p)
    t = 3 * (A + B + C)
    W = [[Fraction(-D, t) if i in kets and j in kets else Fraction(0) for j in range(9)] for i in range(9)]
    for k, x in enumerate(spread((A, B, C))):
        W[k][k] = Fraction(x, t)
    return W


def _det3(M):
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1]) - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def _least_tests(W, kets):
    """(below, at) for the least eigenvalue lam of W, a Fraction matrix whose only off-diagonal
    entries lie in kets x kets: below(x) is x < lam, at(x) is x == lam, each decided exactly.
    On the kets block B, x < lam(B) iff the leading minors of B - x I are positive and x <= lam(B)
    iff all its principal minors are non-negative (Sylvester); the last is the cubic det(B - x I)."""
    block = [[W[i][j] for j in kets] for i in kets]
    low = min(W[k][k] for k in range(9) if k not in kets)

    def shifted(x):
        return [[block[i][j] - (x if i == j else 0) for j in range(3)] for i in range(3)]

    def pair(B, i, j):
        return B[i][i] * B[j][j] - B[i][j] * B[j][i]

    def below(x):
        B = shifted(x)
        return x < low and B[0][0] > 0 and pair(B, 0, 1) > 0 and _det3(B) > 0

    def at(x):
        B = shifted(x)
        psd = all(B[i][i] >= 0 for i in range(3)) and all(pair(B, i, j) >= 0 for i, j in ((0, 1), (0, 2), (1, 2)))
        return x <= low and psd and _det3(B) >= 0 and not below(x)

    return below, at


def _is_nearest(v, below, at):
    """Whether the float v is the root r of a monotone test (below(x) iff x < r, at(x) iff x == r)
    rounded to nearest, ties to even: r lies between the midpoints of v and its adjacent floats."""
    v = Fraction(v)
    lo, hi = (Fraction(math.nextafter(float(v), d)) for d in (-math.inf, math.inf))
    m_lo, m_hi = (lo + v) / 2, (v + hi) / 2
    even = float(v).hex().split("p")[0][-1] in "02468ace" if v else True
    if at(m_lo) or at(m_hi):
        return even
    return below(m_lo) and not below(m_hi)


def test_witness_spectrum_is_the_exact_spectrum_correctly_rounded():
    # On the lattice, exact and float, and 720 angles of both families: the least eigenvalue is
    # the exact one rounded to nearest, the trace the exact trace rounded once, and both lie
    # within 1e-15 of LAPACK on the library matrix.
    for p in _POINTS:
        for kind, build in _BUILDERS.items():
            trace, least = forms.witness_spectrum(p, kind)
            W = _exact_matrix(p, kind)
            assert trace == float(sum(W[k][k] for k in range(9))), (p, kind)
            assert _is_nearest(least, *_least_tests(W, forms._KINDS[kind][1])), (p, kind, least)
            assert abs(least - np.linalg.eigvalsh(build(p).matrix)[0]) <= 1e-15, (p, kind)


def test_witness_trace_is_one():
    # Each row table is a Latin square on (A, B, C), so every kind's diagonal sums to
    # t = 3(A+B+C) and the trace is t/t: 1.0 on the n = 40 lattice, exact and float, 720
    # angles of both families and random float points, on the plane and (standard) off it.
    n = 40
    points = [slice_params(Fraction(2 * i, n), Fraction(2 * j, n)) for i in range(n + 1) for j in range(n + 1 - i)]
    points += [slice_params(float(p.b), float(p.c)) for p in points]
    points += [family(2 * math.pi * k / 720) for k in range(720) for family in (so2_coeffs, improper_coeffs)]
    rng = np.random.default_rng(40)
    points += [random_slice_params(rng) for _ in range(200)]
    for p in points:
        for kind in _BUILDERS:
            assert forms.witness_spectrum(p, kind)[0] == 1.0, (p, kind)
    for _ in range(200):
        p = MapParams(*(float(x) for x in rng.uniform(0, 3, 3)))
        assert forms.witness_spectrum(p, "standard")[0] == 1.0, p


def test_witness_entries_are_the_exact_entries_rounded_once():
    for p in _POINTS:
        for kind in _BUILDERS:
            exact = [[float(x) for x in row] for row in _exact_matrix(p, kind)]
            assert forms.dense(*forms.witness_form(p, kind)) == exact, (p, kind)


def _lam(x):
    """The least eigenvalue whose critical weight 9|lam| / (1 + 9|lam|) is x."""
    return -x / (9 * (1 - x))


def _check_critical_weight(kind):
    # x < p* iff lam(x) lies above the least eigenvalue; p* is 0 where that is not negative.
    for p in _POINTS:
        star = forms.witness_critical_p(p, kind)
        below, at = _least_tests(_exact_matrix(p, kind), forms._KINDS[kind][1])
        lapack = np.linalg.eigvalsh(_BUILDERS[kind](p).matrix)[0]
        assert abs(star - 9 * max(0.0, -lapack) / (1 + 9 * max(0.0, -lapack))) <= 1e-15, (p, kind)
        if star == 0.0:
            assert below(0) or at(0), (p, kind)
            continue
        assert 0 < star < 1 and _is_nearest(star, lambda x: not below(_lam(x)) and not at(_lam(x)), lambda x: at(_lam(x)))


def test_tilde_critical_weight_is_correctly_rounded():
    _check_critical_weight("tilde")


@pytest.mark.parametrize("kind", ["standard", "u_conjugated"])
def test_critical_weight_is_correctly_rounded(kind):
    _check_critical_weight(kind)


def test_critical_weight_of_a_positive_witness_is_zero():
    # W >= 0 from a = 2 on: its least eigenvalue is (N/3) min(a-2, b, c), 0 at a = 2 or where b
    # or c is 0, and the diagonal entry (N/3) c = 1/45 at (3, 1/2, 1/4), rounded once.
    for abc, least in (((2, 0, 0), 0.0), ((Fraction(5, 2), 1, 0), 0.0), ((3.0, 0.5, 0.25), float(Fraction(1, 45)))):
        p = MapParams(*abc)
        assert forms.witness_critical_p(p, "standard") == 0.0
        assert forms.witness_spectrum(p, "standard")[1] == least


def test_standard_critical_weight_is_the_closed_form():
    # Two exact routes to p* agree at every point with a < 2 whose rationals lie on the plane:
    # the root of the witness's cubic and geometry's 3(2-a) / (2 + 3(2-a)), each rounded once.
    # The points are the n = 40 plane lattice, 1,440 angles of each family and random plane
    # points; a float point that lies on the plane only within roundoff has N != 1/2, and
    # there the two routes are two different values.
    n = 40
    points = [slice_params(Fraction(2 * i, n), Fraction(2 * j, n)) for i in range(n + 1) for j in range(n + 1 - i)]
    points += [family(2 * math.pi * k / 1440) for k in range(1440) for family in (so2_coeffs, improper_coeffs)]
    rng = np.random.default_rng(37)
    points += [random_slice_params(rng) for _ in range(400)]
    seen = 0
    for p in points:
        A, B, C, D = _integers(p)
        if A < 2 * D and A + B + C == 2 * D:
            assert forms.witness_critical_p(p, "standard") == critical_p(p), p
            seen += 1
    assert seen > 1500


_ROOTS = {
    "1/3": Fraction(1, 3), "-1/3": Fraction(-1, 3), "0": Fraction(0),
    # ties between adjacent floats near 1, one to round down to even and one up
    "1+2^-53": 1 + Fraction(1, 2**53), "1+3*2^-53": 1 + Fraction(3, 2**53),
    "-1-2^-53": -1 - Fraction(1, 2**53), "-1-3*2^-53": -1 - Fraction(3, 2**53),
    # ties at the bottom of the subnormals: 2^-1075 rounds to a signed zero
    "2^-1075": Fraction(1, 2**1075), "-2^-1075": Fraction(-1, 2**1075),
    "3*2^-1075": Fraction(3, 2**1075), "-3*2^-1075": Fraction(-3, 2**1075),
    # the overflow threshold, a tie that rounds to 2^1024, and one either side of it
    **{f"{sign}(2^1024-2^970){tail}": sign_ * (2**1024 - 2**970 + step)
       for sign, sign_ in (("", 1), ("-", -1)) for tail, step in (("", 0), ("+1", 1), ("-1", -1))},
    "2^1030": Fraction(2**1030), "-2^1030": Fraction(-(2**1030)), "10^400/3": Fraction(10**400, 3),
    "10^-400": Fraction(1, 10**400), "-10^-400": Fraction(-1, 10**400),
}


@pytest.mark.parametrize("r", _ROOTS.values(), ids=_ROOTS.keys())
def test_nearest_rounds_a_root_as_float_does(r):
    # A synthetic sign oracle: _nearest gives float(r), signed zeros included, and raises where it does.
    def side(n, d):
        x = n * r.denominator - d * r.numerator
        return (x > 0) - (x < 0)

    try:
        want = float(r)
    except OverflowError:
        with pytest.raises(OverflowError):
            forms._nearest(side)
        return
    assert repr(forms._nearest(side)) == repr(want)


def test_cli_prints_the_certified_spectra(capsys):
    # sweep --what witness and pstar --improper, and witness JSON, print these values.
    for family, kind in ((["--improper"], "tilde"), ([], "standard")):
        assert cli.main(["sweep", "--alpha-grid", "12", "--what", "witness", *family]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        coeffs = improper_coeffs if family else so2_coeffs
        assert [(r["trace"], r["min_eigenvalue"]) for r in rows] == [
            forms.witness_spectrum(coeffs(r["alpha"]), kind) for r in rows]
    assert cli.main(["sweep", "--alpha-grid", "12", "--what", "pstar", "--improper"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert [r["p_star"] for r in rows] == [forms.witness_critical_p(improper_coeffs(r["alpha"]), "tilde") for r in rows]
    assert cli.main(["witness", "--kind", "u", "1", "1/2", "1/2", "--restarts", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["trace"], results["min_eigenvalue"]) == (1.0, -1 / 6)
