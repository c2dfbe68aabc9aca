"""The numpy-free forms against the numpy builders that read them.

`spa`, `certify --tilde` and `witness` (CSV, and JSON for float input) print
the rows that `forms.dense` writes from a form, the first two with
closed-form least eigenvalues; the library builds the same forms with
`linalg.structured` and takes its spectra from LAPACK.  The two must agree byte for byte in every printed entry, and
each closed-form eigenvalue within 1e-15 of `eigvalsh`.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import matrix_entries
from qutritwit import cli, forms
from qutritwit.geometry import detection_value, improper_coeffs, slice_params, so2_coeffs
from qutritwit.spa import spa_state
from qutritwit.states import sigma_pair
from qutritwit.witnesses import decompose_tilde, witness_matrix, witness_tilde_matrix, witness_u

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


def test_spa_least_eigenvalue_is_the_block_spectrum_correctly_rounded():
    # s I + g (J - I) on the |ii>, s and g the printed floats: s + 2g in Fraction arithmetic, rounded once.
    for p in _POINTS[:380]:
        if p.a < 2:
            _, (diagonal, g, kets), _ = forms.spa_form(p)
            exact = [Fraction(diagonal[0]) + 2 * Fraction(g), Fraction(diagonal[0]) - Fraction(g)]
            exact += [Fraction(diagonal[k]) for k in (1, 2, 3, 5, 6, 7)]
            assert forms.spa_min_eigenvalue((diagonal, g, kets)) == float(min(exact)), p


def test_form_detection_values_of_the_standard_kind_are_the_closed_form_for_exact_input():
    # Both are exact and rounded once, so the form's trace has detection_value's bits.
    grid = cli._linspace(0.1, 2.0, 20) + [1e-300, 7.5, 1e300]
    for p in _POINTS[:380:2]:
        assert forms.detection_values(p, "standard", grid) == [detection_value(p, eps) for eps in grid], p


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
