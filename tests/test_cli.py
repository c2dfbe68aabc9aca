import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import matrix_entries
from qutritwit import cli
from qutritwit.cli import main
from qutritwit.geometry import MapParams, critical_p, improper_coeffs, so2_coeffs
from qutritwit.witnesses import critical_p_from_witness, witness_matrix, witness_tilde_matrix


# One valid argv per subcommand, and the options that were once shared by all
# seven with a valid value each; a subcommand rejects those it does not read.
_VALID_ARGV = {
    "classify": ["classify", "1", "1", "0"],
    "witness": ["witness", "1", "1", "0"],
    "detect": ["detect", "1", "1", "0"],
    "spa": ["spa", "--bc", "1", "1"],
    "certify": ["certify", "--tilde", "--bc", "1", "1/2"],
    "figure": ["figure"],
    "sweep": ["sweep", "--alpha-grid", "4"],
}
_SHARED_OPTIONS = {"--tol": "1", "--seed": "3", "--restarts": "5", "--format": "json"}
_READS = {"witness": {"--seed", "--restarts", "--format"}, "detect": {"--format"}, "sweep": {"--seed", "--restarts"}}
_UNREAD = [(c, o) for c in _VALID_ARGV for o in _SHARED_OPTIONS if o not in _READS.get(c, ())]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestClassify:
    def test_reduction_point(self, capsys):
        record = run_json(capsys, ["classify", "--bc", "1", "1"])
        assert record["schema_version"] == "1"
        assert record["command"] == "classify"
        results = record["results"]
        assert results["positivity"] == "positive_not_cp"
        assert results["decomposability"] == "decomposable"
        assert results["on_ellipse"] is True
        assert results["detection_interval"] is None

    @pytest.mark.parametrize(
        "b, c, interval",
        [
            (f"1/{10**400}", "0", [0.0, 1.0]),
            ("0", f"1/{10**400}", [1.0, None]),
            (f"1/{10**20}", "0", [0.0, 1.0]),
        ],
        ids=["b=1e-400", "c=1e-400", "b=1e-20"],
    )
    def test_detection_interval_where_2_minus_a_underflows(self, capsys, b, c, interval):
        # a = 2 - b - c is 2.0 in float, but 2 - a = b + c is not 0: on the plane the
        # interval is (c/b, 1) or (1, c/b) at b != c, (1, inf) at b = 0.
        results = run_json(capsys, ["classify", "--bc", b, c])["results"]
        assert results["decomposability"] == "indecomposable"
        assert results["detection_interval"] == interval

    def test_angle_input(self, capsys):
        record = run_json(capsys, ["classify", "--alpha", "3.14159265358979"])
        params = record["results"]["params"]
        assert abs(params["a"]) < 1e-12
        assert abs(params["b"] - 1) < 1e-12
        assert abs(params["c"] - 1) < 1e-12

    def test_degrees_flag(self, capsys):
        record = run_json(capsys, ["classify", "--alpha", "180", "--degrees"])
        assert abs(record["results"]["params"]["b"] - 1) < 1e-12

    def test_cp_point(self, capsys):
        record = run_json(capsys, ["classify", "2", "0", "0"])
        assert record["results"]["positivity"] == "completely_positive"

    def test_choi_point_detection_interval(self, capsys):
        record = run_json(capsys, ["classify", "1", "1", "0"])
        results = record["results"]
        assert results["decomposability"] == "indecomposable"
        assert results["detection_interval"] == [0.0, 1.0]
        assert results["dual"] == {"a": "1", "b": "0", "c": "1"}

    def test_invalid_params_exit_code(self, capsys):
        assert main(["classify", "1", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_conflicting_inputs(self, capsys):
        assert main(["classify", "1", "1", "0", "--bc", "1", "1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--alpha", "nan"],
            ["classify", "--alpha", "inf"],
            ["classify", "1", "1", "1e400"],
            ["classify", "--bc", "1e400", "1"],
            ["witness", "--alpha", "nan", "--restarts", "4"],
            ["detect", "1", "1", "0", "--eps-grid", "nan", "2", "5"],
            ["detect", "1", "1", "0", "--eps-grid", "0.1", "inf", "5"],
            # CSV is a matrix/table format: only witness and detect emit it.
            ["classify", "1", "1", "0", "--format", "csv"],
            ["spa", "--bc", "1", "1", "--format", "csv"],
            ["certify", "--tilde", "--bc", "1", "1/2", "--format", "csv"],
            ["figure", "--format", "csv"],
            ["sweep", "--alpha-grid", "4", "--format", "csv"],
            # A float overflow or a non-finite intermediate value.
            ["witness", "0", "0", "1e-320", "--restarts", "4"],
            ["detect", "0", "0", "1e-320"],
            ["certify", "--indecomposable", "0", "0", "1e-320"],
            ["detect", "1", "1", "0", "--eps-grid", "1e-320", "1", "3"],
            ["detect", "1", "1", "0", "--eps-grid", "1e-320", "1", "3", "--format", "csv"],
            ["detect", "0", "0", "1e-308"],
            # Inside numpy: the see-saw's product overflows.
            ["witness", "0", "0", "1e-308", "--restarts", "4"],
            # Usage errors.
            ["witness", "--kind", "bogus", "1", "1", "0"],
            ["classify", "--restarts", "abc", "1", "1", "0"],
            [],
            ["sweep", "--alpha-grid", "4", "--tol", "inf"],
            # --improper and --degrees qualify --alpha only.
            ["classify", "1", "1", "0", "--improper"],
            ["classify", "--bc", "1", "1", "--degrees"],
            ["certify", "--tilde", "--bc", "1", "1/2", "--improper"],
            # A unique prefix does not stand for an option.
            ["sweep", "--alpha-grid", "2", "--im"],
            ["witness", "1", "1", "0", "--rest", "5"],
            # --seed and --restarts where no see-saw runs.
            ["witness", "1", "1", "0", "--format", "csv", "--restarts", "5", "--seed", "3"],
            ["sweep", "--alpha-grid", "4", "--restarts", "5", "--seed", "2"],
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    # A non-finite angle reached MapParams as NaN, and the diagnostic named the parameter a.
    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["classify", "--alpha", "nan"], "nan"),
            (["spa", "--alpha=inf"], "inf"),
            (["witness", "--alpha=-inf", "--improper", "--format", "csv"], "-inf"),
        ],
    )
    def test_non_finite_angle_is_named(self, capsys, argv, shown):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: parameter alpha must be finite, got {shown}"]

    # argparse alone takes a negative number with an exponent, or -inf, for an option and
    # exits with "expected one argument": each reaches its own diagnostic instead.
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["classify", "--alpha", "-inf"], "error: parameter alpha must be finite, got -inf"),
            (["detect", "1", "1", "0", "--eps-grid", "-inf", "1", "3"], "error: --eps-grid requires 0 < LO"),
            (["classify", "-1e-3", "1", "1"], "error: parameters must be non-negative"),
        ],
        ids=["alpha-inf", "eps-grid-inf", "positional"],
    )
    def test_negative_number_tokens_are_values(self, capsys, argv, error):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error), lines

    @pytest.mark.parametrize("alpha", ["-1e-3", "-1E2"])
    def test_negative_angle_with_exponent_is_read(self, capsys, alpha):
        record = run_json(capsys, ["classify", "--alpha", alpha])
        assert record["inputs"]["alpha"] == float(alpha)
        assert record == run_json(capsys, ["classify", f"--alpha={alpha}"])

    def test_float_guard_leaves_warning_filters_as_found(self, capsys):
        before = list(warnings.filters)
        assert main(["witness", "0", "0", "1e-308", "--restarts", "4"]) == 2
        assert main(["classify", "1", "1", "0"]) == 0
        assert warnings.filters == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "1", "1", "0", "--tol", "nan"],
            ["classify", "--bc", "1", "1", "--tol", "-1"],
            ["classify", "--alpha", "0.5", "--tol", "inf"],
        ],
    )
    def test_invalid_tol_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        # classify decides on_ellipse exactly, so it takes no tolerance.
        assert lines[0].startswith("error: unrecognized arguments: --tol")

    # Each count's first see-saw array (restarts x 3 doubles) exceeds the
    # address space, so the allocation fails at once.
    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "1", "1", "0", "--restarts", "10000000000000"],
            ["witness", "--kind", "tilde", "--bc", "1", "1", "--restarts", "100000000000000"],
            ["witness", "1", "1", "0", "--restarts", str(10**18)],
            ["sweep", "--alpha-grid", "2", "--what", "rank", "--restarts", str(10**18)],
        ],
    )
    def test_unallocatable_restarts_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "--restarts" in lines[0]

    # A grid the address space cannot hold: the diagnostic names the flag
    # that sized it, and no flag the command does not read.
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["detect", "1", "1", "0", "--eps-grid", "0.1", "2", "10000000000000"], "--eps-grid"),
            (["detect", "1", "1", "0", "--eps-grid", "0.1", "2", str(10**18)], "--eps-grid"),
            (["sweep", "--alpha-grid", str(10**18)], "--alpha-grid"),
            (["sweep", "--alpha-grid", str(10**19)], "--alpha-grid"),
            (["figure", "--resolution", str(10**18)], "--resolution"),
        ],
        ids=["detect-1e13", "detect-1e18", "sweep-1e18", "sweep-1e19", "figure-1e18"],
    )
    def test_unallocatable_grid_exits_2(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: out of memory: ") and flag in lines[0]
        assert "--restarts" not in lines[0]


class TestWitness:
    def test_exact_rational_matrix(self, capsys):
        record = run_json(capsys, ["witness", "1", "1", "0", "--restarts", "30"])
        results = record["results"]
        assert results["exact"] is True
        assert results["matrix"][0][0] == "1/6"
        assert results["matrix"][0][4] == "-1/6"
        assert abs(results["trace"] - 1) < 1e-12
        assert results["min_eigenvalue"] < 0
        assert results["block_positivity_estimate"] > -1e-7

    def test_angle_matrix_is_float_pairs(self, capsys):
        record = run_json(capsys, ["witness", "--alpha", "0.9", "--restarts", "20"])
        cell = record["results"]["matrix"][0][0]
        assert isinstance(cell, list) and len(cell) == 2
        assert record["results"]["exact"] is False

    def test_tilde_kind(self, capsys):
        record = run_json(capsys, ["witness", "2/3", "2/3", "2/3", "--kind", "tilde", "--restarts", "20"])
        assert record["results"]["kind"] == "tilde"
        assert record["results"]["matrix"][0][0] == "1/9"

    def test_u_kind_matches_library(self, capsys):
        from qutritwit.geometry import MapParams
        from qutritwit.witnesses import witness_u

        record = run_json(capsys, ["witness", "1", "1", "0", "--kind", "u", "--restarts", "20"])
        entries = record["results"]["matrix"]
        rebuilt = np.array([[float(Fraction(cell)) for cell in row] for row in entries])
        assert np.array_equal(rebuilt, witness_u(MapParams(1, 1, 0)).matrix.real)

    def test_csv_format(self, capsys):
        code = main(["witness", "1", "1", "0", "--format", "csv"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 9
        first = rows[0].split(",")
        assert len(first) == 9
        assert abs(float(first[0]) - 1 / 6) < 1e-16


class TestDetect:
    def test_detection_grid_signs(self, capsys):
        record = run_json(capsys, ["detect", "1", "1", "0", "--eps-grid", "0.1", "2.0", "20"])
        results = record["results"]
        assert results["detection_interval"] == [0.0, 1.0]
        for eps, value in zip(results["eps"], results["values"]):
            assert (value < 0) == (eps < 1), eps

    def test_tilde_values_closed_form(self, capsys):
        record = run_json(capsys, ["detect", "--alpha", "1.1", "--improper", "--kind", "tilde", "--eps-grid", "0.5", "2.0", "7"])
        for eps, value in zip(record["results"]["eps"], record["results"]["values"]):
            assert abs(value - (eps - 1) ** 2 / (3 * eps)) < 1e-12

    # On the plane each index group of W~ and of W_U holds one copy of a, b and c, so
    # Tr(rho_eps W~) = (eps-1)^2/(3 eps) and Tr(rho_eps W_U) = (1 + eps + 1/eps)/3 at every point.
    _CLOSED_FORMS = {
        "tilde": lambda eps: (eps - 1) ** 2 / (3 * eps),
        "u": lambda eps: (1 + eps + 1 / eps) / 3,
    }

    @pytest.mark.parametrize("kind", ["tilde", "u"])
    @pytest.mark.parametrize("point", [["2", "0", "0"], ["--bc", "1/2", "1/2"], ["--bc", "1/3", "1"], ["0", "7/5", "3/5"]])
    @pytest.mark.parametrize("grid", [["0.1", "2.0", "20"], ["1e-300", "1e300", "7"], ["0.999", "1.001", "9"]])
    def test_exact_form_values_are_correctly_rounded(self, capsys, kind, point, grid):
        closed = self._CLOSED_FORMS[kind]
        for fmt in ("json", "csv"):
            assert main(["detect", "--kind", kind, *point, "--eps-grid", *grid, "--format", fmt]) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                results = json.loads(out)["results"]
                pairs = list(zip(results["eps"], results["values"]))
            else:
                pairs = [tuple(map(float, line.split(","))) for line in out.split()[1:]]
            assert len(pairs) == int(grid[2])
            for eps, value in pairs:
                assert value == float(closed(Fraction(eps))), (eps, value)

    @pytest.mark.parametrize("kind", ["tilde", "u"])
    def test_float_form_values_follow_the_closed_form(self, capsys, kind):
        closed = self._CLOSED_FORMS[kind]
        for point in (["--bc", "0.3712", "1.0405"], ["--alpha", "2.2", "--improper"], ["--alpha", "0.4"]):
            results = run_json(capsys, ["detect", "--kind", kind, *point])["results"]
            for eps, value in zip(results["eps"], results["values"]):
                assert abs(value - closed(eps)) < 1e-12

    def test_exact_values_keep_sign_near_b_equal_c(self, capsys):
        # The vertex of the detection parabola nears zero as b -> c; a float 9x9 pairing
        # cancels there and reads [-5.6e-17, 0.0, 2.8e-17].
        argv = ["detect", "--bc", "1/2", "50000001/100000000", "--eps-grid", "1.000000005", "1.000000015", "3"]
        values = run_json(capsys, argv)["results"]["values"]
        assert len(values) == 3 and all(v < 0 for v in values), values

    @pytest.mark.parametrize("command", ["classify", "detect"])
    def test_upper_end_beyond_the_float_range_is_null(self, capsys, command):
        # b = 1e-400 is positive but 0 in float.
        results = run_json(capsys, [command, "--bc", f"1/{10**400}", "1"])["results"]
        assert results["detection_interval"] == [1.0, None]

    def test_lower_end_beyond_the_float_range_is_null(self, capsys):
        # a = 2 - 1e-400, b = 0, c = 1: the interval is (10^400, inf), and scaling c by 2^1330
        # used to overflow float(c) with exit 2.  Both ends print null; the values are finite.
        results = run_json(capsys, ["detect", str(2 - Fraction(1, 10**400)), "0", "1"])["results"]
        assert results["detection_interval"] == [None, None]
        assert len(results["values"]) == 20 and all(math.isfinite(v) for v in results["values"])

    def test_csv(self, capsys):
        code = main(["detect", "1", "1", "0", "--eps-grid", "0.5", "1.5", "3", "--format", "csv"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "eps,value"
        assert len(out) == 4

    def test_bad_grid(self, capsys):
        assert main(["detect", "1", "1", "0", "--eps-grid", "0", "2", "5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid", [["0.1", "2", "2.5"], ["abc", "2", "5"]])
    def test_unparsable_grid_names_flag(self, capsys, grid):
        assert main(["detect", "1", "1", "0", "--eps-grid", *grid]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "--eps-grid" in lines[0]


class TestSpa:
    def test_reduction_point(self, capsys):
        record = run_json(capsys, ["spa", "--bc", "1", "1"])
        results = record["results"]
        assert results["p_star"] == 0.75
        assert results["region"] is True
        assert results["separable_certified"] is True
        assert results["components"] is not None
        assert results["state_min_eigenvalue"] > -1e-9

    def test_exact_point_next_to_the_cp_corner(self, capsys):
        # a = 2 - 1e-20 rounds to 2.0 in float, but the map is not CP: p* = 1.5e-20.
        results = run_json(capsys, ["spa", "--bc", f"1/{10**20}", "0"])["results"]
        assert results["p_star"] == 1.5e-20

    def test_critical_weight_below_the_float_range_exits_2(self, capsys):
        # a = 2 - 1e-400 < 2, so the witness is not PSD; p* = 1.5e-400 underflows.
        assert main(["spa", "--bc", f"1/{10**400}", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "underflows" in lines[0]
        assert "already PSD" not in lines[0]

    def test_outside_region(self, capsys):
        record = run_json(capsys, ["spa", "--bc", "0.1", "0.1"])
        assert record["results"]["separable_certified"] is False
        assert record["results"]["components"] is None


class TestCertify:
    def test_tilde_certificate(self, capsys):
        record = run_json(capsys, ["certify", "--alpha", "0.8", "--improper", "--tilde"])
        results = record["results"]
        assert results["certificate"] == "decomposition"
        assert results["min_eig_P"] >= -1e-9
        assert results["min_eig_Q"] >= -1e-9
        assert results["reconstruction_residual"] <= 1e-10

    def test_indecomposable_certificate(self, capsys):
        record = run_json(capsys, ["certify", "1", "1", "0", "--indecomposable"])
        results = record["results"]
        assert results["certificate"] == "ppt_state"
        assert results["eps"] == 0.5
        assert results["value"] == -0.25

    def test_decomposable_point_yields_none(self, capsys):
        record = run_json(capsys, ["certify", "0", "1", "1", "--indecomposable"])
        assert record["results"]["certificate"] is None
        assert record["results"]["eps_exact"] is None

    def test_exact_vertex_near_b_equals_c(self, capsys):
        # |b - c| = 1e-16: the float eps rounds to 1.0, so the value is rounded from
        # the exact vertex, which eps_exact carries.
        argv = ["certify", "--indecomposable", "--bc", "1/2", "5000000000000001/10000000000000000"]
        results = run_json(capsys, argv)["results"]
        assert results["eps"] == 1.0
        assert results["eps_exact"] == "10000000000000001/10000000000000000"
        assert results["value"] < 0

    def test_float_input_has_no_exact_eps(self, capsys):
        results = run_json(capsys, ["certify", "--indecomposable", "--alpha", "0.5"])["results"]
        assert results["certificate"] == "ppt_state"
        assert isinstance(results["eps"], float)
        assert results["eps_exact"] is None

    @pytest.mark.parametrize("k", [16, 17, 100])
    def test_exact_value_near_b_equals_c(self, capsys, k):
        # value_exact is the exact value that value rounds: about -2.5e-(2k+1), which
        # rounds to a float but is far below the float spacing near the vertex eps = 1.
        argv = ["certify", "--indecomposable", "--bc", "1/2", str(Fraction(1, 2) + Fraction(1, 10**k))]
        results = run_json(capsys, argv)["results"]
        exact = Fraction(results["value_exact"])
        assert exact < 0
        assert results["value"] == float(exact)

    def test_float_input_has_no_exact_value(self, capsys):
        results = run_json(capsys, ["certify", "--indecomposable", "--alpha", "0.5"])["results"]
        assert results["value"] < 0
        assert results["value_exact"] is None

    def test_vertex_beyond_the_float_range_is_null(self, capsys):
        # eps = (2-a)/(2b) is about 5e399: the float eps is null, as an interval end beyond
        # the float range is; the exact vertex and value stay.
        results = run_json(capsys, ["certify", "--indecomposable", "--bc", f"1/{10**400}", "1"])["results"]
        assert results["certificate"] == "ppt_state" and results["eps"] is None
        assert Fraction(results["eps_exact"]) == (1 + Fraction(1, 10**400)) * 10**400 / 2
        assert results["value"] < 0 and results["value"] == float(Fraction(results["value_exact"]))

    def test_float_vertex_beyond_the_float_range_exits_2(self, capsys, monkeypatch):
        # No angle gives such a point, so the family is replaced by one that does: at b = 5e-324
        # the float vertex (2-a)/(2b) overflows, and the OverflowError exits 2 with one line.
        monkeypatch.setitem(cli._FAMILIES, False, ("proper", lambda alpha: MapParams(1.0, 5e-324, 1.0), "standard"))
        assert main(["certify", "--indecomposable", "--alpha", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: a value overflows a float")

    def test_certificate_where_2_minus_a_is_below_the_float_range(self, capsys):
        # a = 2 - 1e-400, b = 0, c = 1: classify says indecomposable, and certify used to
        # exit 2 when its existence test scaled c by 2^1330.  The vertex c/(2-a) + 1 is 10^400 + 1.
        results = run_json(capsys, ["certify", "--indecomposable", str(2 - Fraction(1, 10**400)), "0", "1"])["results"]
        assert results["certificate"] == "ppt_state" and results["eps"] is None
        assert results["eps_exact"] == str(10**400 + 1)
        assert Fraction(results["value_exact"]) < 0

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["certify", "1", "1", "0"]) == 2
        capsys.readouterr()
        assert main(["certify", "1", "1", "0", "--tilde", "--indecomposable"]) == 2
        capsys.readouterr()


class TestFigure:
    def test_ellipse_residuals_and_points(self, capsys):
        record = run_json(capsys, ["figure", "--resolution", "64"])
        results = record["results"]
        assert len(results["ellipse"]) == 64
        for b, c in results["ellipse"]:
            x, y = b + c, b - c
            assert abs((9 / 4) * (x - 4 / 3) ** 2 + (3 / 4) * y**2 - 1) < 1e-10
        points = results["special_points"]
        assert points["i"] == [1.0, 0.0]
        assert points["ii"] == [0.0, 1.0]
        assert points["iii"] == [1.0, 1.0]
        assert points["iv"] == [1 / 3, 1 / 3]
        assert points["v"] == [0.0, 0.0]
        assert results["decomposable_line"] == [[0.0, 0.0], [1.0, 1.0]]

    def test_vertices_lie_in_the_simplex(self, capsys):
        for b, c in run_json(capsys, ["figure", "--resolution", "360"])["results"]["ellipse"]:
            assert b >= 0 and c >= 0

    def test_resolution_floor(self, capsys):
        assert main(["figure", "--resolution", "7"]) == 2
        capsys.readouterr()


class TestSweep:
    def test_coeff_rows(self, capsys):
        record = run_json(capsys, ["sweep", "--alpha-grid", "4"])
        rows = record["results"]["rows"]
        assert len(rows) == 4
        for row in rows:
            assert abs(row["sum"] - 2) < 1e-12
        first, third = rows[0], rows[2]
        assert abs(first["a"] - 4 / 3) < 1e-12 and abs(first["b"] - 1 / 3) < 1e-12
        assert abs(third["a"]) < 1e-12 and abs(third["b"] - 1) < 1e-12

    @pytest.mark.parametrize(
        "flags, family, coeffs", [([], "proper", so2_coeffs), (["--improper"], "improper", improper_coeffs)]
    )
    def test_family_rows(self, capsys, flags, family, coeffs):
        record = run_json(capsys, ["sweep", "--alpha-grid", "4", *flags])
        assert record["inputs"]["family"] == family
        rows = record["results"]["rows"]
        assert [row["alpha"] for row in rows] == [k * math.pi / 2 for k in range(4)]
        for row in rows:
            assert (row["a"], row["b"], row["c"]) == coeffs(row["alpha"]).asfloats()

    @pytest.mark.parametrize("flags", [[], ["--improper"]])
    def test_row_sum_is_rounded_once(self, capsys, flags):
        # a + b + c rounds twice: at 360 angles it missed the exact sum of the printed floats
        # at 61 proper and 57 improper rows.
        rows = run_json(capsys, ["sweep", "--alpha-grid", "360", *flags])["results"]["rows"]
        for row in rows:
            assert row["sum"] == float(Fraction(row["a"]) + Fraction(row["b"]) + Fraction(row["c"])), row

    @pytest.mark.parametrize(
        "flags, coeffs, build",
        [([], so2_coeffs, witness_matrix), (["--improper"], improper_coeffs, witness_tilde_matrix)],
    )
    def test_family_witness_matrices(self, capsys, flags, coeffs, build):
        record = run_json(capsys, ["sweep", "--alpha-grid", "3", "--what", "witness", *flags])
        rows = record["results"]["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["matrix"] == matrix_entries(build(coeffs(row["alpha"])).matrix)

    def test_pstar_at_pi(self, capsys):
        record = run_json(capsys, ["sweep", "--alpha-grid", "4", "--what", "pstar"])
        assert abs(record["results"]["rows"][2]["p_star"] - 0.75) < 1e-12

    def test_pstar_reads_the_family_witness(self, capsys):
        # The improper family's witness is W~, whose least eigenvalue is about -0.235 on the
        # ellipse: p* about 0.68 at every angle, where the standard witness's closed form was printed.
        record = run_json(capsys, ["sweep", "--alpha-grid", "6", "--what", "pstar", "--improper"])
        rows = record["results"]["rows"]
        assert len(rows) == 6 and rows[0]["p_star"] > 0.67
        for row in rows:
            # p* is the certified one, correctly rounded: LAPACK's differs by roundoff alone.
            W = witness_tilde_matrix(improper_coeffs(row["alpha"]))
            assert abs(row["p_star"] - critical_p_from_witness(W)) <= 1e-15
            assert 0.677 < row["p_star"] < 0.68
        proper = run_json(capsys, ["sweep", "--alpha-grid", "6", "--what", "pstar"])["results"]["rows"]
        assert [row["p_star"] for row in proper] == [critical_p(so2_coeffs(row["alpha"])) for row in proper]

    def test_rank_sweep_small(self, capsys):
        assert main(["sweep", "--alpha-grid", "2", "--what", "rank", "--restarts", "60", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["inputs"]["what"] == "rank"
        assert record["results"]["rows"][1]["span_rank"] == 9  # alpha = pi, the reduction witness
        assert captured.err.splitlines() == ["note: span-rank sweep runs a see-saw search per angle (slow)"]


class TestOutputHandling:
    def test_json_roundtrip_byte_identical(self, capsys):
        code = main(["classify", "1", "1", "0"])
        out = capsys.readouterr().out
        assert code == 0
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), indent=2) == text

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "record.json"
        code = main(["classify", "--bc", "1", "0", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        record = json.loads(target.read_text())
        assert record["results"]["positivity"] == "positive_not_cp"

    @pytest.mark.parametrize("target", ["missing/record.json", "."])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        assert main(["classify", "1", "1", "0", "--output", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write --output ")

    def test_csv_rejection_names_supporting_commands(self, capsys):
        assert main(["classify", "1", "1", "0", "--format", "csv"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "--format" in lines[0]
        for argv in (["witness", "1", "1", "0"], ["detect", "1", "1", "0"]):
            assert main([*argv, "--format", "csv"]) == 0
            assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command, option", _UNREAD, ids=[f"{c}{o}" for c, o in _UNREAD])
    def test_option_the_command_does_not_read_exits_2(self, capsys, command, option):
        argv = _VALID_ARGV[command] + [option, _SHARED_OPTIONS[option]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("stdout", ["closed pipe", "/dev/full"])
    def test_unwritable_stdout_exits_2(self, stdout):
        if stdout == "closed pipe":
            read_end, fd = os.pipe()
            os.close(read_end)
        elif os.path.exists(stdout):
            fd = os.open(stdout, os.O_WRONLY)
        else:
            pytest.skip(f"{stdout} does not exist on this platform")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qutritwit.cli", "classify", "1", "1", "0"],
                stdout=fd, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(fd)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write stdout: "), proc.stderr

    # With no -W option, numpy only warns on a float overflow: main's guard makes it exit 2.
    def test_numpy_float_error_exits_2_in_a_plain_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "qutritwit.cli", "witness", "0", "0", "1e-308", "--restarts", "4"],
            capture_output=True, env=env, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "overflow encountered in dot" in lines[0], proc.stderr

    # stderr on /dev/full or, with stdout, on a closed pipe: the status is the
    # run's own, 2 for a failure and 0 for a run whose only stderr line is a note.
    @pytest.mark.parametrize(
        "argv, stdout, status",
        [
            (["classify", "--alpha", "nan"], "captured", 2),
            (["classify", "1", "1"], "same as stderr", 2),
            (["sweep", "--alpha-grid", "1", "--what", "rank", "--restarts", "4"], "captured", 0),
        ],
    )
    @pytest.mark.parametrize("stderr", ["/dev/full", "closed pipe"])
    def test_unwritable_stderr_keeps_the_status(self, argv, stdout, status, stderr):
        if stderr == "closed pipe":
            read_end, fd = os.pipe()
            os.close(read_end)
        elif os.path.exists(stderr):
            fd = os.open(stderr, os.O_WRONLY)
        else:
            pytest.skip(f"{stderr} does not exist on this platform")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qutritwit.cli", *argv],
                stdout=subprocess.PIPE if stdout == "captured" else fd, stderr=fd, env=env, text=True, timeout=60,
            )
        finally:
            os.close(fd)
        assert proc.returncode == status
        if status == 0:
            assert json.loads(proc.stdout)["command"] == argv[0]

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QUTRITWIT_SEED", "123")
        record = run_json(capsys, ["witness", "--alpha", "0.4", "--restarts", "10"])
        assert record["results"]["seesaw"]["seed"] == 123

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "--bc", "1", "1", "--restarts", "16"],
            ["sweep", "--alpha-grid", "2", "--what", "rank", "--restarts", "10"],
        ],
    )
    def test_invalid_env_seed_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QUTRITWIT_SEED", "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "QUTRITWIT_SEED" in lines[0]

    # A see-saw seed below 0 or a restart count below 1 is refused by the flag or
    # variable that set it, before any note is printed.
    @pytest.mark.parametrize(
        "argv, env_seed, named",
        [
            (["witness", "1", "1", "0", "--seed", "-1"], None, "--seed must be non-negative"),
            (["sweep", "--alpha-grid", "2", "--what", "rank", "--seed", "-1"], None, "--seed must be non-negative"),
            (["witness", "1", "1", "0"], "-2", "QUTRITWIT_SEED must be non-negative"),
            (["witness", "1", "1", "0", "--restarts", "0"], None, "--restarts must be at least 1"),
            (["sweep", "--alpha-grid", "2", "--what", "rank", "--restarts", "-3"], None, "--restarts must be at least 1"),
        ],
        ids=["witness-seed", "sweep-seed", "env-seed", "witness-restarts", "sweep-restarts"],
    )
    def test_invalid_seesaw_setting_names_flag(self, capsys, monkeypatch, argv, env_seed, named):
        if env_seed is not None:
            monkeypatch.setenv("QUTRITWIT_SEED", env_seed)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " + named)

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["witness", "--kind", "tilde", "1", "1", "1"], "parameters (1, 1, 1) are off the plane"),
            (["certify", "--tilde", "--bc", "0", "0"], "parameters (2, 0, 0) are outside the region"),
        ],
    )
    def test_parameter_diagnostic_prints_plain_numbers(self, capsys, argv, shown):
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "Fraction(" not in lines[0]
        assert lines[0].startswith("error: " + shown)

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUTRITWIT_SEED", "123")
        record = run_json(capsys, ["witness", "--alpha", "0.4", "--restarts", "10", "--seed", "9"])
        assert record["results"]["seesaw"]["seed"] == 9

    def test_deterministic_given_seed(self, capsys):
        argv = ["witness", "--alpha", "0.7", "--restarts", "25", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
