import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qutritwit.cli import main
from qutritwit.maps import improper_coeffs, so2_coeffs
from qutritwit.witnesses import matrix_entries, witness_matrix, witness_tilde_matrix


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
            # Usage errors.
            ["witness", "--kind", "bogus", "1", "1", "0"],
            ["classify", "--restarts", "abc", "1", "1", "0"],
            [],
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "1", "1", "0", "--tol", "nan"],
            ["classify", "--bc", "1", "1", "--tol", "-1"],
            ["sweep", "--alpha-grid", "4", "--tol", "inf"],
        ],
    )
    def test_invalid_tol_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: --tol ")

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
        ],
        ids=["detect-1e13", "detect-1e18", "sweep-1e18"],
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
        from qutritwit.maps import MapParams
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

    def test_rank_sweep_small(self, capsys):
        record = run_json(capsys, ["sweep", "--alpha-grid", "2", "--what", "rank", "--restarts", "60", "--seed", "5"])
        rows = record["results"]["rows"]
        assert rows[1]["span_rank"] == 9  # alpha = pi, the reduction witness
        err = capsys.readouterr()
        # the slow path was flagged on stderr before the JSON was parsed
        assert record["inputs"]["what"] == "rank"


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
        err = capsys.readouterr().err
        assert "witness" in err and "detect" in err

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
