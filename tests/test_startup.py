"""The scalar commands and `import qutritwit` load no numpy.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import qutritwit
from qutritwit import cli
from qutritwit.geometry import so2_coeffs
from qutritwit.oracles import SeeSawConfig

# The commands that print only geometry's closed forms, with the witness argv
# that fails on its seed before it builds a matrix.  detect's standard kind
# takes its values from the closed form.
_SCALAR_ARGVS = [
    (["classify", "--bc", "1", "1"], {}),
    (["classify", "1", "1", "0"], {}),
    (["classify", "--bc", "0.3712", "1.0405"], {}),
    (["classify", "--bc", "1/2", "1/2"], {}),
    (["classify", "--alpha", "nan"], {}),
    (["classify", "1", "1", "1e400"], {}),
    (["classify", "1", "1"], {}),
    (["certify", "--indecomposable", "1", "1", "0"], {}),
    (["detect", "--bc", "1/3", "1"], {}),
    (["detect", "--bc", "1/3", "1", "--format", "csv"], {}),
    (["figure", "--resolution", "72"], {}),
    (["sweep", "--alpha-grid", "12", "--what", "pstar"], {}),
    (["witness", "--bc", "1", "1", "--restarts", "16"], {"QUTRITWIT_SEED": "abc"}),
]

_RUN_EACH = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
from qutritwit.cli import main
loaded = []
for argv, env in json.loads(sys.argv[1]):
    os.environ.pop("QUTRITWIT_SEED", None)
    os.environ.update(env)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        main(argv)
    if "numpy" in sys.modules:
        loaded.append(argv)
        break
print(json.dumps(loaded))
"""


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scalar_commands_load_no_numpy():
    # Checked after each argv, so the first one that loads numpy is named.
    assert json.loads(_fresh(_RUN_EACH, json.dumps(_SCALAR_ARGVS))) == []


def test_package_import_loads_no_numpy():
    code = "import sys, qutritwit; qutritwit.classify(qutritwit.MapParams(1, 1, 0)); print('numpy' in sys.modules)"
    assert _fresh(code).strip() == "False"


def test_matrix_names_load_on_access():
    code = "import sys, qutritwit; qutritwit.witness_matrix; print('numpy' in sys.modules)"
    assert _fresh(code).strip() == "True"


def _bits(grid) -> bytes:
    return np.array(grid, dtype=float).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 36, 72, 360, 1000, 4097])
def test_angle_grid_is_numpy_linspace_bitwise(n):
    for endpoint in (False, True):
        grid = np.linspace(0.0, 2 * math.pi, n, endpoint=endpoint)
        assert _bits(cli._linspace(0.0, 2 * math.pi, n, endpoint=endpoint)) == grid.tobytes()


# detect's default grid, a step that underflows to 0 (numpy then divides k by
# the interval count first), a grid of equal ends and the counts below 2.
_GRIDS = [(0.1, 2.0, 20), (5.6e-309, 5.6e-309 + 5e-324, 3), (5e-324, 1e-323, 7), (1.5, 1.5, 4), (-3.0, 1e300, 5),
          (0.25, 4.0, 1), (0.25, 4.0, 0)]


@pytest.mark.parametrize("lo, hi, n", _GRIDS)
@pytest.mark.parametrize("endpoint", [True, False])
def test_linspace_is_numpy_linspace_bitwise(lo, hi, n, endpoint):
    assert _bits(cli._linspace(lo, hi, n, endpoint)) == np.linspace(lo, hi, n, endpoint=endpoint).tobytes()


def test_linspace_matches_numpy_on_random_grids():
    rng = np.random.default_rng(18)
    for _ in range(300):
        lo = float(rng.choice([rng.normal(), rng.uniform(0, 1e-300), 5e-324 * rng.integers(0, 40)]))
        hi = lo + float(rng.choice([rng.exponential(), 5e-324 * rng.integers(0, 40), rng.exponential() * 1e-310]))
        n, endpoint = int(rng.integers(0, 60)), bool(rng.integers(0, 2))
        assert _bits(cli._linspace(lo, hi, n, endpoint)) == np.linspace(lo, hi, n, endpoint=endpoint).tobytes()


@pytest.mark.parametrize("lo, hi, n", _GRIDS[:2])
def test_detect_reads_the_linspace_grid(capsys, lo, hi, n):
    argv = ["detect", "1", "1", "0", "--eps-grid", repr(lo), repr(hi), str(n)]
    grid = np.linspace(lo, hi, n).tobytes()
    assert cli.main(argv) == 0
    assert _bits(json.loads(capsys.readouterr().out)["results"]["eps"]) == grid
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert _bits([float(line.split(",")[0]) for line in capsys.readouterr().out.split()[1:]]) == grid


def test_figure_and_sweep_read_the_linspace_grid(capsys):
    grid = np.linspace(0.0, 2 * math.pi, 72, endpoint=False)
    assert cli.main(["sweep", "--alpha-grid", "72"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert np.array([row["alpha"] for row in rows]).tobytes() == grid.tobytes()
    assert cli.main(["figure", "--resolution", "72"]) == 0
    ellipse = json.loads(capsys.readouterr().out)["results"]["ellipse"]
    assert ellipse == [[p.b, p.c] for p in (so2_coeffs(t + math.pi) for t in grid)]


def test_cli_restarts_default_is_the_library_default():
    assert cli.DEFAULT_RESTARTS == SeeSawConfig.restarts


def test_lazy_names_match_their_modules():
    listed = dir(qutritwit)
    for module, names in qutritwit._LAZY.items():
        source = importlib.import_module(f"qutritwit.{module}")
        for name in names:
            assert getattr(qutritwit, name) is getattr(source, name), name
            assert name in listed, name
    for gone in ("is_block_positive", "permutation_unitary"):
        with pytest.raises(AttributeError):
            getattr(qutritwit, gone)
