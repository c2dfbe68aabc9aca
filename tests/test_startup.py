"""The scalar commands and `import qutritwit` load no numpy, and the see-saw loads no matrix builders.

Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

import ast
import contextlib
import importlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutritwit
from qutritwit import cli, oracles, witnesses
from qutritwit.geometry import so2_coeffs
from qutritwit.oracles import SeeSawConfig

# The commands that start without numpy, with the witness argv that fails on
# its seed before it builds a matrix: those that print geometry's numbers
# (detect with every --kind among them, and sweep --what pstar of both
# families), and spa, certify --tilde, witness --format csv and sweep --what
# witness, which print the rows and certified spectra of the forms module.
# Exact, float and --alpha input of each, and the runs that exit 2 on their input.
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
    (["spa", "--bc", "1", "1/2"], {}),
    (["spa", "--bc", "0.1", "0.1"], {}),
    (["spa", "--alpha", "0.7"], {}),
    (["spa", "--alpha", "2.5", "--improper"], {}),
    (["spa", "1", "1", "1/2000000000"], {}),
    (["spa", "--bc", "0", "0"], {}),
    (["spa", "--bc", f"1/{10**400}", "0"], {}),
    (["certify", "--tilde", "--bc", "1", "1/2"], {}),
    (["certify", "--tilde", "--bc", "0.3712", "1.0405"], {}),
    (["certify", "--tilde", "--alpha", "0.8", "--improper"], {}),
    (["certify", "--tilde", "--bc", "0.1", "0.1"], {}),
    (["certify", "--tilde", "1", "1", "1"], {}),
    (["certify", "--tilde", "--bc", "1/20", "4/5"], {}),
    (["certify", "--tilde", "--indecomposable", "--bc", "1", "1/2"], {}),
    (["witness", "--bc", "1/2", "1/2", "--format", "csv"], {}),
    (["witness", "--kind", "tilde", "--bc", "1/2", "1/2", "--format", "csv"], {}),
    (["witness", "--kind", "u", "--bc", "1/2", "1/2", "--format", "csv"], {}),
    (["witness", "--kind", "u", "--bc", "0.3712", "1.0405", "--format", "csv"], {}),
    (["witness", "--kind", "tilde", "--alpha", "1.2", "--improper", "--format", "csv"], {}),
    (["witness", "1", "2", "3", "--format", "csv"], {}),
    (["witness", "--kind", "tilde", "1", "2", "3", "--format", "csv"], {}),
    (["witness", "1", "1", "0", "--format", "csv", "--restarts", "5"], {}),
    (["detect", "--kind", "tilde", "--bc", "1/2", "1/2"], {}),
    (["detect", "--kind", "u", "--bc", "1/3", "1"], {}),
    (["detect", "--kind", "u", "--bc", "1/3", "1", "--format", "csv"], {}),
    (["detect", "--kind", "tilde", "--bc", "0.3712", "1.0405", "--format", "csv"], {}),
    (["detect", "--kind", "tilde", "--alpha", "1.1", "--improper"], {}),
    (["detect", "--kind", "u", "--alpha", "1.1"], {}),
    (["detect", "--kind", "u", "1", "2", "3"], {}),
    (["detect", "--kind", "tilde", "--bc", "1/2", "1/2", "--eps-grid", "0", "1", "3"], {}),
    (["sweep", "--alpha-grid", "2", "--what", "witness"], {}),
    (["sweep", "--alpha-grid", "6", "--what", "witness", "--improper"], {}),
    (["sweep", "--alpha-grid", "0", "--what", "witness"], {}),
    (["sweep", "--alpha-grid", "2", "--what", "pstar", "--improper"], {}),
    (["sweep", "--alpha-grid", "-3", "--what", "pstar", "--improper"], {}),
]

# The commands that still need numpy: a see-saw, on exact and on float input.
_NUMPY_ARGVS = [
    ["witness", "--bc", "1/2", "1/2", "--restarts", "4"],
    ["witness", "--kind", "tilde", "--alpha", "1.2", "--improper", "--restarts", "4"],
    ["sweep", "--alpha-grid", "1", "--what", "rank", "--restarts", "4"],
    ["sweep", "--alpha-grid", "1", "--what", "rank", "--improper", "--restarts", "4"],
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
    if sys.argv[2] in sys.modules:
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
    assert json.loads(_fresh(_RUN_EACH, json.dumps(_SCALAR_ARGVS), "numpy")) == []


def test_scalar_commands_load_no_dataclasses_or_inspect():
    # MapParams and MapClass are plain classes: a numpy-free process never compiles inspect.
    for module in ("dataclasses", "inspect"):
        assert json.loads(_fresh(_RUN_EACH, json.dumps(_SCALAR_ARGVS), module)) == [], module


def test_seesaw_commands_load_no_witnesses():
    # The see-saw reads the witness built from its form, and oracles imports only linalg.
    argvs = [(["witness", "--bc", "1/2", "1/2", "--restarts", "4"], {})]
    assert json.loads(_fresh(_RUN_EACH, json.dumps(argvs), "qutritwit.witnesses")) == []


def test_maps_are_folded_into_witnesses():
    # The map families, LinearMap3 and the rotations live beside their Choi operators, in
    # witnesses, and the package has no maps module.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qutritwit.maps")
    moved = (
        "LinearMap3", "apply_D", "apply_phi", "apply_phi_tilde", "improper_rotation", "phi_from_rotation",
        "phi_map", "phi_tilde_map", "rotation_block", "so2_rotation", "stochastic_matrix",
    )
    for name in moved:
        assert getattr(qutritwit, name) is getattr(witnesses, name), name


def test_oracles_imports_only_linalg():
    # The Choi criterion lives beside choi_witness; the see-saw's module imports no other
    # package module, at its top or inside a function.
    assert qutritwit.is_cp_choi is witnesses.is_cp_choi
    tree = ast.parse(Path(oracles.__file__).read_text())
    package = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module or alias.name for node in package for alias in node.names} == {"linalg"}
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert not [node for f in functions for node in ast.walk(f) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert "TYPE_CHECKING" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_only_witnesses_builds_structured_operators():
    # forms has one numpy counterpart: every call of linalg.structured is in witnesses, apart
    # from the see-saw's witness, cli._witness_array.  Each call is named by its module and
    # the top-level definition around it.
    callers = set()
    for path in Path(qutritwit.__file__).parent.glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            called = [node.func for node in ast.walk(statement) if isinstance(node, ast.Call)]
            if any(getattr(f, "attr", getattr(f, "id", None)) == "structured" for f in called):
                callers.add((path.stem, getattr(statement, "name", None)))
    assert {module for module, _ in callers} == {"witnesses", "cli"}
    assert {caller for caller in callers if caller[0] != "witnesses"} == {("cli", "_witness_array")}


def test_commands_that_print_no_form_load_no_forms():
    # Every CLI process compiles the package's modules it loads; those that print only
    # geometry's numbers do not load the forms module.
    argvs = [(argv, env) for argv, env in _SCALAR_ARGVS if argv[0] in ("classify", "figure")]
    argvs += [(argv, env) for argv, env in _SCALAR_ARGVS if argv[0] == "sweep" and argv[4] == "pstar"]
    argvs += [(argv, env) for argv, env in _SCALAR_ARGVS if argv[:2] in (["detect", "--bc"], ["certify", "--indecomposable"])]
    argvs += [(argv, env) for argv, env in _SCALAR_ARGVS if argv[:2] == ["detect", "--kind"]]
    assert len(argvs) == 22
    assert json.loads(_fresh(_RUN_EACH, json.dumps(argvs), "qutritwit.forms")) == []


def test_scalar_argvs_cover_success_and_failure():
    # Each newly numpy-free command is listed with a run that exits 0 and one that exits 2.
    # A sweep is named by what it prints, and by --improper for p*.
    statuses = {}
    for argv, env in _SCALAR_ARGVS:
        if env:  # the seed variable's failure is checked in a fresh process above
            continue
        command = argv[0]
        if command == "sweep":
            command = " ".join(["sweep", *argv[3:5], *(argv[5:] if argv[4] == "pstar" else [])])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses.setdefault(command, set()).add(cli.main(argv))
    newly = ("spa", "certify", "witness", "detect", "sweep --what witness", "sweep --what pstar --improper")
    assert all(statuses[command] == {0, 2} for command in newly), statuses


@pytest.mark.parametrize("argv", _NUMPY_ARGVS)
def test_matrix_commands_load_numpy(argv):
    code = (
        "import io, sys; from contextlib import redirect_stdout, redirect_stderr; from qutritwit.cli import main\n"
        "with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()): status = main(sys.argv[1:])\n"
        "print(status, 'numpy' in sys.modules)"
    )
    assert _fresh(code, *argv).split() == ["0", "True"]


@pytest.mark.parametrize("argv", [["classify", "1", "1", "0"], ["witness", "--bc", "1/2", "1/2", "--restarts", "4"]])
def test_console_process_prints_what_main_prints(capsys, monkeypatch, argv):
    # The console entry point ends with os._exit once its streams are flushed: the
    # process gives main's status and output, byte for byte.
    monkeypatch.delenv("QUTRITWIT_SEED", raising=False)
    status = cli.main(argv)
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "qutritwit.cli", *argv], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, captured.out.encode(), captured.err.encode())


def test_package_import_loads_no_numpy():
    code = "import sys, qutritwit; qutritwit.classify(qutritwit.MapParams(1, 1, 0)); print('numpy' in sys.modules)"
    assert _fresh(code).strip() == "False"


def test_spa_region_loads_no_numpy():
    code = "import sys, qutritwit; qutritwit.spa_region(1, 1); qutritwit.spa_region(0.1, 0.1); print('numpy' in sys.modules)"
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
