"""The command line's printed values and failures, each in a fresh
`python -m qutritwit.cli` process, as the console script runs it.

Every process runs under `-X importtime`, so a case can also say that numpy
was never imported; those lines are taken out of stderr before a case reads it.
The cases at the end check how such a process ends, and that a record larger
than a pipe buffer arrives whole.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_IMPORT_TIME = "import time:"
E400 = 10**400
# a = 2 - 10^-400, beyond the float range's resolution at 2.
A = f"{2 * E400 - 1}/{E400}"


def _run(argv: list[str]) -> SimpleNamespace:
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("QUTRITWIT_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qutritwit.cli", *argv],
        capture_output=True, env=env, text=True, timeout=120,
    )
    lines = proc.stderr.splitlines()
    return SimpleNamespace(
        status=proc.returncode,
        out=proc.stdout,
        err=[line for line in lines if not line.startswith(_IMPORT_TIME)],
        modules={line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith(_IMPORT_TIME)},
    )


def _standard_json(name):
    raise ValueError(f"{name} is not standard JSON")


def _record(check=lambda r: True, numpy=True):
    """A run that exits 0 with one standard JSON record whose results pass check; with
    numpy=False, one that never imported numpy."""

    def run_ok(run):
        assert run.status == 0, run.err
        results = json.loads(run.out, parse_constant=_standard_json)["results"]
        assert check(results), results
        assert numpy or "numpy" not in run.modules

    return run_ok


def _real_csv(numpy=True, first=None):
    """A run that exits 0 with 9 CSV rows of 9 real float cells, whose first cell is first unless that is None."""

    def run_ok(run):
        assert run.status == 0, run.err
        rows = [line.split(",") for line in run.out.splitlines()]
        assert len(rows) == 9 and all(len(row) == 9 for row in rows), rows
        cells = [x for row in rows for x in row]
        assert not any("j" in x for x in cells)
        list(map(float, cells))
        assert first is None or cells[0] == first, cells[0]
        assert numpy or "numpy" not in run.modules

    return run_ok


def _fails(run):
    """Exit 2 with nothing on stdout and exactly one `error:` line on stderr."""
    assert (run.status, run.out) == (2, "")
    assert len(run.err) == 1 and run.err[0].startswith("error: "), run.err


def _overflows(run):
    """Exit 2 with nothing on stdout and the one-line diagnostic of a value beyond the float range."""
    assert (run.status, run.out) == (2, "")
    assert run.err == ["error: a value overflows a float (the value is beyond the float range); "
                       "the input is too large or too small"], run.err


def _min_eigenvalue_is(exact: str):
    """The printed least eigenvalue is the exact value rounded once."""
    return _record(lambda r: r["min_eigenvalue"] == float(Fraction(exact)))


def _finite_values(r):
    return all(map(math.isfinite, r["values"]))


def _case(argv: list[str], check, label: str = ""):
    return pytest.param(argv, check, id=label or " ".join(argv))


_CASES = [
    _case(["witness", "--bc", "1", "1", "--restarts", "16"], _record()),
    # The CSV writer prints the real entries of a witness.
    _case(["witness", "--kind", "tilde", "--bc", "1/2", "1/2", "--format", "csv"], _real_csv(numpy=False)),
    _case(["witness", "--kind", "u", "--bc", "1/2", "1/2", "--format", "csv"], _real_csv()),
    # Exact entries tell the grid kets apart: |11>, |22>, |33> for W and W~ (flat 0, 4, 8),
    # |11>, |32>, |23> for W_U (flat 0, 5, 7); at (1, 1/2, 1/2) the grid holds -N/3 = -1/6.
    *(
        _case(["witness", "--kind", kind, "--bc", "1/2", "1/2", "--restarts", "4"],
              _record(lambda r, e=entries: r["exact"] is True and r["matrix"][0][4:6] == e))
        for kind, entries in (("standard", ["-1/6", "0"]), ("tilde", ["-1/6", "0"]), ("u", ["0", "-1/6"]))
    ),
    # Rotation angles lie on the ellipse, the boundary of the positive set: both families
    # report them on the plane and on the ellipse, and float roundoff must not report them
    # not positive (at 0.25 the sum is 2 - 1 ulp).
    *(
        _case(["classify", "--alpha", alpha, *family],
              _record(lambda r: r["on_slice"] is True and r["on_ellipse"] is True
                      and r["positivity"] == "positive_not_cp"))
        for family in ([], ["--improper"]) for alpha in ("0.25", "0.5", "1.0471975511965976", "3.14159")
    ),
    # The plane and ellipse reports are exact decisions for exact input: a point 1e-10 off
    # the plane is off it, and one 1e-10 inside the ellipse is not on it.
    _case(["classify", "1", "9999999999/10000000000", "0"], _record(lambda r: r["on_slice"] is False)),
    _case(["classify", "--bc", "1/10000000000", "9999999999/10000000000"],
          _record(lambda r: r["on_ellipse"] is False)),
    # Near b = c the detection value cancels in floats; exact input keeps its sign.
    _case(["certify", "--indecomposable", "--bc", "1/2", "50000001/100000000"], _record(lambda r: r["value"] < 0)),
    _case(["detect", "--bc", "1/2", "50000001/100000000", "--eps-grid", "1.000000005", "1.000000015", "3"],
          _record(lambda r: all(v < 0 for v in r["values"]))),
    # eps^2 overflows in float at eps = 1e300, where the detection value is about 3.7e296:
    # the floats read as the rationals they hold give it.
    _case(["detect", "--alpha", "1.0", "--eps-grid", "1", "1e300", "3"], _record(_finite_values)),
    # The critical SPA state and the tilde certificate's P and Q are PSD: their smallest
    # eigenvalues are zero up to roundoff.  Neither command imports numpy.
    _case(["spa", "--bc", "1", "1/2"], _record(lambda r: abs(r["state_min_eigenvalue"]) <= 1e-12, numpy=False)),
    _case(["certify", "--tilde", "--bc", "1", "1/2"],
          _record(lambda r: r["min_eig_P"] >= -1e-12 and r["min_eig_Q"] >= -1e-12, numpy=False)),
    # The smallest eigenvalue of W and of W_U is (N/3)(a-2): -1/4 at (1/2, 1, 1/2) and
    # -1/6 at (1, 1/2, 1/2), printed as the exact value rounded to the nearest float.
    _case(["witness", "1/2", "1", "1/2", "--restarts", "16"], _min_eigenvalue_is("-1/4")),
    _case(["witness", "--kind", "u", "1", "1/2", "1/2", "--restarts", "16"], _min_eigenvalue_is("-1/6")),
    # At |b - c| = 1e-16 a float eps rounds onto an end of the interval; the exact vertex
    # keeps the value negative.
    _case(["certify", "--indecomposable", "--bc", "1/2", "5000000000000001/10000000000000000"],
          _record(lambda r: r["value"] < 0 and r["eps_exact"] is not None)),
    # At the Choi angle pi/3 the lower end of the detection interval is 1; the cancelling
    # root formula printed 1.5.
    _case(["classify", "--alpha", "1.0471975511965976"], _record(lambda r: r["detection_interval"][0] < 1.01),
          "classify --alpha pi/3 detection interval"),
    # Scalar commands start without numpy; detect takes the values of every --kind from
    # geometry's closed forms.
    _case(["classify", "1", "1", "0"], _record(numpy=False)),
    _case(["detect", "--bc", "1/3", "1"], _record(numpy=False)),
    _case(["detect", "--kind", "u", "--bc", "1/3", "1"], _record(numpy=False)),
    # On the plane Tr(rho_eps W~) = (eps-1)^2/(3 eps) at every point, float points included:
    # each printed value is that of the printed eps, rounded once.  At the float 0.1, just
    # above 1/10, that is 2.6999999999999997; the float form sum printed 2.7.
    _case(["detect", "--kind", "tilde", "--alpha", "2.2", "--improper"],
          _record(lambda r: r["values"] == [float((Fraction(e) - 1) ** 2 / (3 * Fraction(e))) for e in r["eps"]]
                  and r["values"][0] == 2.6999999999999997, numpy=False)),
    # The improper family's p* is that of its witness W~ (about 0.68), not the standard
    # witness's closed form (0.6 at angle 0).  Both it and W~'s trace and least eigenvalue
    # (about -0.235) come from the certified spectrum, without numpy.
    _case(["sweep", "--alpha-grid", "6", "--what", "pstar", "--improper"],
          _record(lambda r: r["rows"][0]["p_star"] > 0.67, numpy=False)),
    _case(["sweep", "--alpha-grid", "6", "--what", "witness", "--improper"],
          _record(lambda r: len(r["rows"]) == 6 and all(
              abs(row["trace"] - 1) <= 1e-15 and -0.24 < row["min_eigenvalue"] < -0.23 for row in r["rows"]), numpy=False)),
    # The see-saw's span ranks along both ellipse families: 7 at the Choi-map angles and 9
    # between them on the proper family, 8 everywhere on the improper one.
    _case(["sweep", "--alpha-grid", "12", "--what", "rank"],
          _record(lambda r: [row["span_rank"] for row in r["rows"]] == [7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 7, 7])),
    _case(["sweep", "--alpha-grid", "12", "--what", "rank", "--improper"],
          _record(lambda r: [row["span_rank"] for row in r["rows"]] == [8] * 12)),
    # The default 200 restarts take the closed-form 3x3 eigensolver: the Choi witness is
    # block-positive with minimum 0, and W at (0, 1/2, 3/2) is not positive.
    _case(["witness", "1", "1", "0"], _record(lambda r: abs(r["block_positivity_estimate"]) <= 1e-9)),
    _case(["witness", "0", "1/2", "3/2"], _record(lambda r: r["block_positivity_estimate"] < -1e-7)),
    # Exact roots print as they are: on the plane the interval is (1, c/b), and on the ellipse
    # the tilde certificate's P is PSD with least eigenvalue exactly 0.
    _case(["classify", "--bc", "1/3", "4/3"], _record(lambda r: r["detection_interval"] == [1.0, 4.0], numpy=False)),
    _case(["classify", "--bc", "1/5", "3/5"], _record(lambda r: r["detection_interval"] == [1.0, 3.0], numpy=False)),
    _case(["certify", "--tilde", "25/19", "4/19", "9/19"], _record(lambda r: r["min_eig_P"] == 0.0, numpy=False)),
    # P's entries are the exact entries rounded once: c - 1 = -1/5 and a - 1 = 3/20 at (23/20, 1/20, 4/5),
    # where float arithmetic on the rounded a printed -0.19999999999999996 and 0.1499999999999999.
    _case(["certify", "--tilde", "--bc", "1/20", "4/5"],
          _record(lambda r: r["P"][0][8] == [-0.2, 0.0] and r["P"][4][8] == [0.15, 0.0], numpy=False)),
    # A float point's witness entries and the SPA remainder sigma_d are the exact values at the
    # point's rationals, rounded once: float arithmetic printed 0.21345122155587617 for the first
    # entry at angle 0.4, and 0.2999999999999998 for sigma_d's 3/10 at (1, 3/10, 7/10).
    _case(["witness", "--alpha", "0.4", "--format", "csv"], _real_csv(numpy=False, first="0.21345122155587612")),
    _case(["spa", "--bc", "3/10", "7/10"],
          _record(lambda r: r["components"]["sigma_d"][1][1] == [0.3, 0.0]
                  and r["components"]["sigma_d"][2][2] == [0.7, 0.0], numpy=False)),
    # At b = 1e-400, c = 0, a = 2 - b is 2.0 in float, but 2 - a is not 0: the interval is (0, 1).
    _case(["classify", "--bc", f"1/{E400}", "0"], _record(lambda r: r["detection_interval"] == [0.0, 1.0]),
          "classify --bc 1e-400 0"),
    # At a = 2 - 1e-400, b = 0, c = 1 the certificate exists; its eps = 10^400 + 1 is beyond
    # the float range: null, with eps_exact set.
    _case(["certify", "--indecomposable", A, "0", "1"],
          _record(lambda r: r["certificate"] == "ppt_state" and r["eps"] is None and r["eps_exact"] is not None),
          "certify --indecomposable 2-1e-400 0 1"),
    # At the same point the detection interval is (10^400, inf): both ends print null, the
    # values stay finite.
    _case(["detect", A, "0", "1"], _record(lambda r: r["detection_interval"] == [None, None] and _finite_values(r)),
          "detect 2-1e-400 0 1"),
    # A non-finite angle, a usage error, an option the subcommand does not take, a float
    # overflow, a plane-only command off the plane and a negative see-saw seed take the same
    # exit; so does a critical weight p* below the float range, and an overflow inside numpy,
    # which numpy only warns about unless main's guard turns it into the exit.
    *(
        _case(argv.split(), _fails)
        for argv in (
            "classify --alpha nan",
            "witness --kind bogus 1 1 0",
            "classify --restarts 5 1 1 0",
            "detect 1 1 0 --eps-grid 1e-320 1 3",
            "spa 1 1 1/2000000000",
            "sweep --alpha-grid 2 --what rank --seed -1",
            "witness 0 0 1e-308 --restarts 4",
        )
    ),
    _case(["spa", "--bc", f"1/{E400}", "0"], _fails, "spa --bc 1e-400 0"),
    # At (a, 0, 0) the witness's least eigenvalue is (a-2)/(3a), beyond the float range for
    # a = 10^-400 and for the decimal 1e-310: witness JSON fails before its see-saw.
    _case(["witness", f"1/{E400}", "0", "0", "--restarts", "2"], _overflows, "witness 1e-400 0 0"),
    _case(["witness", "1e-310", "0", "0", "--restarts", "2"], _overflows),
]


@pytest.mark.parametrize("argv, check", _CASES)
def test_console_output(argv, check):
    check(_run(argv))


# The console entry point flushes stdout and stderr and ends with os._exit, so the
# interpreter's teardown (atexit handlers included) is skipped; main() called in-process,
# and an exception that escapes it, end the usual way.  Each case is a fresh `python -c`
# process that registers an atexit handler first.
_ATEXIT = "atexit ran"
_WITH_HANDLER = f"""
import atexit, os, sys
from qutritwit import cli
atexit.register(lambda: os.write(2, b"{_ATEXIT}\\n"))
"""


def _console(argv: list[str], run: str = "cli.console_main()") -> SimpleNamespace:
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("QUTRITWIT_SEED", None)
    proc = subprocess.run([sys.executable, "-c", _WITH_HANDLER + run, *argv], capture_output=True, env=env,
                          text=True, timeout=120)
    return SimpleNamespace(status=proc.returncode, out=proc.stdout, err=proc.stderr.splitlines())


def test_console_main_skips_atexit_handlers():
    run = _console(["classify", "1", "1", "0"])
    assert (run.status, run.err) == (0, [])
    assert json.loads(run.out)["command"] == "classify"


def test_in_process_main_keeps_the_interpreter_exit():
    run = _console(["classify", "1", "1", "0"], "sys.exit(cli.main(sys.argv[1:]))")
    assert (run.status, run.err) == (0, [_ATEXIT])
    assert json.loads(run.out)["command"] == "classify"


def test_exception_from_main_keeps_its_traceback_and_status():
    run = _console([], "def fail():\n    raise RuntimeError('bug')\ncli.main = fail\ncli.console_main()")
    assert (run.status, run.out) == (1, "")
    assert run.err[0] == "Traceback (most recent call last):" and "RuntimeError: bug" in run.err
    assert run.err[-1] == _ATEXIT


def test_console_help_exits_0_with_usage():
    run = _console(["--help"])
    assert run.status == 0 and run.out.startswith("usage: qutritwit")


def test_console_usage_error_exits_2_with_one_line():
    _fails(_console(["classify", "1", "1"]))


def test_large_record_arrives_whole(tmp_path):
    # About 2.2 MB, far beyond a pipe buffer: the process ends only once the reader has it all.
    argv = ["-m", "qutritwit.cli", "sweep", "--alpha-grid", "360", "--what", "witness"]
    env = dict(os.environ, PYTHONPATH=_SRC)
    piped = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert len(piped.stdout) > 2_000_000
    assert len(json.loads(piped.stdout, parse_constant=_standard_json)["results"]["rows"]) == 360
    target = tmp_path / "sweep.json"
    to_file = subprocess.run([sys.executable, *argv, "--output", str(target)], capture_output=True, env=env, timeout=120)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert target.read_bytes() == piped.stdout
