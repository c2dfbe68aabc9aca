"""Tests of the benchmark itself.

Every correctness check must pass on a real output and fail on a deliberately
corrupted one, every workload must run at a tiny size, and the per-layer and
tail statistics must be computed as documented.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import worker
import workloads
from qutritwit import MapParams, SeeSawConfig, slice_params, so2_coeffs
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def cli_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def _real(name: str, unit: dict) -> tuple[workloads.Workload, dict]:
    wk = workloads.WORKLOADS[name]
    out = wk.run(unit, NullTracer())
    if wk.after is not None:
        wk.after(unit, out, NullTracer())
    assert wk.check(unit, out) == []
    return wk, out


def _fails(wk, unit, out, check: str) -> bool:
    return check in wk.check(unit, out)


# ---------------------------------------------------------------------------
# Every workload runs at a tiny size; only catalogued defects may fail.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_tiny(name, cli_path):
    wk = workloads.WORKLOADS[name]
    units = wk.build(5, "tiny")
    assert units
    window = worker.run_window(wk, units, seconds=0, tr=NullTracer(), min_passes=1)
    assert window["attempted"] == len(units)
    assert window["n_unexpected"] == 0, window["unexpected"]
    assert len(window["ok_latencies_s"]) == len(units) - window["failed"]


def test_inputs_depend_only_on_seed():
    for name in ("plane_scan", "oracle_grid", "rank_sweep", "cli_session"):
        build = workloads.WORKLOADS[name].build
        a, b = build(3), build(3)
        assert [repr(u.get("params", u.get("argv"))) for u in a] == [repr(u.get("params", u.get("argv"))) for u in b]
    assert [u["params"] for u in workloads.build_plane_scan(1)] != [u["params"] for u in workloads.build_plane_scan(2)]


def test_workload_sizes():
    assert len(workloads.build_oracle_grid(1)) == 820
    rank = workloads.build_rank_sweep(1)
    assert len(rank) == 24
    anchors = {(u["family"], u["k"]): u["rank"] for u in rank if u["rank"] is not None}
    assert anchors == {("proper", 2): 7, ("proper", 6): 9, ("proper", 10): 7}
    subcommands = {u["argv"][0] for u in workloads.build_cli_session(1)}
    assert subcommands == {"classify", "witness", "detect", "spa", "certify", "figure", "sweep"}


# ---------------------------------------------------------------------------
# plane_scan checks
# ---------------------------------------------------------------------------


def _plane_unit(a, b, c, exact=True):
    params = MapParams(a, b, c) if exact else slice_params(float(b), float(c))
    return {"params": params, "exact": (a, b, c), "spa": a < 2, "tilde_region": b * c >= (1 - a) ** 2}


def _bump(M, i, j, d=1e-6):
    M = np.array(M, copy=True)
    M[i, j] += d
    return M


PLANE_CORRUPTIONS = {
    "classify": lambda o: o.update({"class": (ref.NOT_POSITIVE, ref.UNKNOWN)}),
    "witness_matrix": lambda o: o.update({"W": _bump(o["W"], 0, 0)}),
    "witness_tilde_matrix": lambda o: o.update({"Wt": _bump(o["Wt"], 1, 1)}),
    "witness_u": lambda o: o.update({"Wu": _bump(o["Wu"], 0, 7)}),
    "exact_witness_entries": lambda o: o["exact"]["u_conjugated"][0].__setitem__(0, "1/8"),
    "detects_rho_family": lambda o: o.update({"interval": (o["interval"][0], o["interval"][1] * 1.01)}),
    "indecomposability_certificate": lambda o: o.update({"cert": (o["cert"][0], o["cert"][1] * 1.1)}),
    "spa_state": lambda o: o.update({"spa": dataclasses.replace(o["spa"], p_star=o["spa"].p_star + 1e-6)}),
    "critical_p_from_witness": lambda o: o.update({"pstar": o["pstar"] + 1e-6}),
    "decompose_tilde": lambda o: o.update({"dec": dataclasses.replace(o["dec"], P=o["dec"].P + 1e-6 * np.eye(9))}),
    "is_cp_choi": lambda o: o.update({"cp": not o["cp"]}),
    "min_eigenvalue": lambda o: o.update({"lmin": o["lmin"] + 1e-6}),
}


def test_plane_corruptions_cover_every_check():
    assert set(PLANE_CORRUPTIONS) == set(workloads.PLANE_CHECKS)


@pytest.mark.parametrize("check", sorted(PLANE_CORRUPTIONS))
def test_plane_check_fails_on_corrupted_output(check):
    # Indecomposable, inside the tilde region and the SPA region: every check applies.
    unit = _plane_unit(F(1), F(2, 3), F(1, 3))
    wk, out = _real("plane_scan", unit)
    PLANE_CORRUPTIONS[check](out)
    assert wk.check(unit, out) == [check]
    assert wk.known(unit, out, [check]) is None


def test_plane_roundoff_is_a_known_defect_only_on_float_boundary_points():
    wk = workloads.WORKLOADS["plane_scan"]
    # 13/9 + 2/9 + 1/3 = 2 exactly, but not in floats.
    unit = _plane_unit(F(13, 9), F(2, 9), F(1, 3), exact=False)
    out = wk.run(unit, NullTracer())
    wk.after(unit, out, NullTracer())
    failed = wk.check(unit, out)
    if failed:  # the seed's classifier: on-plane point called NOT_POSITIVE
        assert failed == ["classify"]
        assert wk.known(unit, out, failed) == workloads.ROUNDOFF_DEFECT
    exact = _plane_unit(F(13, 9), F(2, 9), F(1, 3))
    wk, out = _real("plane_scan", exact)
    PLANE_CORRUPTIONS["classify"](out)
    assert wk.known(exact, out, ["classify"]) is None


# ---------------------------------------------------------------------------
# oracle_grid checks
# ---------------------------------------------------------------------------


def _oracle_unit(b, c):
    b, c = F(b), F(c)
    return {"params": slice_params(float(b), float(c)), "exact": (2 - b - c, b, c),
            "cfg": SeeSawConfig(restarts=16, max_iters=200, rng_seed=1)}


ORACLE_CORRUPTIONS = {
    "classify": lambda o: o.update({"class": (ref.POSITIVE, ref.DECOMPOSABLE)}),
    "witness_matrix": lambda o: o.update({"W": _bump(o["W"], 4, 4)}),
    "seesaw_value": lambda o: o.update({"value": o["value"] + 1e-6}),
    "seesaw_sign": lambda o: o.update({"value": 0.01}),
}


def test_oracle_corruptions_cover_every_check():
    assert set(ORACLE_CORRUPTIONS) == set(workloads.ORACLE_CHECKS)


@pytest.mark.parametrize("check", sorted(ORACLE_CORRUPTIONS))
def test_oracle_check_fails_on_corrupted_output(check):
    unit = _oracle_unit(2, 0)  # (0, 2, 0): not positive, clearly negative estimate
    wk, out = _real("oracle_grid", unit)
    assert out["value"] < -workloads.BAND
    ORACLE_CORRUPTIONS[check](out)
    assert check in wk.check(unit, out)


def test_oracle_sign_check_skips_the_band_only():
    unit = _oracle_unit(1, 1)  # reduction map: positive, estimate ~ 0
    wk, out = _real("oracle_grid", unit)
    out["value"] = -0.01
    assert _fails(wk, unit, out, "seesaw_sign")
    out["value"] = -workloads.BAND / 2  # inside the band: no sign verdict to check
    assert workloads.ORACLE_CHECKS["seesaw_sign"](unit, out, wk.reference(unit))


# ---------------------------------------------------------------------------
# rank_sweep checks
# ---------------------------------------------------------------------------


def _rank_unit():
    return {"family": "proper", "k": 6, "params": so2_coeffs(np.pi), "cfg": SeeSawConfig(rng_seed=3), "rank": 9}


RANK_CORRUPTIONS = {
    "witness": lambda o: o.update({"W": _bump(o["W"], 0, 4)}),
    "harvest_zero": lambda o: o["pairs"].append((np.array([1, 0, 0], complex), np.array([0, 1, 0], complex))),
    "span_rank": lambda o: o.update({"rank": 8}),
}


def test_rank_corruptions_cover_every_check():
    assert set(RANK_CORRUPTIONS) == set(workloads.RANK_CHECKS)


@pytest.mark.parametrize("check", sorted(RANK_CORRUPTIONS))
def test_rank_check_fails_on_corrupted_output(check):
    unit = _rank_unit()
    wk, out = _real("rank_sweep", unit)
    RANK_CORRUPTIONS[check](out)
    assert wk.check(unit, out) == [check]


def test_rank_harvest_must_not_be_empty():
    unit = _rank_unit()
    wk, out = _real("rank_sweep", unit)
    out["pairs"] = []
    assert _fails(wk, unit, out, "harvest_zero")


# ---------------------------------------------------------------------------
# cli_session checks
# ---------------------------------------------------------------------------


def _corrupt_value(x):
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, float)):
        return x + 1e-3 * (1 + abs(x))
    if isinstance(x, str):
        return x + "1" if re.fullmatch(r"-?\d+(/\d+)?", x) else "corrupted"
    if isinstance(x, list):
        return [_corrupt_value(v) for v in x]
    if isinstance(x, dict):
        return {k: _corrupt_value(v) for k, v in x.items()}
    return "corrupted"


def _corrupt_stdout(text: str) -> str:
    """Perturb every number and string of the results (JSON) or every cell (CSV)."""
    try:
        record = json.loads(text)
    except ValueError:
        return re.sub(r"(?<![\de.+-])(\d+\.\d+|\d+)(?![\d.])", lambda m: repr(float(m.group()) + 1e-3), text)
    record["results"] = _corrupt_value(record["results"])
    return json.dumps(record)


def test_every_cli_value_check_passes_on_real_output_and_fails_on_corrupted(cli_path):
    wk = workloads.WORKLOADS["cli_session"]
    units = [u for u in wk.build(2) if u["values"] is not None]
    assert len(units) >= 10
    for unit in units:
        out = wk.run(unit, NullTracer())
        assert wk.check(unit, out) == [], unit["argv"]
        out["stdout"] = _corrupt_stdout(out["stdout"])
        assert "values" in wk.check(unit, out), unit["argv"]


def test_cli_exit_and_stdout_checks(cli_path):
    wk = workloads.WORKLOADS["cli_session"]
    units = {tuple(u["argv"]): u for u in wk.build(1)}
    ok = units[("classify", "--bc", "1", "1")]
    _, out = _real("cli_session", ok)
    assert _fails(wk, ok, dict(out, code=1), "exit_status")
    assert _fails(wk, ok, dict(out, stdout=out["stdout"].replace('"1"', "NaN", 1)), "stdout")
    assert _fails(wk, ok, dict(out, stdout=out["stdout"].replace('"classify"', '"witness"', 1)), "stdout")

    arity = units[("classify", "1", "1")]
    _, out = _real("cli_session", arity)
    assert _fails(wk, arity, dict(out, code=0), "exit_status")
    assert _fails(wk, arity, dict(out, stderr="Traceback (most recent call last):\n  boom\n"), "stdout")
    assert wk.known(arity, dict(out, code=1), ["exit_status"]) is None


def test_cli_invalid_input_defects_are_counted_as_known():
    wk = workloads.WORKLOADS["cli_session"]
    nan = next(u for u in wk.build(1) if u["argv"] == ["classify", "--alpha", "nan"])
    out = {"code": 0, "stdout": '{"schema_version": "1", "results": {"x": NaN}}', "stderr": ""}
    failed = wk.check(nan, out)
    assert failed == ["exit_status", "stdout"]
    assert wk.known(nan, out, failed) == workloads.INPUT_DEFECT


def test_strict_json_rejects_non_standard_constants():
    for text in ('{"x": NaN}', '{"x": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            ref.strict_json(text)
    assert ref.strict_json('{"x": 1.5}') == {"x": 1.5}


# ---------------------------------------------------------------------------
# References, spans, statistics, contract
# ---------------------------------------------------------------------------


def test_exact_class_on_named_points():
    assert ref.exact_class(F(0), F(1), F(1)) == (ref.POSITIVE, ref.DECOMPOSABLE)  # reduction map
    assert ref.exact_class(F(1), F(1), F(0)) == (ref.POSITIVE, ref.INDECOMPOSABLE)  # Choi map
    assert ref.exact_class(F(2), F(0), F(0)) == (ref.CP, ref.DECOMPOSABLE)
    assert ref.exact_class(F(0), F(2), F(0))[0] == ref.NOT_POSITIVE


def test_reference_witness_trace_and_spectrum():
    W = ref.witness(F(1), F(1), F(0))
    assert abs(np.trace(W).real - 1) < 1e-15
    assert abs(ref.min_eig(W) - (1 - 2) / 6) < 1e-12  # (a-2)/6 on the plane


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.rid = "r1"
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
        with tr.span("inner"):
            sum(range(20000))
    selfs = tr.self_times_ns()
    outer = tr.spans[0]
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == 0  # parent links
    assert {s[4] for s in tr.spans} == {"r1"}
    assert selfs["outer"][0] == outer[2] - outer[1] - sum(selfs["inner"])


def test_tail_has_ten_samples_beyond():
    for n in (21, 24, 100, 650, 820):
        k = run.tail_index(n)
        assert n - 1 - k == 10
    for n in (5, 12, 20):  # too few samples for a tail: it falls back to the median
        assert run.tail_index(n) == (n - 1) // 2
    assert run.percentile([1, 2, 3, 4], 50) == 2.5


def test_process_probe_pairs_each_invocation_with_its_neighbours():
    speed = worker.HostSpeed("process")
    speed.times, speed.probes = [0.0, 1.0, 2.0, 3.0], [0.1, 0.3, 0.1, 0.2]
    # one unit, two passes: at t=0.5 between probes 0.1 and 0.3, at t=2.5 between 0.1 and 0.2
    value, raw = speed.unit_values([[(0.5, 0.4), (2.5, 0.3)]])
    ref_s = worker.PROCESS_REF_S
    assert raw == [pytest.approx(0.35)]
    assert value == [pytest.approx((0.4 * ref_s / 0.2 + 0.3 * ref_s / 0.15) / 2)]


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    window = {"ok_latencies_s": [0.1, 0.2], "busy_s": 0.3, "attempted": 2, "failed": 0, "classify_wrong": 0,
              "passes": 3, "raw_ok_latencies_s": [0.1, 0.2], "raw_busy_s": 0.3}
    e2e, _ = run.end_to_end(window, [(0.5, 0.1)], 40.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layers = worker.layer_metrics(Tracer(), window, window, {"harvest_derived_ms": 1.0})
    assert {m["name"] for m in spec["per_layer"]} == set(layers) | set(run.STARTUP_PROBES)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in {**e2e, **layers}.items())


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "plane_scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
