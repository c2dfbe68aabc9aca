"""The four benchmark workloads: seeded inputs, timed library calls, checks.

Each workload has
  build(seed, size)      -> units (size "full" or "tiny"), made from the seed only;
  run(unit, tr)          -> outputs; the timed part, one closed-loop call per unit;
  CHECKS                 -> name -> predicate(unit, out, ref) compared with an
                            independent reference from ``reference.py``;
  known(unit, out, failed) -> why the failures are a catalogued seed defect, or None.

Spans are opened by this file around its own calls into each package module;
the package itself is not instrumented.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from qutritwit import (
    SeeSawConfig,
    classify,
    critical_p_from_witness,
    decompose_tilde,
    detects_rho_family,
    exact_witness_entries,
    improper_coeffs,
    indecomposability_certificate,
    is_cp_choi,
    min_product_expectation,
    phi_map,
    slice_params,
    so2_coeffs,
    span_rank,
    spa_state,
    witness_matrix,
    witness_tilde_matrix,
    witness_u,
    zero_product_vectors,
)
from qutritwit import MapParams, linalg

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
BAND = 1e-7  # |estimate| below this is not a sign verdict (criterion 5)
EXACT_KINDS = ("standard", "tilde", "u_conjugated")
ROUNDOFF_DEFECT = "ROADMAP item 2: float roundoff flips a decision on a classification boundary"
INPUT_DEFECT = "ROADMAP item 2: invalid input does not exit 2 with a one-line diagnostic"


def _class_of(p: MapParams) -> tuple[str, str]:
    cls = classify(p)
    return cls.positivity.value, cls.decomposability.value


# Checks whose verdict a roundoff-level boundary point can flip.
_ROUNDOFF_CHECKS = {"classify", "detects_rho_family", "indecomposability_certificate"}


def _roundoff_known(unit, out, failed, r) -> str | None:
    """Every failure is a boundary decision on a float point within rounding of it."""
    p = unit["params"]
    if set(failed) <= _ROUNDOFF_CHECKS and not p.is_exact and ref.near_decision_boundary(p.asfloats()):
        return ROUNDOFF_DEFECT
    return None


def _shuffled(rng: np.random.Generator, units: list) -> list:
    return [units[i] for i in rng.permutation(len(units))]


# ---------------------------------------------------------------------------
# plane_scan: exact and closed-form path, no see-saw.
# ---------------------------------------------------------------------------


def build_plane_scan(seed: int, size: str = "full") -> list[dict]:
    n, n_random = (18, 270) if size == "full" else (2, 3)
    units = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            b, c = Fraction(2 * i, n), Fraction(2 * j, n)
            exact = (2 - b - c, b, c)
            units.append({"params": MapParams(*exact), "exact": exact})
            units.append({"params": slice_params(float(b), float(c)), "exact": exact})
    rng = np.random.default_rng([seed, 1])
    while n_random:
        b, c = rng.uniform(0.0, 2.0, size=2)
        if b + c <= 2.0:
            fb, fc = Fraction(b), Fraction(c)
            units.append({"params": slice_params(float(b), float(c)), "exact": (2 - fb - fc, fb, fc)})
            n_random -= 1
    for u in units:
        a, b, c = u["exact"]
        u["spa"] = a < 2
        u["tilde_region"] = b * c >= (1 - a) ** 2
    return _shuffled(rng, units)


def run_plane_scan(unit, tr) -> dict:
    p = unit["params"]
    out = {}
    with tr.span("maps.classify"):
        out["class"] = _class_of(p)
    with tr.span("witnesses.witness_matrix"):
        W = witness_matrix(p)
    with tr.span("witnesses.witness_tilde_matrix"):
        out["Wt"] = witness_tilde_matrix(p).matrix
    with tr.span("witnesses.witness_u"):
        out["Wu"] = witness_u(p).matrix
    out["W"] = W.matrix
    if p.is_exact:
        with tr.span("witnesses.exact_witness_entries"):
            out["exact"] = {k: exact_witness_entries(p, k) for k in EXACT_KINDS}
    with tr.span("states.detects_rho_family"):
        out["interval"] = detects_rho_family(p)
    with tr.span("oracles.indecomposability_certificate"):
        out["cert"] = indecomposability_certificate(p)
    if unit["spa"]:
        with tr.span("spa.spa_state"):
            out["spa"] = spa_state(p)
    with tr.span("spa.critical_p_from_witness"):
        out["pstar"] = critical_p_from_witness(W)
    if unit["tilde_region"]:
        with tr.span("witnesses.decompose_tilde"):
            out["dec"] = decompose_tilde(p)
    with tr.span("maps.phi_map"):
        m = phi_map(p)
    with tr.span("oracles.is_cp_choi"):
        out["cp"] = is_cp_choi(m)
    with tr.span("linalg.hermitian_eigen"):
        out["lmin"] = linalg.min_eigenvalue(W.matrix)
    return out


def after_plane_scan(unit, out, tr) -> None:
    """Untimed: the LAPACK reference eigenvalue of the same matrix."""
    with tr.span("linalg.eigvalsh_ref"):
        out["lmin_ref"] = float(np.linalg.eigvalsh(out["W"])[0])


def ref_plane_scan(unit) -> dict:
    a, b, c = unit["exact"]
    W = ref.witness(a, b, c, "standard")
    pstar = ref.critical_weight(W)
    r = {
        "class": ref.exact_class(a, b, c),
        "W": W,
        "Wt": ref.witness(a, b, c, "tilde"),
        "Wu": ref.witness(a, b, c, "u_conjugated"),
        "interval": ref.detection_interval(a, b, c),
        "pstar": pstar,
        "state": (1 - pstar) * W + (pstar / 9) * np.eye(9),
        "region": 2 * b + c >= 1 and 2 * c + b >= 1,
        "cp": a >= 2,
    }
    if unit["params"].is_exact:
        circ = ref.exact_witness(a, b, c, "circulant")
        r["exact"] = {"standard": circ, "tilde": ref.exact_witness(a, b, c, "improper"),
                      "u_conjugated": ref.swap_first_levels(circ)}
    return r


def _interval_ok(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return all(g == w or abs(g - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want))


def _cert_ok(unit, out, r) -> bool:
    if out["cert"] is None or r["interval"] is None:
        return out["cert"] is None and r["interval"] is None
    eps, value = out["cert"]
    lo, hi = r["interval"]
    expect = float(np.trace(ref.rho_eps(eps) @ r["W"]).real)
    return lo < eps < hi and value < 0 and abs(value - expect) <= 1e-9 * max(1.0, abs(expect))


def _spa_ok(unit, out, r) -> bool:
    if not unit["spa"]:
        return "spa" not in out
    res = out["spa"]
    ok = abs(res.p_star - r["pstar"]) <= 1e-9 and ref.close(res.state.matrix, r["state"], 1e-9)
    ok = ok and res.separable_certified == r["region"] and (res.components is not None) == r["region"]
    if res.components is not None:
        ok = ok and ref.close(res.components.reconstruct(), r["state"], 1e-9)
    return ok


def _decompose_ok(unit, out, r) -> bool:
    if not unit["tilde_region"]:
        return "dec" not in out
    P, Q = out["dec"].P, out["dec"].Q
    return (ref.min_eig(P) >= -1e-9 and ref.min_eig(Q) >= -1e-9
            and ref.close(P + ref.partial_transpose_second(Q), 6 * r["Wt"], 1e-9))


def _exact_entries_ok(unit, out, r) -> bool:
    if "exact" not in r:
        return "exact" not in out
    return all(ref.parse_fraction_grid(out["exact"][k]) == r["exact"][k] for k in EXACT_KINDS)


PLANE_CHECKS = {
    "classify": lambda u, o, r: o["class"] == r["class"],
    "witness_matrix": lambda u, o, r: ref.close(o["W"], r["W"], 1e-12),
    "witness_tilde_matrix": lambda u, o, r: ref.close(o["Wt"], r["Wt"], 1e-12),
    "witness_u": lambda u, o, r: ref.close(o["Wu"], r["Wu"], 1e-12),
    "exact_witness_entries": _exact_entries_ok,
    "detects_rho_family": lambda u, o, r: _interval_ok(o["interval"], r["interval"]),
    "indecomposability_certificate": _cert_ok,
    "spa_state": _spa_ok,
    "critical_p_from_witness": lambda u, o, r: abs(o["pstar"] - r["pstar"]) <= 1e-9,
    "decompose_tilde": _decompose_ok,
    "is_cp_choi": lambda u, o, r: o["cp"] == r["cp"],
    "min_eigenvalue": lambda u, o, r: abs(o["lmin"] - o["lmin_ref"]) <= 1e-10,
}


# ---------------------------------------------------------------------------
# oracle_grid: many small see-saw batches over the criterion-5 lattice.
# ---------------------------------------------------------------------------


def build_oracle_grid(seed: int, size: str = "full") -> list[dict]:
    # Criterion 5's see-saw settings.  Which points run to the iteration cap
    # depends on the RNG, so it stays fixed and the seed orders the points.
    n = 40
    cfg = SeeSawConfig(restarts=16, max_iters=200, rng_seed=11)
    units = []
    for i in range(n):
        for j in range(n - i):
            b, c = Fraction(2 * i, n - 1), Fraction(2 * j, n - 1)
            units.append({"params": slice_params(2.0 * i / (n - 1), 2.0 * j / (n - 1)),
                          "exact": (2 - b - c, b, c), "cfg": cfg})
    if size != "full":
        units = units[:: len(units) // 5]
    return _shuffled(np.random.default_rng([seed, 2]), units)


def run_oracle_grid(unit, tr) -> dict:
    p, cfg = unit["params"], unit["cfg"]
    with tr.span("witnesses.witness_matrix"):
        W = witness_matrix(p).matrix
    with tr.span("oracles.min_product_expectation"):
        pair = min_product_expectation(W, cfg)
    tr.count("oracles.min_product_expectation.restarts", cfg.restarts)
    tr.count("oracles.min_product_expectation.in_band", abs(pair.value) < BAND)
    with tr.span("maps.classify"):
        cls = _class_of(p)
    return {"W": W, "psi": pair.psi, "phi": pair.phi, "value": pair.value, "class": cls}


def ref_oracle_grid(unit) -> dict:
    a, b, c = unit["exact"]
    return {"class": ref.exact_class(a, b, c), "W": ref.witness(a, b, c, "standard")}


def _unit_vectors(*vs) -> bool:
    return all(abs(np.linalg.norm(v) - 1.0) <= 1e-9 for v in vs)


ORACLE_CHECKS = {
    "classify": lambda u, o, r: o["class"] == r["class"],
    "witness_matrix": lambda u, o, r: ref.close(o["W"], r["W"], 1e-12),
    "seesaw_value": lambda u, o, r: _unit_vectors(o["psi"], o["phi"])
    and abs(o["value"] - ref.product_expectation(r["W"], o["psi"], o["phi"])) <= 1e-9,
    "seesaw_sign": lambda u, o, r: abs(o["value"]) < BAND
    or (o["value"] < 0) == (r["class"][0] == ref.NOT_POSITIVE),
}


# ---------------------------------------------------------------------------
# rank_sweep: zero-vector harvest and span rank along the ellipse.
# ---------------------------------------------------------------------------

# Criterion 9: span ranks at the reduction map and the Choi map pair.
ANCHOR_RANKS = {2: 7, 6: 9, 10: 7}  # proper-family angle index k (alpha = 2 pi k / 12)


def build_rank_sweep(seed: int, size: str = "full") -> list[dict]:
    # The default config, as `sweep --what rank` uses it.  A batch runs until its
    # slowest of 200 restarts converges, so a per-seed RNG would change the work
    # itself; the seed orders the angles.
    cfg = SeeSawConfig()
    units = []
    for family, coeffs in (("proper", so2_coeffs), ("improper", improper_coeffs)):
        for k in range(12):
            units.append({"family": family, "k": k, "params": coeffs(2 * math.pi * k / 12), "cfg": cfg,
                          "rank": ANCHOR_RANKS.get(k) if family == "proper" else None})
    if size != "full":
        units = [u for u in units if (u["family"], u["k"]) in (("proper", 6), ("improper", 2))]
    return _shuffled(np.random.default_rng([seed, 3]), units)


def run_rank_sweep(unit, tr) -> dict:
    p, cfg = unit["params"], unit["cfg"]
    if unit["family"] == "proper":
        with tr.span("witnesses.witness_matrix"):
            W = witness_matrix(p).matrix
    else:
        with tr.span("witnesses.witness_tilde_matrix"):
            W = witness_tilde_matrix(p).matrix
    with tr.span("oracles.zero_product_vectors"):
        zeros = zero_product_vectors(W, cfg)
    tr.count("oracles.zero_product_vectors.kept", len(zeros))
    tr.count("oracles.zero_product_vectors.restarts", cfg.restarts)
    with tr.span("oracles.span_rank"):
        rank = span_rank(zeros)
    return {"W": W, "pairs": [(z.psi, z.phi) for z in zeros], "rank": rank}


def ref_rank_sweep(unit) -> dict:
    kind = "standard" if unit["family"] == "proper" else "tilde"
    return {"W": ref.witness(*(Fraction(x) for x in unit["params"].asfloats()), kind)}


RANK_CHECKS = {
    "witness": lambda u, o, r: ref.close(o["W"], r["W"], 1e-12),
    "harvest_zero": lambda u, o, r: len(o["pairs"]) > 0 and all(
        _unit_vectors(psi, phi) and abs(ref.product_expectation(r["W"], psi, phi)) <= 1e-9
        for psi, phi in o["pairs"]
    ),
    "span_rank": lambda u, o, r: u["rank"] is None or o["rank"] == u["rank"],
}


# ---------------------------------------------------------------------------
# cli_session: fresh `python -m qutritwit.cli` processes, a fixed mix.
# ---------------------------------------------------------------------------


def _results(text: str) -> dict:
    return ref.strict_json(text)["results"]


def _csv_grid(text: str) -> np.ndarray:
    return np.array([[complex(cell) for cell in line.split(",")] for line in text.strip().splitlines()])


def _parse_entries(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _W(a, b, c, kind="standard") -> np.ndarray:
    return ref.witness(Fraction(a), Fraction(b), Fraction(c), kind)


def _exact_witness_ok(abc, kind, restarts, seed):
    grid = ref.exact_witness(*abc, "circulant" if kind == "standard" else "improper")
    if kind == "u_conjugated":
        grid = ref.swap_first_levels(ref.exact_witness(*abc, "circulant"))
    W = np.array([[float(x) for x in row] for row in grid])

    def ok(text):
        r = _results(text)
        return (r["exact"] is True and ref.parse_fraction_grid(r["matrix"]) == grid
                and abs(r["trace"] - 1.0) <= 1e-12 and abs(r["min_eigenvalue"] - ref.min_eig(W)) <= 1e-10
                and r["block_positivity_estimate"] >= -BAND
                and r["seesaw"] == {"restarts": restarts, "seed": seed})
    return ok


def _detect_ok(text):
    r = _results(text)
    eps = np.linspace(0.1, 2.0, 20)
    W = _W(Fraction(2, 3), Fraction(1, 3), 1)
    want = [np.trace(ref.rho_eps(e) @ W).real for e in eps]
    return ref.close(r["eps"], eps, 1e-15) and ref.close(r["values"], want, 1e-12) and _interval_ok(
        r["detection_interval"], ref.detection_interval(Fraction(2, 3), Fraction(1, 3), Fraction(1)))


def _detect_csv_ok(text):
    lines = text.strip().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    W = _W(Fraction(2, 3), Fraction(1, 3), 1)
    want = [np.trace(ref.rho_eps(e) @ W).real for e in rows[:, 0]]
    return lines[0] == "eps,value" and len(rows) == 20 and ref.close(rows[:, 1], want, 1e-12)


def _spa_cli_ok(text):
    r = _results(text)
    W = _W(Fraction(1, 2), 1, Fraction(1, 2))
    state = _parse_entries(r["state"])
    pstar = ref.critical_weight(W)
    return (abs(r["p_star"] - pstar) <= 1e-12 and r["separable_certified"] is True
            and ref.close(state, (1 - pstar) * W + pstar / 9 * np.eye(9), 1e-12))


def _certify_tilde_ok(text):
    r = _results(text)
    P, Q = _parse_entries(r["P"]), _parse_entries(r["Q"])
    Wt = _W(Fraction(1, 2), 1, Fraction(1, 2), "tilde")
    return (ref.min_eig(P) >= -1e-9 and ref.min_eig(Q) >= -1e-9
            and ref.close(P + ref.partial_transpose_second(Q), 6 * Wt, 1e-9))


def _certify_indecomposable_ok(text):
    r = _results(text)
    lo, hi = ref.detection_interval(Fraction(1), Fraction(1), Fraction(0))
    want = np.trace(ref.rho_eps(r["eps"]) @ _W(1, 1, 0)).real
    return r["certificate"] == "ppt_state" and lo < r["eps"] < hi and r["value"] < 0 and abs(r["value"] - want) <= 1e-12


def _figure_ok(text):
    pts = _results(text)["ellipse"]
    return len(pts) == 72 and all(abs(b * c - (1 - (2 - b - c)) ** 2) <= 1e-12 for b, c in pts)


def _sweep_pstar_ok(text):
    rows = _results(text)["rows"]
    return len(rows) == 12 and all(
        abs(row["p_star"] - ref.critical_weight(_W(row["a"], row["b"], row["c"]))) <= 1e-9 for row in rows)


def _sweep_witness_ok(text):
    rows = _results(text)["rows"]
    return len(rows) == 6 and all(
        ref.close(_parse_entries(row["matrix"]), _W(row["a"], row["b"], row["c"], "tilde"), 1e-12) for row in rows)


def _classify_ok(a, b, c):
    want = ref.exact_class(Fraction(a), Fraction(b), Fraction(c))
    return lambda text: (_results(text)["positivity"], _results(text)["decomposability"]) == want


def build_cli_session(seed: int, size: str = "full") -> list[dict]:
    rng = np.random.default_rng([seed, 4])
    while True:
        rb, rc = (round(x, 4) for x in rng.uniform(0.0, 2.0, size=2))
        if rb + rc <= 2:
            break
    fb, fc = Fraction(str(rb)), Fraction(str(rc))
    half = Fraction(1, 2)
    specs = [
        # (argv, extra env, expected exit, value check of stdout, known seed defect)
        (["classify", "--bc", "1", "1"], {}, 0, _classify_ok(0, 1, 1), None),
        (["classify", "1", "1", "0"], {}, 0, _classify_ok(1, 1, 0), None),
        (["classify", "--bc", str(rb), str(rc)], {}, 0, _classify_ok(2 - fb - fc, fb, fc), None),
        (["witness", "1/2", "1", "1/2", "--restarts", "16", "--seed", str(seed)], {}, 0,
         _exact_witness_ok((half, Fraction(1), half), "standard", 16, seed), None),
        (["witness", "--kind", "u", "1", "1/2", "1/2", "--restarts", "16", "--seed", str(seed)], {}, 0,
         _exact_witness_ok((Fraction(1), half, half), "u_conjugated", 16, seed), None),
        (["witness", "1", "1", "0", "--seed", str(seed)], {}, 0,
         _exact_witness_ok((Fraction(1), Fraction(1), Fraction(0)), "standard", 200, seed), None),
        (["witness", "--kind", "tilde", "--bc", "1/2", "1/2", "--format", "csv"], {}, 0,
         lambda text: ref.close(_csv_grid(text), _W(1, half, half, "tilde"), 1e-15), None),
        (["detect", "--bc", "1/3", "1"], {}, 0, _detect_ok, None),
        (["detect", "--bc", "1/3", "1", "--format", "csv"], {}, 0, _detect_csv_ok, None),
        (["spa", "--bc", "1", "1/2"], {}, 0, _spa_cli_ok, None),
        (["certify", "--tilde", "--bc", "1", "1/2"], {}, 0, _certify_tilde_ok, None),
        (["certify", "--indecomposable", "1", "1", "0"], {}, 0, _certify_indecomposable_ok, None),
        (["figure", "--resolution", "72"], {}, 0, _figure_ok, None),
        (["sweep", "--alpha-grid", "12", "--what", "pstar"], {}, 0, _sweep_pstar_ok, None),
        (["sweep", "--alpha-grid", "6", "--what", "witness", "--improper"], {}, 0, _sweep_witness_ok, None),
        (["classify", "--alpha", "nan"], {}, 2, None, INPUT_DEFECT),
        (["classify", "1", "1", "1e400"], {}, 2, None, INPUT_DEFECT),
        (["witness", "--bc", "1", "1", "--restarts", "16"], {"QUTRITWIT_SEED": "abc"}, 2, None, INPUT_DEFECT),
        (["classify", "1", "1"], {}, 2, None, None),
        (["classify", "--bc", "1/2", "1/2"], {}, 0, _classify_ok(1, half, half), None),
    ]
    if size != "full":
        specs = [specs[0], specs[6], specs[15], specs[18]]
    units = [{"argv": a, "env": e, "expect": x, "values": v, "known": k} for a, e, x, v, k in specs]
    return _shuffled(rng, units)


def cli_env(extra: dict) -> dict:
    env = dict(os.environ)
    env.pop("QUTRITWIT_SEED", None)
    env.update(extra)
    return env


def run_cli_session(unit, tr) -> dict:
    with tr.span(f"cli.{unit['argv'][0]}.process"):
        proc = subprocess.run(
            [sys.executable, "-m", "qutritwit.cli", *unit["argv"]],
            cwd=ROOT, env=cli_env(unit["env"]), capture_output=True, text=True, timeout=120,
        )
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _stdout_ok(u, o, r) -> bool:
    if u["expect"] != 0:
        line = o["stderr"].strip()
        return o["stdout"] == "" and line != "" and "\n" not in line
    if "--format" in u["argv"]:
        return o["stdout"].strip() != ""
    record = ref.strict_json(o["stdout"])
    return record["schema_version"] == "1" and record["command"] == u["argv"][0]


CLI_CHECKS = {
    "exit_status": lambda u, o, r: o["code"] == u["expect"],
    "stdout": _stdout_ok,
    "values": lambda u, o, r: u["values"] is None or u["values"](o["stdout"]),
}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name, build, run, make_ref, checks, known, after=None, probe="kernel"):
        self.name, self.build, self.run, self.after = name, build, run, after
        self.probe = probe  # worker.HostSpeed probe matched to the workload's work
        self.make_ref, self.checks, self._known = make_ref, checks, known

    def reference(self, unit) -> dict:
        if "ref" not in unit:
            unit["ref"] = self.make_ref(unit)
        return unit["ref"]

    def check(self, unit, out) -> list[str]:
        """Names of the checks the outputs fail; a check that raises fails."""
        r = self.reference(unit)
        failed = []
        for name, ok in self.checks.items():
            try:
                passed = bool(ok(unit, out, r))
            except Exception:
                passed = False
            if not passed:
                failed.append(name)
        return failed

    def known(self, unit, out, failed) -> str | None:
        return self._known(unit, out, failed, self.reference(unit))


WORKLOADS = {
    "plane_scan": Workload("plane_scan", build_plane_scan, run_plane_scan, ref_plane_scan,
                           PLANE_CHECKS, _roundoff_known, after_plane_scan),
    "oracle_grid": Workload("oracle_grid", build_oracle_grid, run_oracle_grid, ref_oracle_grid,
                            ORACLE_CHECKS, _roundoff_known),
    "rank_sweep": Workload("rank_sweep", build_rank_sweep, run_rank_sweep, ref_rank_sweep,
                           RANK_CHECKS, lambda u, o, f, r: None),
    "cli_session": Workload("cli_session", build_cli_session, run_cli_session, lambda u: {},
                            CLI_CHECKS, lambda u, o, f, r: u["known"], probe="process"),
}
