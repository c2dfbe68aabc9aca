"""One benchmark process: import the package, build a workload's inputs, run it.

Started by ``run.py`` in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src`` and BLAS threads pinned to 1.  Writes its result as JSON to
``--out``.  With ``--setup-only`` it prints the monotonic time at which the
first timed call would start, and exits.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
PROBE_EVERY_S = 0.25
# Uncontended probe times on the reference host (2-vCPU VM, Python 3.11.7,
# numpy 2.4.6; README, "Host speed").
KERNEL_REF_S = 1.80e-3
PROCESS_REF_S = 0.100


def process_probe_s(env: dict | None = None) -> float:
    """Wall time of a fresh interpreter running ``import numpy``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host ran, from a fixed probe timed between units.

    On a shared host the probe's time tracks the slowdown of the workload's own
    work, so a latency times reference time / probe time reads as on the
    uncontended reference host.  A latency measured at t is scaled by the
    median of the probes nearest to t, and a unit's value is the median over
    its passes.  Two probes, matched to the work:

    - "kernel", for the library workloads: batched 3x3 ``eigh`` and
      ``Fraction`` sums in-process, best of 3, every PROBE_EVERY_S.  The median
      of the 5 probes nearest to t follows slow phases (seconds long) without
      adding the probe's own jitter.
    - "process", for the CLI workload, whose time is process start-up: a fresh
      interpreter running ``import numpy``, before every unit.  Start-up speed
      changes from one process to the next, so each invocation is paired with
      the probes right before and right after it.

    Neither probe touches qutritwit, so a change to the package moves the
    scaled and the raw figures alike.
    """

    def __init__(self, kind: str):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((2, 32, 3, 3))
        h = a[0] + 1j * a[1]
        self._h = h + h.conj().transpose(0, 2, 1)
        self._eigh = np.linalg.eigh
        self.kind = kind
        kernel = kind == "kernel"
        self.ref = KERNEL_REF_S if kernel else PROCESS_REF_S
        self.every_s = PROBE_EVERY_S if kernel else 0.0
        self.before, self.after = (3, 2) if kernel else (1, 1)  # probes nearest to a unit
        self.times, self.probes = [], []

    def _kernel(self) -> float:
        from fractions import Fraction

        t0 = time.perf_counter()
        for _ in range(20):
            self._eigh(self._h)
        s = Fraction(0)
        for i in range(1, 300):
            s += Fraction(1, i)
        return time.perf_counter() - t0

    def update(self) -> None:
        """Probe if `every_s` has passed since the last probe."""
        now = time.monotonic()
        if not self.times or now >= self.times[-1] + self.every_s:
            kernel = self.kind == "kernel"
            self.probes.append(min(self._kernel() for _ in range(3)) if kernel else process_probe_s())
            self.times.append(now)

    def unit_values(self, samples: list[list[tuple[float, float]]]) -> tuple[list[float], list[float]]:
        """(scaled, raw) value of each unit from its (start, seconds) samples."""
        def factor_at(t):
            i = bisect.bisect(self.times, t)
            return self.ref / statistics.median(self.probes[max(0, i - self.before):i + self.after])

        raw = [statistics.median(dt for _, dt in xs) for xs in samples]
        return [statistics.median(dt * factor_at(t) for t, dt in xs) for xs in samples], raw


def run_window(wk, units, seconds: float, tr, min_passes: int = MIN_PASSES) -> dict:
    """Closed loop, one client: whole passes over the units until `seconds` have
    passed, and at least `min_passes`.  A unit's latency covers its library calls
    only (reference checks run after the clock stops).  The work of a unit is
    the same in every pass; HostSpeed turns its samples into one value scaled to
    the reference host speed."""
    speed = HostSpeed(wk.probe)
    samples = [[] for _ in units]  # (start, seconds), one per pass
    attempted, failed, known, unexpected, failing, wrong = 0, 0, {}, [], set(), set()
    deadline = time.monotonic() + seconds
    passes = 0
    while passes < min_passes or time.monotonic() < deadline:
        for idx, unit in enumerate(units):
            speed.update()
            tr.rid = f"{wk.name}:{passes}:{idx}"
            start, t0 = time.monotonic(), time.perf_counter()
            try:
                with tr.span(f"unit.{wk.name}"):
                    out = wk.run(unit, tr)
            except Exception as exc:  # a library error fails the unit, it does not stop the run
                out, bad = None, [f"raised {type(exc).__name__}: {exc}"]
            samples[idx].append((start, time.perf_counter() - t0))
            if out is not None:
                if wk.after is not None:
                    wk.after(unit, out, tr)
                bad = wk.check(unit, out)
            attempted += 1
            if not bad:
                continue
            failed += 1
            failing.add(idx)
            if "classify" in bad:
                wrong.add(idx)
            reason = wk.known(unit, out, bad) if out is not None else None
            if reason is None:
                unexpected.append({"unit": idx, "failed": bad})
            else:
                known[reason] = known.get(reason, 0) + 1
        passes += 1
    speed.update()  # a probe after the last unit, so the window's end is covered
    value, raw = speed.unit_values(samples)
    return {
        "passes": passes, "units_per_pass": len(units), "attempted": attempted, "failed": failed,
        "known": known, "unexpected": unexpected[:20], "n_unexpected": len(unexpected),
        "classify_wrong": len(wrong),
        "busy_s": sum(value), "ok_latencies_s": [x for i, x in enumerate(value) if i not in failing],
        "raw_busy_s": sum(raw), "raw_ok_latencies_s": [x for i, x in enumerate(raw) if i not in failing],
        "probe": speed.kind, "probe_median_s": statistics.median(speed.probes), "probe_ref_s": speed.ref,
    }


def _throughput(window: dict) -> float:
    return len(window["ok_latencies_s"]) / window["busy_s"]


def census(tr, seed: int, workdir: Path) -> dict:
    """Touch every layer once, so each traced run reports every per-layer metric:
    tiny inputs of the library workloads, the valid CLI mix in-process, and the
    harvest cost (zero_product_vectors minus min_product_expectation)."""
    import numpy as np
    from qutritwit import cli, so2_coeffs, witness_matrix, min_product_expectation, zero_product_vectors
    import workloads

    for name in ("plane_scan", "oracle_grid", "rank_sweep"):
        wk = workloads.WORKLOADS[name]
        for idx, unit in enumerate(wk.build(seed, "tiny")):
            tr.rid = f"census.{name}:{idx}"
            with tr.span(f"unit.{name}"):
                out = wk.run(unit, tr)
            if wk.after is not None:
                wk.after(unit, out, tr)

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out_path = str(Path(tmp) / "out")
        for idx, unit in enumerate(workloads.build_cli_session(seed)):
            if unit["expect"] != 0:
                continue
            tr.rid = f"census.cli:{idx}"
            with tr.span(f"cli.{unit['argv'][0]}"):
                cli.main(unit["argv"] + ["--output", out_path])

    W = witness_matrix(so2_coeffs(np.pi)).matrix
    cfg = workloads.SeeSawConfig(rng_seed=seed)
    derived = []
    for _ in range(3):
        t0 = time.perf_counter()
        zero_product_vectors(W, cfg)
        t1 = time.perf_counter()
        min_product_expectation(W, cfg)
        derived.append((t1 - t0) - (time.perf_counter() - t1))
    return {"harvest_derived_ms": statistics.median(derived) * 1e3}


SELF_US = [
    "linalg.hermitian_eigen", "linalg.eigvalsh_ref", "oracles.is_cp_choi", "maps.phi_map", "maps.classify",
    "witnesses.witness_matrix", "witnesses.witness_tilde_matrix", "witnesses.witness_u",
    "witnesses.exact_witness_entries", "witnesses.decompose_tilde", "states.detects_rho_family",
    "oracles.indecomposability_certificate", "spa.spa_state", "spa.critical_p_from_witness", "oracles.span_rank",
]
SELF_MS = ["oracles.min_product_expectation", "oracles.zero_product_vectors"] + [
    f"cli.{sub}" for sub in ("classify", "witness", "detect", "spa", "certify", "figure", "sweep")
]


def layer_metrics(tr, traced: dict, untraced: dict, extra: dict) -> dict:
    from spans import median_self

    selfs = tr.self_times_ns()
    m = {f"{s}.self_us": (median_self(selfs, s, 1e3), "us") for s in SELF_US}
    m.update({f"{s}.self_ms": (median_self(selfs, s, 1e6), "ms") for s in SELF_MS})
    kept = tr.counts["oracles.zero_product_vectors.kept"]
    restarts = tr.counts["oracles.zero_product_vectors.restarts"]
    m.update({
        "oracles.min_product_expectation.calls": (len(selfs.get("oracles.min_product_expectation", [])), "count"),
        "oracles.min_product_expectation.restarts": (tr.counts["oracles.min_product_expectation.restarts"], "count"),
        "oracles.min_product_expectation.in_band": (tr.counts["oracles.min_product_expectation.in_band"], "count"),
        "oracles.zero_product_vectors.kept": (kept, "count"),
        "oracles.zero_product_vectors.yield": (kept / restarts if restarts else 0.0, "ratio"),
        "oracles.harvest.derived_ms": (extra["harvest_derived_ms"], "ms"),
        "maps.classify.wrong": (traced["classify_wrong"], "count"),
        "trace.overhead_pct": ((_throughput(untraced) / _throughput(traced) - 1) * 100, "%"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import qutritwit

    src = (ROOT / "src").resolve()
    if src not in Path(qutritwit.__file__).resolve().parents:
        print(f"error: qutritwit imported from {qutritwit.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads
    from spans import NullTracer, Tracer

    wk = workloads.WORKLOADS[args.workload]
    units = wk.build(args.seed)
    setup_stamp = time.monotonic()
    if args.setup_only:
        print(repr(setup_stamp))
        return 0

    if not args.trace:
        untraced = run_window(wk, units, args.seconds, NullTracer())
    else:  # half the time untraced, as the baseline of trace.overhead_pct
        untraced = run_window(wk, units, args.seconds / 2, NullTracer(), min_passes=1)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    result = {"setup_stamp": setup_stamp, "numpy": numpy.__version__, "untraced": untraced,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if args.trace:
        workdir = ROOT / ".bench_run"
        tr = Tracer()
        traced = run_window(wk, units, args.seconds / 2, tr, min_passes=1)
        extra = census(tr, args.seed, workdir)
        spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.dump(spans_path)
        result.update(traced=traced, layers=layer_metrics(tr, traced, untraced, extra), spans=str(spans_path))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
