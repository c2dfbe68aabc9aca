#!/usr/bin/env python3
"""qutritwit benchmark: one command, four seeded closed-loop workloads.

    python3 bench/run.py --workload plane_scan --seed 1 --seconds 20 --trace 0

Run from any directory of a source checkout; the package is imported from the
checkout's ``src``.  Prints a readable report, a provenance line, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROCESS_REF_S, process_probe_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
WORKLOADS = ("plane_scan", "oracle_grid", "rank_sweep", "cli_session")
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STARTUP_PROBES = {"startup.python_s": "pass", "startup.numpy_import_s": "import numpy",
                  "startup.qutritwit_import_s": "import qutritwit"}


class BenchError(RuntimeError):
    pass


def bench_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QUTRITWIT_SEED")}
    env.update({v: "1" for v in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict, timeout: float = WORKER_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out after {timeout} s")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def setup_sample(args, env) -> float:
    """Set-up time of one fresh worker."""
    t0 = time.monotonic()
    proc = run_child(worker_argv(args, "--setup-only"), env)
    if proc.returncode != 0:
        raise BenchError(f"setup failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1]) - t0


def setup_samples(args, env) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times of fresh workers.  Set-up is process start-up,
    so each is paired with the process probes right before and after it."""
    probes, times = [process_probe_s(env)], []
    for _ in range(SETUP_SAMPLES):
        times.append(setup_sample(args, env))
        probes.append(process_probe_s(env))
    return [(t, t * PROCESS_REF_S / statistics.mean(probes[i:i + 2])) for i, t in enumerate(times)]


def startup_probes(env) -> dict:
    out = {}
    for name, code in STARTUP_PROBES.items():
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            proc = run_child([sys.executable, "-c", code], env, timeout=60)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"{code!r} failed: {proc.stderr.strip()[-500:]}")
        out[name] = {"value": statistics.median(times), "unit": "s"}
    return out


def percentile(xs: list[float], p: float) -> float:
    """Linear-interpolated percentile of xs (0 <= p <= 100)."""
    s = sorted(xs)
    k = (len(s) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_index(n: int) -> int:
    """Sorted index of the largest sample with at least 10 samples beyond it."""
    return max(n - 11, (n - 1) // 2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qutritwit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(window: dict, setup: list[tuple[float, float]], peak_rss_mb: float) -> tuple[dict, dict]:
    lat = window["ok_latencies_s"]
    n = len(lat)
    if n == 0:
        raise BenchError("no unit passed its checks; latency is undefined")
    k = tail_index(n)
    tail_p = 100 * k / (n - 1) if n > 1 else 50
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "throughput_per_s": (n / window["busy_s"], "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (sorted(lat)[k] * 1e3, "ms"),
        "success_rate": (1 - window["failed"] / window["attempted"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = window["raw_ok_latencies_s"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh workers, each scaled by its process probes; "
                   f"raw wall {statistics.median(s for s, _ in setup):.6g}",
        "throughput_per_s": f"{n} correct units / {window['busy_s']:.3f} s busy; raw wall "
                            f"{n / window['raw_busy_s']:.6g}",
        "latency_p50_ms": f"n={n} units over {window['passes']} passes; raw wall "
                          f"{percentile(raw, 50) * 1e3:.6g}",
        "latency_tail_ms": f"p{tail_p:.1f}, {n - 1 - k} samples beyond, n={n}; raw wall {sorted(raw)[k] * 1e3:.6g}",
        "success_rate": "1 - error_rate",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def report(args, window: dict, metrics: dict, notes: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"passes {window['passes']} x {window['units_per_pass']} units")
    print(f"  host speed: {window['probe']} probe median {window['probe_median_s'] * 1e3:.3f} ms against "
          f"{window['probe_ref_s'] * 1e3:g} ms uncontended; times are scaled to the uncontended host "
          "(README, 'Host speed')")
    err = window["failed"] / window["attempted"]
    known = sum(window["known"].values())
    print(f"  {'error_rate':34s} {err:.6f}  ({window['failed']} failed / {window['attempted']} attempted; "
          f"{known} known seed defects, {window['n_unexpected']} unexpected)")
    for reason, count in window["known"].items():
        print(f"      known: {count} x {reason}")
    for item in window["unexpected"]:
        print(f"      UNEXPECTED: unit {item['unit']} failed {item['failed']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}  {notes.get(name, '')}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qutritwit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qutritwit'}; run from a qutritwit checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = bench_env()
    load_start = os.getloadavg()
    try:
        setup_sample(args, env)  # warm-up: byte-compile and fill the page cache
        setup = setup_samples(args, env)
        out_path = WORK / f"worker-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        proc = run_child(worker_argv(args, "--out", str(out_path)), env)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(out_path.read_text())
        startup = startup_probes(env) if args.trace else {}
        metrics, notes = end_to_end(result["untraced"], setup, result["peak_rss_mb"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    window = result["traced"] if args.trace else result["untraced"]
    report(args, result["untraced"], metrics, notes)
    if args.trace:
        metrics = {**result["layers"], **startup}
        print(f"per-layer (traced run, spans in {result['spans']}):")
        for name in sorted(metrics):
            print(f"  {name:44s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    provenance = {
        "git_commit": git_commit(), "src_sha256": source_digest(), "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "loadavg_start": [round(x, 2) for x in load_start], "blas_threads": 1,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    unexpected = window["n_unexpected"] + (result["untraced"]["n_unexpected"] if args.trace else 0)
    final = {"correct": unexpected == 0, "attempted": window["attempted"],
             "failed": window["failed"], "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**final, "provenance": provenance}, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
