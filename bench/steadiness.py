#!/usr/bin/env python3
"""Steadiness report: run the benchmark once per seed and report, for every
end-to-end metric, the median and the spread IQR/median across the runs
(quartiles from ``statistics.quantiles(values, n=4)``).

    python3 bench/steadiness.py --seeds 1-10 [--workloads plane_scan rank_sweep]

Runs are sequential.  Each spread is compared with a third of the metric's
bound in BENCHMARK.json.  The report is also written to
``.bench_run/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run([*spec["command"], "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        report[workload] = {"seeds": args.seeds, "correct": [r["correct"] for r in runs], "metrics": {}}
        print(f"{workload}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}/{len(runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, iqr = spread(values)
            steady = iqr < bound / 3
            report[workload]["metrics"][name] = {"values": values, "median": med, "iqr_over_median": iqr,
                                                 "bound": bound, "below_third_of_bound": steady}
            print(f"  {name:18s} median {med:<12.6g} IQR/median {iqr:.4f}  bound {bound}"
                  f"  {'ok' if steady else 'WIDE'}")
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    (ROOT / ".bench_run" / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
