#!/usr/bin/env python3
"""Write a BENCH file: every workload over several seeds, plus one traced run each.

    python3 perfbench/bench_file.py --out BENCH_x.json

It runs seeds 0-9 on every workload.  For each workload and end-to-end
metric it records the per-seed values, their median and quartiles
(``statistics.quantiles(n=4)``), and the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against.  The traced run (first seed)
adds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import workloads

BENCHMARK = harness.ROOT / "BENCHMARK.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=harness.ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = list(range(10))
    report = {"environment": harness.environment(None), "seeds": seeds,
              "run_seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {"attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][name] = {
                "unit": metric["unit"], "values": values, "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"],
            }
            print(f"{workload:9s} {name:12s} median {median:10.4f} {metric['unit']:3s} "
                  f"spread {(q3 - q1) / median:.4f} (bound {metric['bound']})", flush=True)
        traced = _run(workload, seeds[0], seconds, 1)
        summary["traced_seed"] = seeds[0]
        summary["layers"] = traced["metrics"]
        report["workloads"][workload] = summary
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
