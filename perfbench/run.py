#!/usr/bin/env python3
"""entbound benchmark: timed `python -m entbound.cli` passes with checked outputs.

    python3 perfbench/run.py --workload audit --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28     # every workload, one table

Run from the repository root.  ``--trace 0`` times passes of fresh CLI
processes and reports the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced one (``tracer.py``) and reports the per-layer
metrics plus the tracing overhead.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a results file
with the environment record and per-pass numbers goes to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import harness
import layers
import workloads
from statistics import median

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = harness.WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))
    invocations = workloads.pass_invocations(workload, seed)
    runner = harness.PassRunner(invocations, reference, work_dir)
    runner.setup_probe()  # untimed: compiles bytecode, as an installed package has it

    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        started = time.perf_counter()
        plain.append(runner.run(traced=False))
        if trace:
            traced.append(runner.run(traced=True))
            layers.check_required(workload, layers.merge(traced[-1].summaries))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break

    setup = [p.setup_s for p in plain]
    if not trace:
        setup += [runner.setup_probe() for _ in range(harness.MIN_SETUP_PROBES - len(setup))]
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if trace:
        per_pass = [layers.layer_metrics(layers.merge(p.summaries)) for p in traced]
        metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (median(p.wall_s for p in traced)
                                       - median(p.wall_s for p in plain))
        units = layers.UNITS
    else:
        metrics = {
            "wall_s": median(p.wall_s for p in plain),
            "cpu_s": median(p.cpu_s for p in plain),
            "setup_s": median(setup),
            "peak_rss_mb": median(p.peak_rss_mb for p in plain),
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": harness.environment(seed),
        "invocations": [inv.cli_argv(runner.inputs, runner.work_dir / "out") for inv in invocations],
        "setup_s": setup,
        "passes": [{"traced": p.summaries != [], "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "peak_rss_mb": p.peak_rss_mb, "attempted": p.attempted,
                    "failed": len(p.failures)} for p in passes],
        "failures": failures[:50],
        "result": result,
    }
    results_dir = harness.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    for f in failures[:10]:
        sys.stderr.write(f"FAILED {f}\n")
    return result


def print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:9s} {name:42s} {m['value']:14.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:9s} {'error_rate':42s} {rate:14.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.require_checkout()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
