#!/usr/bin/env python3
"""Regenerate ``reference.json``: the outputs of every pool item at this commit.

    python3 perfbench/make_reference.py

Run it only at the commit whose outputs define "correct" (the benchmark's
seed commit); a later change is checked against that commit, not against
itself.  The new reference must pass the checker's own floors and anchors,
or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

import checker
import harness
import workloads


def main() -> int:
    if not (harness.SRC / "entbound" / "cli.py").is_file():
        raise SystemExit(f"error: no entbound sources under {harness.SRC}")
    work = harness.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    workloads.write_inputs(workloads.ALL_INVOCATIONS, inputs)
    items = {}
    for op, inv in enumerate(workloads.ALL_INVOCATIONS):
        out = work / f"{op:02d}{inv.suffix}"
        child = harness.run_child([sys.executable, "-m", "entbound.cli",
                                   *inv.cli_argv(inputs, out)], work / f"{op:02d}.err")
        if child.code != 0:
            raise SystemExit(f"error: {inv.item} exited {child.code}; see {work / f'{op:02d}.err'}")
        if inv.kind == "measures":
            report = checker.read_report(out)
            items[inv.item] = {
                "kind": "measures",
                "results": [{k: rec[k] for k in ("measure", "value", "kind")}
                            for rec in report["results"]],
                "ordering_audit": "ordering_audit" in report,
            }
        else:
            items[inv.item] = {"kind": "rows", "rows": checker.read_rows(out)}
        print(f"{inv.item:40s} {child.wall_s:8.2f} s", flush=True)

    reference = {"environment": harness.environment(None), "items": items}
    problems = []
    for op, inv in enumerate(workloads.ALL_INVOCATIONS):
        _, fails = harness.check_output(inv, items[inv.item], work / f"{op:02d}{inv.suffix}")
        problems += [f"{inv.item}: {f}" for f in fails]
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        raise SystemExit("error: the outputs fail the checker; reference not written")
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
