"""Tests for the benchmark's own code: checker, input generation, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))["items"]


def _report(item: str) -> dict:
    """A measures report exactly as the seed commit wrote it (values from the reference)."""
    ref = REFERENCE[item]
    results = copy.deepcopy(ref["results"])
    report = {"results": results}
    if ref["ordering_audit"]:
        v = {r["measure"]: r["value"] for r in results}
        report["ordering_audit"] = {
            "ok": True, "links": [{"ok": True}, {"ok": True}],
            "values": {k: v[m] for k, m in checker.AUDIT_KEYS.items()},
        }
    return report


def _check(item: str, report) -> list[str]:
    inv = workloads.invocation(item)
    facts = checker.state_facts(*workloads.state_matrix(inv.state))
    return checker.check_measures(report, REFERENCE[item], facts,
                                  phi_plus=inv.state == "phi_plus")[1]


def _set(report: dict, measure: str, value: float) -> dict:
    for rec in report["results"]:
        if rec["measure"] == measure:
            rec["value"] = value
    return report


AUDIT_ITEM = "measures:audit-3x3-0:all"
PHI_ITEM = "measures:phi_plus:all"


def _ref_value(item, measure):
    return next(r["value"] for r in REFERENCE[item]["results"] if r["measure"] == measure)


class TestChecker:
    def test_seed_commit_outputs_pass(self):
        for item in (AUDIT_ITEM, PHI_ITEM, "measures:pure-4x4-0:EI,EN,EM,EB"):
            assert _check(item, _report(item)) == []

    @pytest.mark.parametrize("measure,factor", [
        ("EM", 1 + 1e-4),      # upper bound rose
        ("EN", 1 + 1e-4),
        ("EI", 1 + 1e-4),      # exact value moved
        ("EB", 1 - 1e-4),      # lower bound fell
    ])
    def test_rejects_tampered_value(self, measure, factor):
        report = _set(_report(AUDIT_ITEM), measure, _ref_value(AUDIT_ITEM, measure) * factor)
        assert _check(AUDIT_ITEM, report)

    def test_rejects_upper_bound_below_hashing_floor(self):
        item = "measures:pure-4x4-0:EI,EN,EM,EB"
        assert _check(item, _set(_report(item), "EN", 0.0))

    def test_rejects_broken_phi_plus_anchor_and_audit(self):
        assert _check(PHI_ITEM, _set(_report(PHI_ITEM), "ER", math.log(2.0) - 1e-3))
        report = _report(PHI_ITEM)
        report["ordering_audit"]["ok"] = False
        assert _check(PHI_ITEM, report)

    def test_missing_report_fails_every_owed_record(self):
        attempted, failures = checker.check_measures(None, REFERENCE[AUDIT_ITEM], {}, False)
        assert attempted == len(failures) == 6

    @pytest.mark.parametrize("measure,factor", [
        ("EM", 1 + 5e-7),      # agrees with the seed commit to six digits
        ("EI", 1 - 5e-7),
        ("EN", 0.9),           # tighter upper bound, still above the floor
        ("EB", 1 + 1e-3),      # higher lower bound, still below sqrt 2
    ])
    def test_accepts_valid_rewrite_within_tolerance(self, measure, factor):
        report = _set(_report(AUDIT_ITEM), measure, _ref_value(AUDIT_ITEM, measure) * factor)
        audit = report["ordering_audit"]["values"]
        for key, m in checker.AUDIT_KEYS.items():
            if m == measure:
                audit[key] = _ref_value(AUDIT_ITEM, measure) * factor
        assert _check(AUDIT_ITEM, report) == []

    def test_rows(self):
        ref = REFERENCE["corridor"]
        owed = len(ref["rows"])
        rows = copy.deepcopy(ref["rows"])
        assert checker.check_rows(rows, ref) == (owed, [])
        rows[-1]["value"] = repr(float(rows[-1]["value"]) * (1 - 3e-7))
        assert checker.check_rows(rows, ref)[1] == []
        rows[0]["value"] = repr(float(rows[0]["value"]) * (1 + 1e-4))
        assert len(checker.check_rows(rows, ref)[1]) == 1
        assert checker.check_rows(None, ref) == (owed, [f"no readable CSV ({owed} rows owed)"] * owed)

    @pytest.mark.parametrize("item,key", [
        ("corridor", "value"),
        (workloads.GAUSSIAN_POOL[0], "upper_bound"),
    ])
    def test_rejects_halved_closed_form_upper_bound(self, item, key):
        ref = REFERENCE[item]
        rows = copy.deepcopy(ref["rows"])
        rows[0][key] = repr(float(rows[0][key]) * 0.5)
        assert len(checker.check_rows(rows, ref)[1]) == 1

    def test_rejects_halved_vacuum_log_bound(self):
        ref = REFERENCE["sinh-gordon"]
        rows = copy.deepcopy(ref["rows"])
        i = next(i for i, r in enumerate(rows) if r["converged"] == "1")
        lb = 0.5 * float(rows[i]["log_bound"])
        rows[i].update(log_bound=repr(lb), nu=repr(math.exp(lb)))
        assert len(checker.check_rows(rows, ref)[1]) == 1

    def test_gaussian_lower_bound_may_rise_up_to_the_upper_bound(self):
        ref = REFERENCE[workloads.GAUSSIAN_POOL[0]]
        rows = copy.deepcopy(ref["rows"])
        rows[0]["lower_bound"] = repr(float(rows[0]["lower_bound"]) * 1.01)
        assert checker.check_rows(rows, ref)[1] == []
        rows[1]["lower_bound"] = repr(float(rows[1]["lower_bound"]) * 0.99)
        rows[2]["lower_bound"] = repr(float(rows[2]["upper_bound"]) * 1.01)
        assert len(checker.check_rows(rows, ref)[1]) == 2

    def test_diverges_rows_are_correct_and_nan_bounds_are_not(self):
        ref = REFERENCE["custom-3pole"]
        rows = copy.deepcopy(ref["rows"])
        assert any(r["converged"] == "0" for r in rows)
        assert checker.check_rows(rows, ref)[1] == []
        first = next(i for i, r in enumerate(rows) if r["converged"] == "1")
        # the shape vacuum_bound produces when c**n overflows: converged, nu = nan
        rows[first].update(nu="nan", log_bound="nan")
        assert len(checker.check_rows(rows, ref)[1]) == 1


class TestInputs:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload, tmp_path):
        first = workloads.pass_invocations(workload, 7)
        assert first == workloads.pass_invocations(workload, 7)
        workloads.write_inputs(first, tmp_path / "a")
        workloads.write_inputs(first, tmp_path / "b")
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_seed_changes_seeded_workloads(self):
        for workload in ("nuclear", "lattice"):
            picks = {tuple(i.item for i in workloads.pass_invocations(workload, s))
                     for s in range(8)}
            assert len(picks) > 1

    def test_every_pool_item_has_a_reference(self):
        assert {inv.item for inv in workloads.ALL_INVOCATIONS} == set(REFERENCE)

    def test_random_states_are_full_rank(self):
        import numpy as np

        for item in workloads.AUDIT_STATES[1:] + workloads.NUCLEAR_POOL:
            m, _, _ = workloads.state_matrix(item)
            assert np.linalg.eigvalsh(m).min() > 1e-6


class TestTracer:
    def test_self_and_outermost_time(self):
        t = tracer.Tracer(op=0)
        t.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                   ["a", 5.0, 7.0, 0, None], ["b", 2.0, 3.0, 1, None]]
        s = t.summary()
        assert s["a"]["calls"] == 2 and s["a"]["s"] == 10.0 and s["a"]["self_s"] == 7.0
        assert s["b"]["s"] == 3.0 and s["b"]["self_s"] == 3.0

    def test_required_wrapper_without_calls_fails_loudly(self):
        with pytest.raises(RuntimeError, match="measures.er"):
            layers.check_required("audit", {"cli.main": {"calls": 1}})

    def test_call_counts_repeat_across_traced_runs(self, tmp_path):
        workloads.write_state("phi_plus", tmp_path)
        argvs = [["measures", "--state", str(tmp_path / "phi_plus.json"),
                  "--measures", "EI,EN,EM,EB", "--out", str(tmp_path / "m.json")],
                 ["dirac", "--m", "1", "--eps", "0.2", "--out", str(tmp_path / "d.csv")]]
        counts = []
        for run in range(2):
            summaries = []
            for op, argv in enumerate(argvs):
                summary = tmp_path / f"{run}-{op}.summary.json"
                child = harness.run_child(
                    [sys.executable, str(harness.HERE / "tracer.py"),
                     str(tmp_path / f"{run}-{op}.spans.jsonl"), str(summary), str(op), "--", *argv],
                    tmp_path / f"{run}-{op}.err")
                assert child.code == 0
                summaries.append(json.loads(summary.read_text()))
            merged = layers.merge(summaries)
            counts.append({name: agg["calls"] for name, agg in merged.items()})
            metrics = layers.layer_metrics(merged)
            assert metrics["numpy.svd.calls"] > 0
            assert metrics["integrable.t_kernel_trace_norm.calls"] == 1
        assert counts[0] == counts[1]
