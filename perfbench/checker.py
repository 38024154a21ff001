"""Output checker: every record of every invocation against the seed-commit
reference in ``reference.json``, plus bounds that hold whatever the code.

One operation is one output record: a measure record, the ordering-audit
block, or one sweep row.  A call that exits nonzero or leaves no readable
output fails every record its reference says it owed.

Tolerance: ``TOL_ABS + TOL_REL * |reference|``.  A rewrite that agrees with
the seed commit to six significant digits (for instance a batched SVD)
passes; a bound that moved by 1e-4 of its size in the wrong direction does
not.  Bounds that come out of an optimizer are one-sided against the
reference: an upper bound may fall and a lower bound may rise, but neither
may cross a floor or ceiling that holds whatever the code:

* every entanglement upper bound (ER, EN, EM) is at least the hashing bound
  max(S_A, S_B) - S_AB, and for a pure state EM is at least the exact
  2 log sum_k p_k^{1/4} of its Schmidt weights;
* the Bell value is at most sqrt 2;
* EN_upper <= EM_upper whenever both are reported;
* a gaussian Weyl-correlator lower bound is at most the row's upper bound.

Sweep upper bounds (gaussian ``upper_bound``, dirac ``value``, vacuum
``log_bound``) are closed-form evaluations with no floor the checker can
compute, so they must match the reference within tolerance in both
directions.  A deliberately tighter closed form means regenerating
``reference.json`` at the commit that introduces it (``make_reference.py``).

Known exact anchors: phi+ has EI = 2 log 2, E_R = log 2 and Bell value
sqrt 2, and ``ordering_audit.ok`` must be true.  "series diverges" rows are
correct output when the reference diverges at the same separation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL_REL = 1e-5
TOL_ABS = 1e-8
PHI_PLUS_ER_TOL = 1e-6
CHAIN_SLACK = 1e-8
DIVERGES = "series diverges"
SWEEP_KEYS = ("eps", "gap_sites", "mR")

AUDIT_KEYS = {"EI": "EI", "ER_upper": "ER", "EN_upper": "EN", "EM_upper": "EM", "EB": "EB"}


def tol(ref: float) -> float:
    return TOL_ABS + TOL_REL * abs(ref)


def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)))


def _marginals(m: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    t = m.reshape(da, db, da, db)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def state_facts(m: np.ndarray, da: int, db: int) -> dict:
    """Values the checker derives from the state itself, independently of entbound."""
    ra, rb = _marginals(m, da, db)
    s_a, s_b, s_ab = _entropy(ra), _entropy(rb), _entropy(m)
    facts = {"mutual_information": s_a + s_b - s_ab,
             "hashing": max(0.0, s_a - s_ab, s_b - s_ab),
             "pure": bool(np.linalg.eigvalsh(m).max() > 1.0 - 1e-10)}
    if facts["pure"]:
        p = np.clip(np.linalg.eigvalsh(ra), 0.0, None)
        facts["em_pure"] = float(2.0 * math.log(np.sum(p ** 0.25)))
    return facts


def _number(x) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        return float("nan")


def _check_record(rec: dict, ref: dict, facts: dict, phi_plus: bool, by_measure: dict) -> str:
    """Return '' when the record is correct, else the reason it is not."""
    name, r = ref["measure"], ref["value"]
    v = _number(rec.get("value"))
    if rec.get("kind") != ref["kind"]:
        return f"kind {rec.get('kind')!r} != {ref['kind']!r}"
    if not math.isfinite(v):
        return f"value {rec.get('value')!r} is not finite"
    kind = ref["kind"]
    if kind == "exact" and abs(v - r) > tol(r):
        return f"exact value {v!r} != reference {r!r}"
    if kind == "upper_bound":
        if v > r + tol(r):
            return f"upper bound {v!r} rose above reference {r!r}"
        floor = facts["hashing"]
        if name == "EM" and facts["pure"]:
            floor = max(floor, facts["em_pure"])
        if v < floor - tol(floor):
            return f"upper bound {v!r} below the valid floor {floor!r}"
    if kind == "lower_bound":
        if v < r - tol(r):
            return f"lower bound {v!r} fell below reference {r!r}"
        if name == "EB" and v > math.sqrt(2.0) + 1e-9:
            return f"Bell value {v!r} above sqrt 2"
    if name == "EI" and abs(v - facts["mutual_information"]) > tol(facts["mutual_information"]):
        return f"EI {v!r} != S_A + S_B - S_AB = {facts['mutual_information']!r}"
    if name == "EM" and "EN" in by_measure:
        en = _number(by_measure["EN"].get("value"))
        if not en <= v + CHAIN_SLACK:
            return f"EN_upper {en!r} > EM_upper {v!r}"
    if phi_plus:
        anchor = {"EI": (2.0 * math.log(2.0), 1e-9), "ER": (math.log(2.0), PHI_PLUS_ER_TOL),
                  "EB": (math.sqrt(2.0), 1e-9)}.get(name)
        if anchor and abs(v - anchor[0]) > anchor[1]:
            return f"phi+ anchor: {name} = {v!r}, expected {anchor[0]!r}"
    return ""


def _check_audit(audit, by_measure: dict) -> str:
    if not isinstance(audit, dict):
        return "ordering_audit block missing"
    if audit.get("ok") is not True:
        return "ordering_audit.ok is not true"
    if not audit.get("links") or not all(link.get("ok") is True for link in audit["links"]):
        return "an ordering_audit link is broken"
    values = audit.get("values", {})
    for key, measure in AUDIT_KEYS.items():
        if measure not in by_measure:
            continue
        a = _number(values.get(key))
        v = _number(by_measure[measure].get("value"))
        if not abs(a - v) <= tol(v):
            return f"ordering_audit {key} = {a!r} disagrees with the {measure} record {v!r}"
    return ""


def check_measures(report, ref: dict, facts: dict, phi_plus: bool = False) -> tuple[int, list[str]]:
    """Check one measures report; returns (operations attempted, failure reasons)."""
    owed = len(ref["results"]) + (1 if ref.get("ordering_audit") else 0)
    if not isinstance(report, dict) or not isinstance(report.get("results"), list):
        return owed, [f"no readable report ({owed} records owed)"] * owed
    by_measure = {rec.get("measure"): rec for rec in report["results"] if isinstance(rec, dict)}
    failures = []
    for ref_rec in ref["results"]:
        rec = by_measure.get(ref_rec["measure"])
        why = "record missing" if rec is None else _check_record(
            rec, ref_rec, facts, phi_plus, by_measure)
        if why:
            failures.append(f"{ref_rec['measure']}: {why}")
    if ref.get("ordering_audit"):
        why = _check_audit(report.get("ordering_audit"), by_measure)
        if why:
            failures.append(f"audit: {why}")
    return owed, failures


def _check_row(row: dict, ref: dict) -> str:
    num = {k: _number(v) for k, v in row.items()}
    rnum = {k: _number(v) for k, v in ref.items()}
    key = next(k for k in SWEEP_KEYS if k in ref)
    if num.get(key) != rnum[key]:
        return f"{key} {row.get(key)!r} != reference {ref[key]!r}"
    if "converged" in ref:
        if row.get("converged") != ref["converged"]:
            return f"converged {row.get('converged')!r} != reference {ref['converged']!r}"
        if ref["converged"] == "0":
            if DIVERGES not in row.get("error", "") or row.get("nu") or row.get("log_bound"):
                return "expected a 'series diverges' row"
        else:
            nu, lb = num.get("nu", math.nan), num.get("log_bound", math.nan)
            if row.get("error") or not (math.isfinite(nu) and math.isfinite(lb) and lb > 0):
                return f"converged row without a finite bound (nu={row.get('nu')!r})"
            if abs(math.log(nu) - lb) > 1e-12 + 1e-9 * lb:
                return f"log(nu) = {math.log(nu)!r} != log_bound {lb!r}"
        matched = ("asymptotic", "log_bound") if ref["converged"] == "1" else ("asymptotic",)
    else:
        if row.get("error"):
            return f"row error {row['error']!r}"
        matched = tuple(k for k in ("r", "log_ref", "value", "upper_bound") if k in ref)
    for k in matched:
        if not abs(num.get(k, math.nan) - rnum[k]) <= tol(rnum[k]):
            return f"{k} {row.get(k)!r} != reference {ref[k]!r}"
    if "lower_bound" in ref:
        v = num.get("lower_bound", math.nan)
        if not (math.isfinite(v) and v >= max(rnum["lower_bound"] - tol(rnum["lower_bound"]), 0.0)):
            return f"lower bound {row.get('lower_bound')!r} below reference {ref['lower_bound']!r}"
        if v > num["upper_bound"] + tol(num["upper_bound"]):
            return f"lower bound {v!r} above the row's upper bound {row['upper_bound']!r}"
    return ""


def check_rows(rows, ref: dict) -> tuple[int, list[str]]:
    """Check one sweep CSV (list of dict rows); returns (attempted, failure reasons)."""
    owed = len(ref["rows"])
    if rows is None:
        return owed, [f"no readable CSV ({owed} rows owed)"] * owed
    failures = []
    for i, ref_row in enumerate(ref["rows"]):
        why = "row missing" if i >= len(rows) else _check_row(rows[i], ref_row)
        if why:
            failures.append(f"row {i}: {why}")
    if len(rows) > owed:
        failures.append(f"{len(rows) - owed} unexpected extra rows")
    return owed, failures


def read_report(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def read_rows(path: Path):
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None
