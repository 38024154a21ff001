"""Per-layer metrics from the span summaries that ``tracer.py`` writes.

Each metric below names the layer it measures; README.md maps it to the
end-to-end metric and workload it should move.  Times are seconds over one
pass (outermost spans only, so recursion is not double counted); ``self_s``
is span time minus the time of its direct child spans.
"""

from __future__ import annotations

# (metric, unit, better)
LAYER_METRICS = (
    ("numpy.eigh.calls", "count", "lower"),
    ("numpy.eigh.s", "s", "lower"),
    ("numpy.svd.calls", "count", "lower"),
    ("numpy.svd.s", "s", "lower"),
    ("numpy.svd.gflop_est", "GFLOP-computed", "lower"),
    ("numpy.pinv.calls", "count", "lower"),
    ("numpy.pinv.s", "s", "lower"),
    ("linalg.leggauss.calls", "count", "lower"),
    ("linalg.leggauss.s", "s", "lower"),
    ("linalg.leggauss.unique_frac", "ratio", "higher"),
    ("measures.er.calls", "count", "lower"),
    ("measures.er.s", "s", "lower"),
    ("measures.er.iters", "count", "lower"),
    ("measures.er.s_per_iter", "s", "lower"),
    ("measures.em.s", "s", "lower"),
    ("measures.en.s", "s", "lower"),
    ("measures.eb.s", "s", "lower"),
    ("measures.eb.iters", "count", "lower"),
    ("measures.ei.s", "s", "lower"),
    ("measures.audit.s", "s", "lower"),
    ("measures.unique_eval_frac", "ratio", "higher"),
    ("modular.relative_entropy.calls", "count", "lower"),
    ("modular.relative_entropy.s", "s", "lower"),
    ("integrable.t_kernel_trace_norm.calls", "count", "lower"),
    ("integrable.t_kernel_trace_norm.s", "s", "lower"),
    ("integrable.t_kernel_trace_norm.self_s", "s", "lower"),
    ("integrable.dirac_halfline_bound.s", "s", "lower"),
    ("integrable.strip_sup_norm.calls", "count", "lower"),
    ("integrable.strip_sup_norm.s", "s", "lower"),
    ("integrable.strip_sup_norm.unique_frac", "ratio", "higher"),
    ("integrable.vacuum_bound.calls", "count", "lower"),
    ("integrable.vacuum_bound.s", "s", "lower"),
    ("integrable.vacuum_bound.terms", "count", "lower"),
    ("gaussian.build_state.s", "s", "lower"),
    ("gaussian.region_projectors.calls", "count", "lower"),
    ("gaussian.region_projectors.s", "s", "lower"),
    ("gaussian.region_projectors.unique_frac", "ratio", "higher"),
    ("gaussian.kg_upper_bound.s", "s", "lower"),
    ("gaussian.correlator_lower_bound.s", "s", "lower"),
    ("bounds.gap_table.build_s", "s", "lower"),
    ("bounds.gap_s.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.load_state.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# spans that must record calls on a workload, or the trace is broken
REQUIRED = {
    "audit": ("cli.main", "cli.emit", "cli.load_state", "measures.er", "measures.audit",
              "modular.relative_entropy", "numpy.eigh"),
    "nuclear": ("cli.main", "cli.emit", "cli.load_state", "measures.em", "numpy.pinv",
                "numpy.eigh"),
    "corridor": ("cli.main", "cli.emit", "integrable.dirac_halfline_bound",
                 "integrable.t_kernel_trace_norm", "linalg.leggauss", "numpy.svd"),
    "lattice": ("cli.main", "cli.emit", "gaussian.build_state", "gaussian.region_projectors",
                "integrable.vacuum_bound", "integrable.strip_sup_norm",
                "bounds.gap_table.build", "bounds.gap_s", "numpy.svd"),
}

MEASURE_SPANS = ("measures.ei", "measures.er", "measures.en", "measures.em", "measures.eb")


def merge(summaries) -> dict:
    """Sum per-invocation summaries into one per-pass summary."""
    out: dict = {}
    for summary in summaries:
        for name, agg in summary.items():
            tot = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": []})
            tot["calls"] += agg["calls"]
            tot["s"] += agg["s"]
            tot["self_s"] += agg["self_s"]
            tot["info"].extend(agg["info"])
    return out


def check_required(workload: str, merged: dict) -> None:
    silent = [n for n in REQUIRED[workload] if merged.get(n, {}).get("calls", 0) == 0]
    if silent:
        raise RuntimeError(f"trace wrappers recorded no calls on {workload}: {', '.join(silent)}")


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> dict:
    """Metric name -> value for every layer metric except the trace.* ones."""
    def get(name, field="s"):
        return merged.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    def info(name):
        return merged.get(name, {}).get("info", [])

    def unique_frac(name):
        keys = [repr(k) for k in info(name)]
        return _frac(len(set(keys)), len(keys))

    m = {}
    for span, fields in (("numpy.eigh", ("calls", "s")), ("numpy.svd", ("calls", "s")),
                         ("numpy.pinv", ("calls", "s")), ("linalg.leggauss", ("calls", "s")),
                         ("measures.er", ("calls", "s")), ("measures.em", ("s",)),
                         ("measures.en", ("s",)), ("measures.eb", ("s",)), ("measures.ei", ("s",)),
                         ("measures.audit", ("s",)), ("modular.relative_entropy", ("calls", "s")),
                         ("integrable.t_kernel_trace_norm", ("calls", "s", "self_s")),
                         ("integrable.dirac_halfline_bound", ("s",)),
                         ("integrable.strip_sup_norm", ("calls", "s")),
                         ("integrable.vacuum_bound", ("calls", "s")),
                         ("gaussian.build_state", ("s",)),
                         ("gaussian.region_projectors", ("calls", "s")),
                         ("gaussian.kg_upper_bound", ("s",)),
                         ("gaussian.correlator_lower_bound", ("s",)),
                         ("bounds.gap_s", ("calls",)), ("cli.main", ("self_s",)),
                         ("cli.emit", ("s",)), ("cli.load_state", ("s",))):
        for field in fields:
            m[f"{span}.{field}"] = get(span, field)
    m["numpy.svd.gflop_est"] = float(sum(info("numpy.svd")))
    m["linalg.leggauss.unique_frac"] = unique_frac("linalg.leggauss")
    er_iters = sum(it for _, it in info("measures.er"))
    m["measures.er.iters"] = er_iters
    m["measures.er.s_per_iter"] = _frac(get("measures.er"), er_iters)
    m["measures.eb.iters"] = sum(it for _, it in info("measures.eb"))
    evals = [k if isinstance(k, str) else k[0] for n in MEASURE_SPANS for k in info(n)]
    m["measures.unique_eval_frac"] = _frac(len(set(evals)), len(evals))
    m["integrable.strip_sup_norm.unique_frac"] = unique_frac("integrable.strip_sup_norm")
    m["integrable.vacuum_bound.terms"] = sum(info("integrable.vacuum_bound"))
    m["gaussian.region_projectors.unique_frac"] = unique_frac("gaussian.region_projectors")
    m["bounds.gap_table.build_s"] = get("bounds.gap_table.build")
    return m
