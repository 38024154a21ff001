"""Traced CLI call: wrap entbound's layer functions and the numpy primitives
they use, run one argv through ``entbound.cli.main``, write the spans.

    python perfbench/tracer.py SPANS.jsonl SUMMARY.json OP_ID -- <entbound argv>

Nothing in ``src/`` changes: each target is wrapped in its defining module
and in every entbound module that imported it by name.  Spans (name, start,
end, parent, operation id, info) stay in memory and are written when the
call returns, together with a per-name summary that ``layers.py`` merges.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import types
from pathlib import Path


def _state_key(rho) -> str:
    return hashlib.sha1(rho.matrix.tobytes()).hexdigest()[:16]


def _svd_gflop(args, kwargs, _result) -> float:
    """Golub-Reinsch flop counts from the matrix shape; computed, not measured."""
    import numpy as np

    a = np.asarray(args[0])
    *batch, m, n = a.shape
    k, lg = min(m, n), max(m, n)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    if not compute_uv:
        flops = 4 * lg * k * k - 4 * k ** 3 / 3
    elif full:
        flops = 4 * lg * lg * k + 8 * lg * k * k + 9 * k ** 3
    else:
        flops = 14 * lg * k * k + 8 * k ** 3
    if np.iscomplexobj(a):
        flops *= 4
    return float(flops * int(np.prod(batch, dtype=np.int64))) / 1e9


def _measure_key(tag):
    return lambda args, kwargs, result: f"{_state_key(args[0])}:{tag}"


def _iterations(args, kwargs, result):
    return int(result.meta.get("iterations", 0))


# (module, attribute, span name, info function or None)
TARGETS = (
    ("numpy.linalg", "eigh", "numpy.eigh", None),
    ("numpy.linalg", "eigvalsh", "numpy.eigh", None),
    ("numpy.linalg", "svd", "numpy.svd", _svd_gflop),
    ("numpy.linalg", "pinv", "numpy.pinv", None),
    ("numpy.polynomial.legendre", "leggauss", "linalg.leggauss",
     lambda args, kwargs, result: int(args[0])),
    ("entbound.linalg", "load_state", "cli.load_state", None),
    ("entbound.measures", "mutual_information", "measures.ei", _measure_key("EI")),
    ("entbound.measures", "relative_entanglement_entropy_upper", "measures.er",
     lambda args, kwargs, result: [_state_key(args[0]) + ":ER", _iterations(args, kwargs, result)]),
    ("entbound.measures", "log_dominance_upper", "measures.en", _measure_key("EN")),
    ("entbound.measures", "modular_nuclearity_upper", "measures.em", _measure_key("EM")),
    ("entbound.measures", "bell_correlation", "measures.eb",
     lambda args, kwargs, result: [_state_key(args[0]) + ":EB", _iterations(args, kwargs, result)]),
    ("entbound.measures", "ordering_audit", "measures.audit", None),
    ("entbound.modular", "relative_entropy", "modular.relative_entropy", None),
    ("entbound.integrable", "t_kernel_trace_norm", "integrable.t_kernel_trace_norm", None),
    ("entbound.integrable", "dirac_halfline_bound", "integrable.dirac_halfline_bound", None),
    ("entbound.integrable", "strip_sup_norm", "integrable.strip_sup_norm",
     lambda args, kwargs, result: f"{tuple(args[0].poles)!r}:{args[1]!r}"),
    ("entbound.integrable", "vacuum_bound", "integrable.vacuum_bound",
     lambda args, kwargs, result: int(result.n_terms)),
    ("entbound.gaussian", "build_state", "gaussian.build_state", None),
    ("entbound.gaussian", "region_projectors", "gaussian.region_projectors",
     lambda args, kwargs, result: f"{args[0].geometry!r}:{sorted(set(int(i) for i in args[1]))!r}"),
    ("entbound.gaussian", "kg_upper_bound", "gaussian.kg_upper_bound", None),
    ("entbound.gaussian", "correlator_lower_bound", "gaussian.correlator_lower_bound", None),
    ("entbound.bounds", "gap_s", "bounds.gap_s", None),
    ("entbound.cli", "emit_rows", "cli.emit", None),
    ("entbound.cli", "write_manifest", "cli.emit", None),
    ("entbound.cli", "main", "cli.main", None),
)


class Tracer:
    """Span recorder; one per process, owned by ``main``."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []   # [name, start, end, parent, info]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target everywhere it is bound."""
        import importlib

        import entbound.cli  # noqa: F401  (imports every module the CLI reaches)

        entbound_modules = [m for n, m in sorted(sys.modules.items())
                            if n == "entbound" or n.startswith("entbound.")]
        for mod_name, attr, span, info in TARGETS:
            module = importlib.import_module(mod_name)
            orig = getattr(module, attr)
            wrapped = self.wrap(span, orig, info)
            setattr(module, attr, wrapped)
            for mod in entbound_modules:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
        bounds = importlib.import_module("entbound.bounds")
        build = bounds.GapFunctionTable.__dict__["build"].__func__
        bounds.GapFunctionTable.build = classmethod(self.wrap("bounds.gap_table.build", build))
        cli = sys.modules["entbound.cli"]
        real_json = cli.json
        cli.json = types.SimpleNamespace(dumps=self.wrap("cli.emit", real_json.dumps),
                                         loads=real_json.loads)

    def summary(self) -> dict:
        """Per span name: calls, outermost time, self time and collected info."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent, info) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "info": []})
            agg["calls"] += 1
            agg["self_s"] += max(t1 - t0 - child_time[i], 0.0)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                agg["s"] += t1 - t0
            if info is not None:
                agg["info"].append(info)
        return out

    def write(self, spans_path: Path, summary_path: Path) -> None:
        with spans_path.open("w", encoding="utf-8") as fh:
            for name, t0, t1, parent, info in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, self.op, info]) + "\n")
        summary_path.write_text(json.dumps(self.summary()), encoding="utf-8")


def main(argv: list[str]) -> int:
    spans_path, summary_path, op = Path(argv[0]), Path(argv[1]), int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS SUMMARY OP_ID -- <entbound argv>")
    tracer = Tracer(op)
    tracer.install()
    import entbound.cli

    try:
        code = entbound.cli.main(argv[4:])
    finally:
        tracer.write(spans_path, summary_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
