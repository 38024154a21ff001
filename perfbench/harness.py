"""Process plumbing shared by ``run.py`` and ``make_reference.py``: the pinned
child environment, one timed child process, one pass over a workload, and
the environment record written into every results file."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# BLAS pinned to one thread; ENTBOUND_THREADS unset means the CLI maps rows serially
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0
MIN_SETUP_PROBES = 5     # per run: one per untraced pass, topped up at the end


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ENTBOUND_THREADS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(cmd: list[str], stderr_path: Path) -> Child:
    """Run one process to completion; RSS is this child's own peak (wait4)."""
    t0 = time.perf_counter()
    with stderr_path.open("wb") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def require_checkout() -> None:
    """Refuse to run where the program's sources or the reference are missing."""
    if not (SRC / "entbound" / "cli.py").is_file():
        raise SystemExit(f"error: no entbound sources under {SRC}")
    if not REFERENCE.is_file():
        raise SystemExit(f"error: missing {REFERENCE}")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "entbound").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int | None) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_vendor = "unknown"
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "thread_env": {k: env.get(k) for k in (*THREAD_ENV, "ENTBOUND_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float | None = None                    # untraced passes only
    attempted: int = 0
    failures: list = field(default_factory=list)
    summaries: list = field(default_factory=list)   # traced passes only


class PassRunner:
    """Runs passes of one workload; owns the inputs and reference it checks against."""

    def __init__(self, invocations, reference: dict, work_dir: Path):
        self.invocations = invocations
        self.reference = reference
        self.work_dir = work_dir
        self.inputs = work_dir / "inputs"
        workloads.write_inputs(invocations, self.inputs)
        self._count = 0

    def setup_probe(self) -> float:
        """Wall time of a fresh interpreter importing the CLI module."""
        err = self.work_dir / "setup.err"
        probe = run_child([sys.executable, "-c", "import entbound.cli"], err)
        if probe.code != 0:
            raise SystemExit(f"error: `import entbound.cli` failed; see {err}")
        return probe.wall_s

    def run(self, traced: bool) -> Pass:
        self._count += 1
        pass_dir = self.work_dir / f"pass-{self._count:03d}"
        pass_dir.mkdir(parents=True)
        result = Pass()
        if not traced:
            result.setup_s = self.setup_probe()
        children = []
        t0 = time.perf_counter()
        for op, inv in enumerate(self.invocations):
            out = pass_dir / f"{op:02d}{inv.suffix}"
            argv = inv.cli_argv(self.inputs, out)
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(pass_dir / f"{op:02d}.spans.jsonl"),
                       str(pass_dir / f"{op:02d}.summary.json"), str(op), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "entbound.cli", *argv]
            children.append(run_child(cmd, pass_dir / f"{op:02d}.err"))
        result.wall_s = time.perf_counter() - t0
        result.cpu_s = sum(c.cpu_s for c in children)
        result.peak_rss_mb = max(c.rss_mb for c in children)
        for op, (inv, child) in enumerate(zip(self.invocations, children)):
            out = pass_dir / f"{op:02d}{inv.suffix}"
            attempted, failures = check_output(inv, self.reference["items"][inv.item],
                                               out if child.code == 0 else None)
            result.attempted += attempted
            result.failures += [f"{inv.item}: {f}" for f in failures[:attempted]]
            if traced:
                result.summaries.append(_read_json(pass_dir / f"{op:02d}.summary.json"))
        return result


def check_output(inv, ref: dict, out: Path | None) -> tuple[int, list[str]]:
    """Check one invocation's output file (None when it exited nonzero)."""
    if inv.kind == "measures":
        facts = checker.state_facts(*workloads.state_matrix(inv.state))
        report = checker.read_report(out) if out else None
        return checker.check_measures(report, ref, facts, phi_plus=inv.state == "phi_plus")
    return checker.check_rows(checker.read_rows(out) if out else None, ref)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
