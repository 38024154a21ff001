"""Workload definitions: the fixed argv lists of one pass and the inputs they read.

Every input is generated here from a fixed generator key, so an item id
names the same bytes on every machine.  A workload seed only chooses which
pool items a pass uses, and in which order; the seed-commit outputs for every
pool item are stored in ``reference.json``, which is how the checker can
compare any seed's outputs against a reference.

Why each workload exists (see README.md for the layer map):

* ``audit``    -- all five measures, so ``ordering_audit`` runs too.  E_R
  descent dominates.  Its inputs are fixed: the descent's work varies about
  fourfold between random states, so a seed-chosen subset would make
  ``wall_s`` spread more across seeds than any useful bound.
* ``nuclear``  -- EI,EN,EM,EB on 4x4 states; the modular Delta^{1/4}
  dominates and no E_R runs.  Work does not depend on the state's values,
  so the seed picks the states.
* ``corridor`` -- the README's 2-d Dirac corridor example without its
  eps = 0.05 point, so a run holds three passes; Nystrom trace norms
  dominate.  Fixed inputs.
* ``lattice``  -- a gaussian decay sweep with Weyl-correlator trials (the
  seed picks the mass and the trial draws) plus two fixed integrable sweeps
  that include "series diverges" rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("audit", "nuclear", "corridor", "lattice")

# generator keys: one integer per input family, never reused
_KEY_AUDIT = 1
_KEY_NUCLEAR = 2
_KEY_PURE = 3

AUDIT_STATES = ("phi_plus", "audit-2x2-0", "audit-3x3-0")
# three E_R restarts instead of eight keep a pass near 8 s, so a run holds
# several passes and reports their median
AUDIT_ER_RESTARTS = 3
NUCLEAR_POOL = tuple(f"nuclear-4x4-{i}" for i in range(16))
PURE_POOL = tuple(f"pure-4x4-{i}" for i in range(4))
NUCLEAR_PER_PASS = 4

# region B is every site past the gap, so its size (and the sweep's work) is
# fixed by keeping region A in place; the seed varies mass and trial draws
GAUSSIAN_MASSES = (0.6, 0.8, 1.0, 1.2)
GAUSSIAN_TRIAL_SEEDS = (0, 1, 2)
GAUSSIAN_POOL = tuple(
    f"gaussian-m{m}-s{t}" for m in GAUSSIAN_MASSES for t in GAUSSIAN_TRIAL_SEEDS
)

CORRIDOR_ARGV = ("dirac", "--m", "1", "--eps", "0.2,0.1", "--circle-radius", "1")
SINH_GORDON_ARGV = ("integrable", "--model", "sinh-gordon", "--g", "0.5",
                    "--mR", "0.5..40..0.5", "--kappa", "0.3", "--delta", "0.1")
CUSTOM_ARGV = ("integrable", "--model", "custom", "--poles", "0.6,1.0,1.4",
               "--mR", "3..40..0.5", "--kappa", "0.3", "--delta", "0.1")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``item`` keys the reference, ``kind`` picks the checker."""

    item: str
    kind: str          # "measures" or "rows"
    argv: tuple        # CLI arguments without --out; {state} marks the state file
    state: str = ""    # state item id, when the call reads one

    def cli_argv(self, inputs_dir: Path, out: Path) -> list[str]:
        state_path = str(inputs_dir / f"{self.state}.json") if self.state else ""
        return [a.replace("{state}", state_path) for a in self.argv] + ["--out", str(out)]

    @property
    def suffix(self) -> str:
        return ".json" if self.kind == "measures" else ".csv"


def _ginibre(key: int, index: int, dim_a: int, dim_b: int) -> np.ndarray:
    rng = np.random.default_rng([key, index, dim_a, dim_b])
    n = dim_a * dim_b
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _pure(key: int, index: int, dim_a: int, dim_b: int) -> np.ndarray:
    rng = np.random.default_rng([key, index, dim_a, dim_b])
    v = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def state_matrix(item: str) -> tuple[np.ndarray, int, int]:
    """Density matrix and local dimensions of a state item id."""
    if item == "phi_plus":
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        return np.outer(v, v.conj()), 2, 2
    family, shape, index = item.rsplit("-", 2)
    d = int(shape.split("x")[0])
    key = {"audit": _KEY_AUDIT, "nuclear": _KEY_NUCLEAR, "pure": _KEY_PURE}[family]
    make = _pure if family == "pure" else _ginibre
    return make(key, int(index), d, d), d, d


def write_state(item: str, inputs_dir: Path) -> Path:
    m, da, db = state_matrix(item)
    path = inputs_dir / f"{item}.json"
    path.write_text(json.dumps({"dimA": da, "dimB": db,
                                "re": m.real.tolist(), "im": m.imag.tolist()}),
                    encoding="utf-8")
    return path


def _measures(state: str, measures: str = "") -> Invocation:
    argv = ("measures", "--state", "{state}") + (
        ("--measures", measures) if measures else ("--er-restarts", str(AUDIT_ER_RESTARTS)))
    return Invocation(item=f"measures:{state}:{measures or 'all'}", kind="measures",
                      argv=argv, state=state)


def _gaussian(config: str) -> Invocation:
    _, m, t = config.split("-")
    argv = ("gaussian", "--sites", "256", "--mass", m[1:], "--spacing", "0.25",
            "--regionA", "24..39", "--gap", "6..22..2", "--trials", "48", "--seed", t[1:])
    return Invocation(item=config, kind="rows", argv=argv)


ALL_INVOCATIONS = (
    [_measures(s) for s in AUDIT_STATES]
    + [_measures(s, "EI,EN,EM,EB") for s in NUCLEAR_POOL + PURE_POOL]
    + [Invocation(item="corridor", kind="rows", argv=CORRIDOR_ARGV),
       Invocation(item="sinh-gordon", kind="rows", argv=SINH_GORDON_ARGV),
       Invocation(item="custom-3pole", kind="rows", argv=CUSTOM_ARGV)]
    + [_gaussian(c) for c in GAUSSIAN_POOL]
)
_BY_ITEM = {inv.item: inv for inv in ALL_INVOCATIONS}


def invocation(item: str) -> Invocation:
    return _BY_ITEM[item]


def pass_invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass, in run order; a pure function of the seed."""
    rng = np.random.default_rng([0x62656E63, seed % 2**64])
    if workload == "audit":
        items = [f"measures:{s}:all" for s in AUDIT_STATES]
    elif workload == "nuclear":
        chosen = rng.choice(len(NUCLEAR_POOL), NUCLEAR_PER_PASS, replace=False)
        items = [f"measures:{NUCLEAR_POOL[i]}:EI,EN,EM,EB" for i in chosen]
        items.append(f"measures:{PURE_POOL[rng.integers(len(PURE_POOL))]}:EI,EN,EM,EB")
    elif workload == "corridor":
        items = ["corridor"]
    elif workload == "lattice":
        items = [GAUSSIAN_POOL[rng.integers(len(GAUSSIAN_POOL))], "sinh-gordon", "custom-3pole"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(items))
    return [_BY_ITEM[items[i]] for i in order]


def write_inputs(invocations, inputs_dir: Path) -> None:
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for inv in invocations:
        if inv.state:
            write_state(inv.state, inputs_dir)
