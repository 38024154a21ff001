"""Lower-bound toolkit: the binary relative-entropy gap function and the
norm-distance, fidelity, correlator and packing lower bounds built on it."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DensityMatrix, matrix_power_psd, partial_trace, trace_norm
from .measures import _sign_observable, mutual_information
from .modular import relative_entropy

if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator


class BoundsError(ValueError):
    pass


def _binary_relent(p: float, q: float) -> float:
    return p * (math.log(p) - math.log(q)) + (1.0 - p) * (math.log1p(-p) - math.log1p(-q))


def gap_s(x: float) -> float:
    """Infimum of the binary relative entropy at fixed probability gap x.

    One-dimensional convex minimization over q in (0, 1-x): bracketed golden
    section polished by safeguarded Newton steps.  Satisfies s(x) >= 2 x^2
    and grows like -log(1-x) toward the right endpoint.
    """
    from scipy.optimize import minimize_scalar

    if not 0.0 < x < 1.0:
        raise BoundsError(f"gap argument must be in (0, 1), got {x}")
    top = 1.0 - x
    lo, hi = 1e-300, top * (1.0 - 1e-12)
    res = minimize_scalar(
        lambda q: _binary_relent(q + x, q),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    q = float(res.x)
    # Newton polish (objective is convex in q)
    for _ in range(40):
        p = q + x
        d1 = (
            math.log(p / q)
            - math.log((1.0 - p) / (1.0 - q))
            - p / q
            + (1.0 - p) / (1.0 - q)
        )
        d2 = (
            1.0 / p
            - 2.0 / q
            + p / q**2
            + 1.0 / (1.0 - p)
            - 2.0 / (1.0 - q)
            + (1.0 - p) / (1.0 - q) ** 2
        )
        if d2 <= 0:
            break
        q_new = q - d1 / d2
        if not lo < q_new < top:
            break
        if abs(q_new - q) < 1e-16 * max(q, 1e-16):
            q = q_new
            break
        q = q_new
    return _binary_relent(q + x, q)


def gap_s_series(x: float) -> float:
    """Small-gap expansion 2x^2 + (4/9)x^4 + (32/135)x^6."""
    return 2.0 * x**2 + (4.0 / 9.0) * x**4 + (32.0 / 135.0) * x**6


@dataclass(frozen=True)
class GapFunctionTable:
    """Cached monotone interpolant of the gap function on (0, 1)."""

    grid: np.ndarray
    values: np.ndarray
    _interp: PchipInterpolator

    @classmethod
    def build(cls, n: int = 400) -> "GapFunctionTable":
        from scipy.interpolate import PchipInterpolator

        left = np.geomspace(1e-6, 0.5, n // 2)
        right = 1.0 - np.geomspace(1e-6, 0.5, n // 2)[::-1]
        grid = np.unique(np.concatenate([left, right]))
        vals = np.array([gap_s(float(x)) for x in grid])
        return cls(grid=grid, values=vals, _interp=PchipInterpolator(grid, vals))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        small = x <= self.grid[0]
        big = x >= self.grid[-1]
        mid = ~(small | big)
        out[small] = gap_s_series(x[small]) if np.any(small) else 0.0
        out[mid] = self._interp(x[mid])
        out[big] = self.values[-1]
        return out if out.ndim else float(out)


@functools.cache
def gap_table() -> GapFunctionTable:
    """The default gap-function table, built on first use."""
    # build is looked up at call time, so a wrapper put on it (to time it) applies
    return GapFunctionTable.build()


def entropy_gap_check(rho: DensityMatrix, rho2: DensityMatrix):
    """H(rho, rho2) against s of half the trace distance."""
    h = relative_entropy(rho, rho2)
    x = 0.5 * trace_norm(rho.matrix - rho2.matrix)
    s = gap_s(x) if 0.0 < x < 1.0 else (0.0 if x <= 0.0 else float("inf"))
    if not math.isfinite(h):
        return h, s, True
    return h, s, bool(h >= s - 1e-8)


def fidelity_lower_bound_check(rho: DensityMatrix, rho2: DensityMatrix):
    """H(rho, rho2) against s(1 - <cone rep | cone rep>)."""
    overlap = float(
        np.trace(matrix_power_psd(rho.matrix, 0.5) @ matrix_power_psd(rho2.matrix, 0.5)).real
    )
    h = relative_entropy(rho, rho2)
    if overlap <= 0.0:
        return float("inf"), float("inf"), True
    arg = 1.0 - overlap
    s = gap_s(arg) if arg > 0.0 else 0.0
    if not math.isfinite(h):
        return h, s, True
    return h, s, bool(h >= s - 1e-8)


def _hermitian_contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return h / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-300)


def _connected_correlator(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    da, db = rho.dimA, rho.dimB
    joint = float(np.trace(rho.matrix @ np.kron(a, b)).real)
    ma = float(np.trace(partial_trace(rho, "A").matrix @ a).real)
    mb = float(np.trace(partial_trace(rho, "B").matrix @ b).real)
    return joint - ma * mb


def mutual_info_correlator_bound(rho: DensityMatrix, trials: int = 64, seed: int = 0) -> float:
    """Correlator lower bound on the mutual information.

    Random Hermitian contractions, each improved by a few seesaw steps (the
    optimal contraction against a fixed partner is the sign of the connected
    conditional operator).
    """
    if rho.dimB == 1:
        raise BoundsError("needs a bipartite state")
    da, db = rho.dimA, rho.dimB
    rng = np.random.default_rng(seed)
    t = rho.matrix.reshape(da, db, da, db)
    ra = partial_trace(rho, "A").matrix
    rb = partial_trace(rho, "B").matrix
    best = 0.0
    for _ in range(trials):
        a = _hermitian_contraction(da, rng)
        b = _hermitian_contraction(db, rng)
        for _ in range(4):
            mb = np.einsum("abcd,ca->bd", t, a) - float(np.trace(ra @ a).real) * rb
            mb = 0.5 * (mb + mb.conj().T)
            b = _sign_observable(mb)
            ma = np.einsum("abcd,db->ac", t, b) - float(np.trace(rb @ b).real) * ra
            ma = 0.5 * (ma + ma.conj().T)
            a = _sign_observable(ma)
        best = max(best, abs(_connected_correlator(rho, a, b)))
    x = 0.5 * best
    value = gap_s(x) if 0.0 < x < 1.0 else 0.0
    ei = mutual_information(rho).value
    if value > ei + 1e-8:
        raise BoundsError(f"correlator bound {value} exceeds the mutual information {ei}")
    return value


@dataclass(frozen=True)
class PackingConfig:
    """Geometry and distillation inputs for the packing lower bound."""

    eps: float
    d: int
    d2: float = 0.0
    boundary_area: float = 0.0   # |dA| for d >= 2
    length_a: float = 1.0        # interval lengths for d = 1
    length_b: float = 1.0

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise BoundsError("corridor width must be positive")
        if self.d2 < 0:
            raise BoundsError("distillable entropy parameter must be nonnegative")
        if self.d < 1:
            raise BoundsError("spatial dimension must be at least 1")


def area_law_lower(cfg: PackingConfig) -> tuple[int, float]:
    """Cbit-pair packing count and the resulting lower bound N * D2.

    d >= 2 packs cube pairs of side 2*eps along the boundary; d = 1 nests
    geometrically shrinking interval pairs toward the corridor.
    """
    if cfg.d >= 2:
        n = int(math.floor(cfg.boundary_area / (2.0 * cfg.eps) ** (cfg.d - 1)))
    else:
        scale = min(cfg.length_a, cfg.length_b)
        n = int(math.floor(math.log(scale / cfg.eps, 3.0) + 1e-12)) - 1
    n = max(n, 0)
    return n, n * cfg.d2
