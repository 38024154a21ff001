"""Lower-bound toolkit: the binary relative-entropy gap function and the
correlator and packing lower bounds built on it."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .linalg import DensityMatrix


class BoundsError(ValueError):
    pass


def _psi(y: np.ndarray) -> np.ndarray:
    """psi(y) = (1 + y) log1p(y) - y >= 0, elementwise for y > -1.

    Where |y| < 0.1 the two terms cancel, so there psi is summed from its
    alternating series sum_{n>=2} (-y)^n / (n (n - 1)), which sixteen terms
    take to round-off.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (1.0 + y) * np.log1p(y) - y
    series = np.zeros_like(y)
    for n in range(17, 1, -1):
        series = 1.0 / (n * (n - 1)) - y * series
    return np.where(np.abs(y) < 0.1, y * y * series, direct)


def _tail(x: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b = x/(1-q), 1 - p and log1p(-b) at p = q + x.

    1 - p is formed as (1 - x) - q; where b > 1/2, log1p(-b) is taken as
    log(1-p) - log1p(-q), which keeps its precision as 1 - p falls toward 0.
    """
    b = x / (1.0 - q)
    one_p = (1.0 - x) - q
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(b > 0.5, np.log(one_p) - np.log1p(-q), np.log1p(-b))
    return b, one_p, tail


def _slope(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q-derivative (log1p(a) - a) - (log1p(-b) + b) of D(q + x || q), a = x/q."""
    a = x / q
    b, _, tail = _tail(x, q)
    return (np.log1p(a) - a) - (tail + b)


def _relent(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(q + x || q) = q psi(a) + (1-q) psi(-b), for 0 < q < 1 - x.

    Both terms are nonnegative, so nothing cancels between them even where
    D ~ 2x^2 is far below x.  Where b > 1/2, (1-q) psi(-b) is taken as
    (1-p) log1p(-b) + x with the tail of ``_tail``.
    """
    b, one_p, tail = _tail(x, q)
    with np.errstate(invalid="ignore"):
        far = np.where(one_p > 0.0, one_p * tail, 0.0) + x
    return q * _psi(x / q) + np.where(b > 0.5, far, (1.0 - q) * _psi(-b))


def gap_s(x):
    """Infimum of the binary relative entropy at fixed probability gap x.

    s(x) = min over q in (0, 1-x) of D(q + x || q), a convex problem whose
    minimiser lies in ((1-x)/2, 1-x); every x is solved at once by bisecting
    the sign of the derivative in log q.  Takes a float or an array and
    returns the same.  Satisfies s(x) >= 2 x^2 and grows like -log(1-x)
    toward the right endpoint.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise BoundsError(f"gap argument must be in (0, 1), got {x}")
    hi = np.log1p(-xs)
    lo = hi - 1.0
    for _ in range(60):  # the bracket starts one wide, so this reaches round-off
        mid = 0.5 * (lo + hi)
        below = _slope(xs, np.exp(mid)) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    # lo is always a point strictly inside (0, 1 - x)
    value = _relent(xs, np.exp(lo))
    return float(value) if value.ndim == 0 else value


def gap_s_series(x: float) -> float:
    """Small-gap expansion 2x^2 + (4/9)x^4 + (32/135)x^6."""
    return 2.0 * x**2 + (4.0 / 9.0) * x**4 + (32.0 / 135.0) * x**6


@dataclass(frozen=True)
class GapFunctionTable:
    """The gap function on (0, 1) with its values on a fixed grid.

    Between the grid ends s is evaluated exactly; below the grid the
    truncated series (a lower bound, all its terms being positive) is used,
    and above it the value at the last node (a lower bound, s rising).
    """

    grid: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, n: int = 400) -> "GapFunctionTable":
        left = np.geomspace(1e-6, 0.5, n // 2)
        right = 1.0 - np.geomspace(1e-6, 0.5, n // 2)[::-1]
        # both halves meet at exactly 0.5; np.unique would import numpy.ma
        grid = np.concatenate([left, right[1:]])
        return cls(grid=grid, values=gap_s(grid))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        small = x <= self.grid[0]
        big = x >= self.grid[-1]
        mid = ~(small | big)
        out[small] = gap_s_series(x[small]) if np.any(small) else 0.0
        out[mid] = gap_s(x[mid])
        out[big] = self.values[-1]
        return out if out.ndim else float(out)


@functools.cache
def gap_table() -> GapFunctionTable:
    """The default gap-function table, built on first use."""
    # build is looked up at call time, so a wrapper put on it (to time it) applies
    return GapFunctionTable.build()


def _hermitian_contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return h / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-300)


def _connected_correlator(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    from .linalg import partial_trace

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
    # the density-matrix stack loads only here, so the gap function and the
    # lattice bounds run without it
    from .linalg import partial_trace
    from .measures import _sign_observable, mutual_information

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
            b = _sign_observable(mb)[0]
            ma = np.einsum("abcd,db->ac", t, b) - float(np.trace(rb @ b).real) * ra
            ma = 0.5 * (ma + ma.conj().T)
            a = _sign_observable(ma)[0]
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
