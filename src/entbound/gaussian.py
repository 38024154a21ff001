"""Lattice-discretized massive scalar ground state on a 1-d chain.

The ground state is determined by the capacity operator C = (-lap + m^2)^-1
on the chain; entanglement between two disjoint site sets is bounded above
and below (the latter by a Weyl correlator and the gap function) through the
principal angles between the regions' one-particle subspaces.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import config
from .bounds import gap_table


class GaussianError(ValueError):
    pass


@dataclass(frozen=True)
class LatticeGeometry:
    sites: int
    spacing: float
    mass: float
    boundary: str = "dirichlet"

    def __post_init__(self) -> None:
        if self.sites < 8:
            raise GaussianError("need at least 8 sites")
        if not all(0 < v < math.inf for v in (self.spacing, self.mass)):
            raise GaussianError("spacing and mass must be positive and finite")
        # the kinetic operator's eigenvalues lie in (mass**2, mass**2 + 4/spacing**2]
        if not math.isfinite(self.mass * self.mass):
            raise GaussianError(f"mass {self.mass!r} is too large: mass**2 overflows")
        if not math.isfinite(self.mass * self.mass + 4.0 / self.spacing / self.spacing):
            raise GaussianError(f"spacing {self.spacing!r} is too small for mass {self.mass!r}: "
                                "mass**2 + 4/spacing**2 overflows")
        if self.mass * self.spacing >= 2.0:
            # mass gap comparable to the lattice cutoff: correlation lengths
            # below one spacing are not resolved; still algebraically valid
            warnings.warn(f"m*a = {self.mass * self.spacing:.3g} >= 2: mass-dominated lattice",
                          stacklevel=2)
        if self.boundary not in ("dirichlet", "periodic"):
            raise GaussianError(f"unknown boundary {self.boundary!r}")


@dataclass(frozen=True)
class RegionSpec:
    indices_a: tuple[int, ...]
    indices_b: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = set(self.indices_a), set(self.indices_b)
        if not a or not b:
            raise GaussianError("regions must be nonempty")
        if a & b:
            raise GaussianError("regions must be disjoint")
        object.__setattr__(self, "indices_a", tuple(sorted(a)))
        object.__setattr__(self, "indices_b", tuple(sorted(b)))


@dataclass(frozen=True)
class LatticeGaussianState:
    """Ground state kept as C^{+-1/4}, the only powers ``region_projectors`` reads;
    read-only, since a sweep's worker threads share one state."""

    geometry: LatticeGeometry
    powers: dict = field(repr=False)

    def c_power(self, p: float) -> np.ndarray:
        return self.powers[p]


def laplacian(geom: LatticeGeometry) -> np.ndarray:
    n, a = geom.sites, geom.spacing
    lap = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    if geom.boundary == "periodic":
        lap[0, n - 1] = 1.0
        lap[n - 1, 0] = 1.0
    return lap / a**2


def build_state(geom: LatticeGeometry) -> LatticeGaussianState:
    """Ground state as C^{+-1/4}; C^{+-1/2} are formed only to check they invert."""
    w, v = np.linalg.eigh(-laplacian(geom) + geom.mass**2 * np.eye(geom.sites))
    if w.min() <= 0:
        raise GaussianError("kinetic operator is not positive definite")
    cw = 1.0 / w
    resid = np.linalg.norm((v * cw**0.5) @ v.T @ ((v * cw**-0.5) @ v.T) - np.eye(geom.sites))
    if resid > 1e-9 * geom.sites:
        raise GaussianError("fractional powers do not invert; spectrum ill-conditioned")
    powers = {p: (v * cw**p) @ v.T for p in (0.25, -0.25)}
    for m in powers.values():
        m.flags.writeable = False
    return LatticeGaussianState(geometry=geom, powers=powers)


def region_projectors(state: LatticeGaussianState, indices) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases U_+ and U_- (n x rank) of the C^{-1/4} / C^{+1/4}
    spans of the region's site columns; the projectors are U U^T."""
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 0 or idx[-1] >= state.geometry.sites:
        raise GaussianError(f"region must be a nonempty set of sites in 0..{state.geometry.sites - 1}")
    out = []
    for p in (-0.25, 0.25):
        cols = state.c_power(p)[:, idx]
        q, s, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(s > config.RANK_CUT * max(float(s[0]), 1.0)))
        if rank < len(idx):
            warnings.warn(
                f"region columns are numerically dependent: rank {rank} < {len(idx)}",
                stacklevel=2,
            )
        out.append(q[:, :rank])
    return out[0], out[1]  # (U_+, U_-): plus-sector uses C^{-1/4}


def principal_cosines(
    state: LatticeGaussianState, regions: RegionSpec, bases_a=None
) -> tuple[list[np.ndarray], bool]:
    """Cosines of the principal angles between the A and B one-particle
    subspaces, one array per sector, and whether no basis was truncated.
    ``bases_a`` is ``region_projectors(state, regions.indices_a)`` when the
    caller already has it (a sweep that keeps region A fixed).

    Sector +/- takes the singular values of (1 - U_{B'-/+} U_{B'-/+}^T)
    U_{A+/-}, B' the complement of B (Bjorck & Golub, Math. Comp. 27, 579
    (1973)).  C^{-1/4} e_b is orthogonal to C^{1/4} e_{b'} for b != b', so
    span(C^{1/4} e_{B'})^perp = span(C^{-1/4} e_B) and the same singular
    values are the cosines between span(C^{-1/4} e_A) and span(C^{-1/4}
    e_B) (and likewise with the powers swapped); the identity is exact only
    while B's bases keep their full rank.
    """
    n = state.geometry.sites
    if not set(regions.indices_a + regions.indices_b) <= set(range(n)):
        raise GaussianError(f"region sites must lie in 0..{n - 1}")
    bprime = sorted(set(range(n)) - set(regions.indices_b))
    ua = region_projectors(state, regions.indices_a) if bases_a is None else bases_a
    ub = region_projectors(state, bprime)
    full = all(u.shape[1] == len(regions.indices_a) for u in ua) and all(
        u.shape[1] == len(bprime) for u in ub)
    cosines = [np.linalg.svd(x - y @ (y.T @ x), compute_uv=False)
               for x, y in ((ua[0], ub[1]), (ua[1], ub[0]))]
    return cosines, full


def kg_upper_bound(cosines: list[np.ndarray]) -> float:
    """Entanglement upper bound -4 sum_k log(1 - sqrt(c_k)) over the
    principal cosines c_k of both sectors (from ``principal_cosines``); all
    must stay below one, which fails only when the regions are too close
    for the lattice to resolve.
    """
    total = 0.0
    for c in cosines:
        if c.size and c[0] >= 1.0 - 1e-9:
            raise GaussianError("regions too close for lattice resolution (overlap saturates)")
        total += -4.0 * float(np.sum(np.log1p(-np.sqrt(c))))
    return total


def correlator_lower_bound(cosines: list[np.ndarray], full: bool, sites: int) -> float:
    """Weyl-correlator lower bound s(x*) on the mutual information, from the
    cosines and truncation flag that ``principal_cosines`` gives on ``sites`` sites.

    Take the principal pair (f, g) of region data at the largest principal
    cosine c of the two sectors, both scaled to covariance u.  Data on
    disjoint regions has zero symplectic form, so the Weyl operators W(f)
    and W(-g) have half connected correlator (1/2)(e^{-u(1-c)} - e^{-u}),
    which beats the pair (f, g) at every u (e^x - 1 >= 1 - e^{-x}) and peaks
    at u* = -log1p(-c)/c with x* = (c/2)(1 - c)^{(1-c)/c}.  x* rises with c
    and s with x, so no other pair or amplitude does better.  If a basis was
    truncated the cosines may overshoot, and a cosine within n ulps of zero
    is round-off; both give 0, which is always a lower bound.
    """
    c = max(float(cs[0]) if cs.size else 0.0 for cs in cosines)
    if not full or not sites * np.finfo(float).eps < c < 1.0:
        return 0.0
    x = 0.5 * c * math.exp((1.0 - c) / c * math.log1p(-c))
    return float(gap_table()(x))


def decay_row(
    state: LatticeGaussianState,
    region_a: tuple[int, ...],
    gap: int,
    lower: bool = False,
    bases_a=None,
) -> tuple[int, float, float, float]:
    """(gap_sites, separation r, upper_bound, lower_bound) at one A-B gap.

    B is everything beyond the gap to the right of A.  One set of principal
    cosines feeds both bounds; the Weyl-correlator one is 0 unless ``lower``.
    A sweep over gaps passes region A's ``region_projectors`` as ``bases_a``,
    so they are built once.
    """
    n = state.geometry.sites
    region_b = range(max(region_a) + 1 + int(gap), n)
    cosines, full = principal_cosines(state, RegionSpec(tuple(region_a), tuple(region_b)), bases_a)
    return (int(gap), gap * state.geometry.spacing, kg_upper_bound(cosines),
            correlator_lower_bound(cosines, full, n) if lower else 0.0)
