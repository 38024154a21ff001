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
        if self.spacing <= 0 or self.mass <= 0:
            raise GaussianError("spacing and mass must be positive")
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
    geometry: LatticeGeometry
    c_matrix: np.ndarray
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
    """Ground-state capacity operator and its cached fractional powers."""
    k = -laplacian(geom) + geom.mass**2 * np.eye(geom.sites)
    w, v = np.linalg.eigh(k)
    if w.min() <= 0:
        raise GaussianError("kinetic operator is not positive definite")
    cw = 1.0 / w
    powers = {p: (v * cw**p) @ v.T for p in (1.0, 0.5, -0.5, 0.25, -0.25)}
    c = powers[1.0]
    ident = powers[0.5] @ powers[-0.5]
    if np.linalg.norm(ident - np.eye(geom.sites)) > 1e-9 * geom.sites:
        raise GaussianError("fractional powers do not invert; spectrum ill-conditioned")
    return LatticeGaussianState(geometry=geom, c_matrix=c, powers=powers)


def region_projectors(state: LatticeGaussianState, indices) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases U_+ and U_- (n x rank) of the C^{-1/4} / C^{+1/4}
    spans of the region's site columns; the projectors are U U^T."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise GaussianError("region must be nonempty")
    out = []
    for p in (-0.25, 0.25):
        cols = state.c_power(p)[:, idx]
        q, s, _ = np.linalg.svd(cols, full_matrices=False)
        rank = int(np.sum(s > config.current().rank_cut * max(float(s[0]), 1.0)))
        if rank < len(idx):
            warnings.warn(
                f"region columns are numerically dependent: rank {rank} < {len(idx)}",
                stacklevel=2,
            )
        out.append(q[:, :rank])
    return out[0], out[1]  # (U_+, U_-): plus-sector uses C^{-1/4}


def principal_cosines(state: LatticeGaussianState, regions: RegionSpec) -> tuple[list[np.ndarray], bool]:
    """Cosines of the principal angles between the A and B one-particle
    subspaces, one array per sector, and whether no basis was truncated.

    Sector +/- takes the singular values of (1 - U_{B'-/+} U_{B'-/+}^T)
    U_{A+/-}, B' the complement of B (Bjorck & Golub, Math. Comp. 27, 579
    (1973)).  C^{-1/4} e_b is orthogonal to C^{1/4} e_{b'} for b != b', so
    span(C^{1/4} e_{B'})^perp = span(C^{-1/4} e_B) and the same singular
    values are the cosines between span(C^{-1/4} e_A) and span(C^{-1/4}
    e_B) (and likewise with the powers swapped); the identity is exact only
    while B's bases keep their full rank.
    """
    n = state.geometry.sites
    bprime = sorted(set(range(n)) - set(regions.indices_b))
    ua = region_projectors(state, regions.indices_a)
    ub = region_projectors(state, bprime)
    full = all(u.shape[1] == len(regions.indices_a) for u in ua) and all(
        u.shape[1] == len(bprime) for u in ub)
    cosines = [np.linalg.svd(x - y @ (y.T @ x), compute_uv=False)
               for x, y in ((ua[0], ub[1]), (ua[1], ub[0]))]
    return cosines, full


def kg_upper_bound(state: LatticeGaussianState, regions: RegionSpec) -> float:
    """Entanglement upper bound -4 sum_k log(1 - sqrt(c_k)) over the
    principal cosines c_k of both sectors; all must stay below one, which
    fails only when the regions are too close for the lattice to resolve.
    """
    total = 0.0
    for c in principal_cosines(state, regions)[0]:
        if c.size and c[0] >= 1.0 - 1e-9:
            raise GaussianError("regions too close for lattice resolution (overlap saturates)")
        total += -4.0 * float(np.sum(np.log1p(-np.sqrt(c))))
    return total


# ---------------------------------------------------------------------------
# quasi-free Weyl correlators


def _kappa_map(state: LatticeGaussianState, f: np.ndarray) -> np.ndarray:
    """One-particle vector C^{1/4} p - i C^{-1/4} q of initial data (q, p)."""
    n = state.geometry.sites
    q, p = f[:n], f[n:]
    return state.c_power(0.25) @ p - 1j * (state.c_power(-0.25) @ q)


def symplectic_form(state: LatticeGaussianState, f: np.ndarray, g: np.ndarray) -> float:
    n = state.geometry.sites
    a = state.geometry.spacing
    return float(a * (f[:n] @ g[n:] - g[:n] @ f[n:]))


def covariance_form(state: LatticeGaussianState, f: np.ndarray, g: np.ndarray) -> float:
    a = state.geometry.spacing
    return float(0.5 * a * np.vdot(_kappa_map(state, f), _kappa_map(state, g)).real)


def weyl_expectation(state: LatticeGaussianState, f: np.ndarray) -> complex:
    return complex(np.exp(-0.5 * covariance_form(state, f, f)))


def weyl_two_point(state: LatticeGaussianState, f: np.ndarray, g: np.ndarray) -> complex:
    """Expectation of the product of two Weyl operators in the ground state."""
    n = state.geometry.sites
    if len(f) != 2 * n or len(g) != 2 * n:
        raise GaussianError("initial data vectors must have length 2 * sites")
    fg = f + g
    return complex(
        np.exp(-0.5j * symplectic_form(state, f, g) - 0.5 * covariance_form(state, fg, fg))
    )


def correlator_lower_bound(state: LatticeGaussianState, regions: RegionSpec) -> float:
    """Weyl-correlator lower bound s(x*) on the mutual information.

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
    cosines, full = principal_cosines(state, regions)
    c = max(float(cs[0]) if cs.size else 0.0 for cs in cosines)
    if not full or not state.geometry.sites * np.finfo(float).eps < c < 1.0:
        return 0.0
    x = 0.5 * c * math.exp((1.0 - c) / c * math.log1p(-c))
    return float(gap_table()(x))


def decay_row(
    state: LatticeGaussianState,
    region_a: tuple[int, ...],
    gap: int,
    trials: int = 0,
) -> tuple[int, float, float, float]:
    """(gap_sites, separation r, upper_bound, lower_bound) at one A-B gap.

    B is everything beyond the gap to the right of A; the lower bound is 0
    unless ``trials`` > 0 switches the Weyl-correlator bound on.  Its value
    does not depend on ``trials``.
    """
    start_b = max(region_a) + 1 + int(gap)
    regions = RegionSpec(tuple(region_a), tuple(range(start_b, state.geometry.sites)))
    upper = kg_upper_bound(state, regions)
    lower = correlator_lower_bound(state, regions) if trials > 0 else 0.0
    return int(gap), gap * state.geometry.spacing, upper, lower
