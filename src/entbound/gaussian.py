"""Lattice-discretized massive scalar ground state on a 1-d chain.

The ground state is determined by the capacity operator C = (-lap + m^2)^-1
on the chain; entanglement between two disjoint site sets is bounded above
through the fractional-power region projectors and below by sampling Weyl
correlators against the gap function.
"""

from __future__ import annotations

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
    """Orthogonal projectors Q_+ and Q_- onto the C^{-1/4} / C^{+1/4} spans
    of the region's site columns."""
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
        q = q[:, :rank]
        out.append(q @ q.T)
    return out[0], out[1]  # (Q_+, Q_-): plus-sector uses C^{-1/4}


def kg_upper_bound(state: LatticeGaussianState, regions: RegionSpec) -> float:
    """Entanglement upper bound from the two cross-sector obliquity operators.

    For each sign pairing the singular values s_k of (1 - Q_{B'-/+}) Q_{A+/-}
    contribute -4 log(1 - sqrt(s_k)); all must stay below one, which fails
    only when the regions are too close for the lattice to resolve.
    """
    n = state.geometry.sites
    bprime = sorted(set(range(n)) - set(regions.indices_b))
    qa_plus, qa_minus = region_projectors(state, regions.indices_a)
    qb_plus, qb_minus = region_projectors(state, bprime)
    total = 0.0
    for qa, qb in ((qa_plus, qb_minus), (qa_minus, qb_plus)):
        x = (np.eye(n) - qb) @ qa
        s = np.linalg.svd(x, compute_uv=False)
        if s.size and s[0] >= 1.0 - 1e-9:
            raise GaussianError("regions too close for lattice resolution (overlap saturates)")
        total += -4.0 * float(np.sum(np.log1p(-np.sqrt(np.clip(s, 0.0, None)))))
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


def _region_qr(state: LatticeGaussianState, idx: np.ndarray):
    """QR factors of the q- and p-column blocks of the region data map.

    Region data (q, p) maps to the stacked one-particle vector (Re kappa;
    Im kappa) through [[0, C^{1/4}[:, idx]], [-C^{-1/4}[:, idx], 0]], so the
    map's QR is the two n x m QRs of -C^{-1/4}[:, idx] and C^{1/4}[:, idx].
    """
    qq, rq = np.linalg.qr(-state.c_power(-0.25)[:, idx])
    qp, rp = np.linalg.qr(state.c_power(0.25)[:, idx])
    return (qq, qp), (rq, rp)


def principal_candidates(state: LatticeGaussianState, regions: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Data pairs aligned with the top principal angles between the two
    regions' one-particle subspaces (the strongest available correlators).

    The two leading principal vectors give two pairs, returned as
    coefficient columns in region coordinates (q on the region's sites, then
    p): a 2|A| x 2 array for region A and a 2|B| x 2 array for region B,
    column k of each forming one pair.  Rotating A's subspace by J adds no
    pair: its Gram matrix with B's is the symplectic form, zero for disjoint
    regions.
    """
    (qqa, qpa), ra = _region_qr(state, np.array(regions.indices_a))
    (qqb, qpb), rb = _region_qr(state, np.array(regions.indices_b))
    ma, mb = qqa.shape[1], qqb.shape[1]
    gram = np.zeros((2 * ma, 2 * mb))
    gram[:ma, :mb] = qqa.T @ qqb
    gram[ma:, mb:] = qpa.T @ qpb
    u, _, vh = np.linalg.svd(gram, full_matrices=False)
    ua, vb = u[:, :2], vh[:2, :].T

    def solve(r, rhs):  # minimum-norm, so a rank-deficient region does not raise
        return np.vstack([np.linalg.lstsq(rk, hk, rcond=None)[0] for rk, hk in zip(r, np.split(rhs, 2))])

    return solve(ra, ua), solve(rb, vb)


def correlator_lower_bound(
    state: LatticeGaussianState,
    regions: RegionSpec,
    trials: int = 256,
    seed: int = 0,
) -> float:
    """Sampled Weyl-correlator lower bound on the mutual information.

    Gaussian random initial data restricted to each region, plus the
    principal-angle pairs of the two one-particle subspaces; each candidate
    pair (f, g) is tried over a small amplitude grid and the connected
    correlator of the unit-norm Weyl operators feeds the gap function.

    With f and g scaled to covariance t^2 the connected correlator has the
    closed form e^{-u} (e^{-u z} - 1), u = t^2, z = c + i sigma / 2, where c
    and sigma are the covariance and symplectic forms of the unit-covariance
    pair.  Data supported on disjoint regions has sigma = 0, so z is the
    real cosine c, read off the inner product of the one-particle vectors.
    """
    n, a = state.geometry.sites, state.geometry.spacing
    ia, ib = np.array(regions.indices_a), np.array(regions.indices_b)
    rows_a, rows_b = np.r_[ia, ia + n], np.r_[ib, ib + n]
    coef_a, coef_b = principal_candidates(state, regions)
    # one draw holds every trial's (q_A, p_A, q_B, p_B) in sequence
    draws = np.random.default_rng(seed).standard_normal((trials, rows_a.size + rows_b.size))
    f = np.zeros((2 * n, coef_a.shape[1] + trials))
    g = np.zeros_like(f)
    f[rows_a] = np.hstack([coef_a, draws[:, : rows_a.size].T])
    g[rows_b] = np.hstack([coef_b, draws[:, rows_a.size :].T])
    kf, kg = _kappa_map(state, f), _kappa_map(state, g)
    # (a/2) <kappa f, kappa g> = c(f, g) + i sigma(f, g) / 2, column by column,
    # and sigma(f, g) = 0 because f and g live on disjoint regions
    cf = 0.5 * a * np.sum(np.abs(kf) ** 2, axis=0)
    cg = 0.5 * a * np.sum(np.abs(kg) ** 2, axis=0)
    z = 0.5 * a * np.sum(kf.conj() * kg, axis=0).real / np.sqrt(
        np.maximum(cf, 1e-300) * np.maximum(cg, 1e-300))
    u = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])[:, None] ** 2
    x = 0.5 * np.abs(np.exp(-u) * np.expm1(-u * z))
    x = x[(x > 0.0) & (x < 1.0)]
    return float(np.max(gap_table()(x))) if x.size else 0.0


def decay_row(
    state: LatticeGaussianState,
    region_a: tuple[int, ...],
    gap: int,
    trials: int = 0,
    seed: int = 0,
) -> tuple[int, float, float, float]:
    """(gap_sites, separation r, upper_bound, lower_bound) at one A-B gap.

    B is everything beyond the gap to the right of A; the lower bound is 0
    unless ``trials`` asks for sampled Weyl correlators.
    """
    start_b = max(region_a) + 1 + int(gap)
    regions = RegionSpec(tuple(region_a), tuple(range(start_b, state.geometry.sites)))
    upper = kg_upper_bound(state, regions)
    lower = correlator_lower_bound(state, regions, trials=trials, seed=seed) if trials else 0.0
    return int(gap), gap * state.geometry.spacing, upper, lower


def decay_sweep(
    geom: LatticeGeometry,
    region_a: tuple[int, ...],
    gaps,
    trials: int = 0,
    seed: int = 0,
):
    """Upper (and optional lower) bounds versus the A-B gap in sites.

    Returns one :func:`decay_row` per gap; a gap that leaves region B fewer
    than two sites raises.
    """
    state = build_state(geom)
    rows = []
    for gap in gaps:
        if max(region_a) + 1 + int(gap) >= geom.sites - 1:
            raise GaussianError(f"gap {gap} leaves no room for region B")
        rows.append(decay_row(state, region_a, gap, trials, seed))
    return rows


def log_linear_fit(xs, ys):
    """Least-squares slope/intercept of log(y) vs x plus the R^2 of the fit."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0
    xs, ly = xs[keep], np.log(ys[keep])
    slope, intercept = np.polyfit(xs, ly, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
