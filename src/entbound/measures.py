"""Entanglement measures on finite-dimensional bipartite states.

Exact values where they exist (mutual information, pure states), certified
upper bounds everywhere else: a variational upper bound on the relative
entanglement entropy (tangent steps for the factor vectors and entropic
steps for the weights of a separable mixture), a constructive
dominating-separable-functional bound on the logarithmic dominance, a
modular (nuclear-norm) bound, and a seesaw lower bound on the Bell
correlation.  Each bound carries a certificate that can be re-verified
independently of the code that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# modular is called through the module, so a wrapper put on
# modular.relative_entropy (to count or time calls) applies here too
from . import config, modular
from .linalg import (
    DensityMatrix,
    eigh,
    matrix_power_psd,
    partial_trace,
    swap_sides,
    trace_norm,
)

EXACT = "exact"
UPPER = "upper_bound"
LOWER = "lower_bound"


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class SeparableAnsatz:
    """Mixture of pure product states: weights plus unit factor vectors."""

    weights: np.ndarray            # (K,) nonnegative, sums to one
    factors_a: np.ndarray          # (dimA, K) unit columns
    factors_b: np.ndarray          # (dimB, K) unit columns

    def __post_init__(self) -> None:
        p = np.asarray(self.weights, dtype=float)
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
            raise MeasureError("ansatz weights must be a probability vector")
        for mat in (self.factors_a, self.factors_b):
            norms = np.linalg.norm(mat, axis=0)
            if np.max(np.abs(norms - 1.0)) > 1e-8:
                raise MeasureError("ansatz factor vectors must be unit norm")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def materialize(self) -> DensityMatrix:
        da = self.factors_a.shape[0]
        db = self.factors_b.shape[0]
        sigma = _ansatz_matrix(self.weights[None], self.factors_a[None], self.factors_b[None])[0]
        return DensityMatrix(dimA=da, dimB=db, matrix=sigma / np.trace(sigma).real)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Functional pairs (F_j, G_j) with sum_j F_j (x) G_j equal to the state."""

    pairs: list[tuple[np.ndarray, np.ndarray]]

    def cost(self) -> float:
        return float(sum(trace_norm(f) * trace_norm(g) for f, g in self.pairs))

    def reconstruct(self) -> np.ndarray:
        return sum(np.kron(f, g) for f, g in self.pairs)

    def check_reconstructs(self, rho: DensityMatrix, tol: float = 1e-9) -> None:
        err = float(np.linalg.norm(self.reconstruct() - rho.matrix))
        if err > tol:
            raise MeasureError(f"decomposition does not reconstruct the state (error {err:.2e})")


@dataclass(frozen=True)
class MeasureResult:
    measure: str
    value: float
    kind: str
    certificate: Any = None
    meta: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """The scalar fields, as plain Python values (numpy scalars converted;
        lists and arrays left out)."""
        rec = {"measure": self.measure, "value": self.value, "kind": self.kind}
        meta = {k: v.item() if isinstance(v, np.generic) else v for k, v in self.meta.items()}
        rec.update({k: v for k, v in meta.items() if isinstance(v, (int, float, str, bool))})
        rec["has_certificate"] = self.certificate is not None
        return rec


# ---------------------------------------------------------------------------
# exact measures


def von_neumann_entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > config.current().support_cut]
    return float(-np.sum(w * np.log(w)))


def mutual_information(rho: DensityMatrix) -> MeasureResult:
    """Relative entropy of the state to the product of its marginals.

    Computed both as H(rho, rho_A (x) rho_B) and as the entropy combination
    S(A) + S(B) - S(AB); the two must agree to 1e-9.
    """
    if rho.dimB == 1:
        raise MeasureError("mutual information needs a bipartite state")
    ra = partial_trace(rho, "A")
    rb = partial_trace(rho, "B")
    # rho_A (x) rho_B has trace t^2 for tr rho = t, so its trace error is
    # about twice the input's; scaled to trace t it is valid whenever rho is,
    # and H(rho || sigma / t) = H(rho || sigma) + t log t
    t = float(np.trace(rho.matrix).real)
    prod = DensityMatrix(rho.dimA, rho.dimB, np.kron(ra.matrix, rb.matrix) / t)
    via_rel = modular.relative_entropy(rho, prod) - t * math.log(t)
    via_ent = von_neumann_entropy(ra.matrix) + von_neumann_entropy(rb.matrix) - von_neumann_entropy(rho.matrix)
    if np.isfinite(via_rel) and abs(via_rel - via_ent) > 1e-9:
        raise MeasureError(f"mutual-information formulas disagree: {via_rel} vs {via_ent}")
    value = max(via_ent, 0.0)
    return MeasureResult("EI", value, EXACT, meta={"via_relative_entropy": via_rel})


def schmidt_decomposition(psi: np.ndarray, dimA: int, dimB: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt coefficients (descending) and factor bases of a state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise MeasureError("state vector must be unit norm")
    m = v.reshape(dimA, dimB)
    u, s, vh = np.linalg.svd(m)
    return s, u, vh.conj().T


def schmidt_entropy(psi: np.ndarray, dimA: int, dimB: int) -> MeasureResult:
    """Entanglement entropy of a pure state (exact value of E_R and E_D)."""
    s, _, _ = schmidt_decomposition(psi, dimA, dimB)
    p = s**2
    p = p[p > config.current().support_cut]
    value = float(-np.sum(p * np.log(p)))
    rho = np.outer(psi, np.conj(psi))
    dm = DensityMatrix(dimA, dimB, rho)
    sa = von_neumann_entropy(partial_trace(dm, "A").matrix)
    sb = von_neumann_entropy(partial_trace(dm, "B").matrix)
    if abs(sa - sb) > 1e-10 or abs(value - sa) > 1e-10:
        raise MeasureError("marginal entropies disagree")
    return MeasureResult("ER", value, EXACT, meta={"schmidt_weights": p.tolist()})


# ---------------------------------------------------------------------------
# variational E_R upper bound


def _ansatz_matrix(p: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """Stacked mixtures: p (R, k), av (R, dA, k), bv (R, dB, k) -> (R, n, n)."""
    r, da, k = av.shape
    db = bv.shape[1]
    cols = (av[:, :, None, :] * bv[:, None, :, :]).reshape(r, da * db, k)
    return (cols * p[:, None, :]) @ cols.conj().swapaxes(-1, -2)


def _rel_ent_and_grad(
    rho_m: np.ndarray, neg_entropy: float, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """H(rho, sigma) plus the gradient of -Tr rho log sigma in sigma, for a
    stack of sigmas (R, n, n) with one eigh; returns values (R,) and
    gradients (R, n, n).

    ``neg_entropy`` is Tr rho log rho over the eigenvalues above 1e-14.  A
    sigma that leaves more than 1e-12 of rho's weight off its support has
    value inf (its gradient is then meaningless).
    """
    cut = 1e-14
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().swapaxes(-1, -2)))
    w = np.maximum(w, 0.0)
    vh = v.conj().swapaxes(-1, -2)
    rt = vh @ rho_m @ v
    pos = w > cut
    diag = np.diagonal(rt, axis1=-2, axis2=-1).real
    lw = np.log(np.where(pos, w, 1.0))   # 0 off the support
    h = neg_entropy - (diag * lw).sum(axis=-1)
    num = lw[:, :, None] - lw[:, None, :]
    den = w[:, :, None] - w[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(np.abs(den) > 1e-12, num / den, 1.0 / np.where(pos, w, np.inf)[:, :, None])
    if not pos.all():
        h[np.where(pos, 0.0, diag).sum(axis=-1) > 1e-12] = np.inf
        phi = np.where(pos[:, :, None] & pos[:, None, :], phi, 0.0)
    g = -(v @ (phi * rt) @ vh)
    return h, 0.5 * (g + g.conj().swapaxes(-1, -2))


def _random_unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _schmidt_channel_init(rho_m: np.ndarray, da: int, db: int, k: int, rng: np.random.Generator):
    """Seed components from the Schmidt channels of every eigenvector.

    For a pure state this reproduces the optimizing mixture exactly, so the
    descent only has to polish.
    """
    wr, vr = np.linalg.eigh(rho_m)
    comps = []
    for m in range(len(wr) - 1, -1, -1):
        lam = max(float(wr[m]), 0.0)
        if lam < 1e-12:
            continue
        mat = vr[:, m].reshape(da, db)
        u, s, vh = np.linalg.svd(mat)
        for r in range(len(s)):
            if s[r] ** 2 > 1e-12:
                comps.append((lam * s[r] ** 2, u[:, r], vh[r, :].conj()))
    comps.sort(key=lambda c: -c[0])
    comps = comps[:k]
    while len(comps) < k:
        comps.append((1e-4, _random_unit(da, rng), _random_unit(db, rng)))
    p = np.array([c[0] for c in comps])
    return p / p.sum(), np.column_stack([c[1] for c in comps]), np.column_stack([c[2] for c in comps])


def _direction(grad, p, av, bv):
    """Weight gradients and sphere-tangent factor gradients of a stack."""
    r, da, k = av.shape
    cols = (av[:, :, None, :] * bv[:, None, :, :]).reshape(r, -1, k)
    gv = grad @ cols
    gp = np.einsum("rik,rik->rk", cols.conj(), gv).real
    gm = gv.reshape(r, da, -1, k)
    # unweighted factor gradients, projected onto the spheres' tangent planes
    ga = np.einsum("rabk,rbk->rak", gm, bv.conj())
    gb = np.einsum("rabk,rak->rbk", gm, av.conj())
    ga -= av * np.einsum("rak,rak->rk", av.conj(), ga).real[:, None, :]
    gb -= bv * np.einsum("rbk,rbk->rk", bv.conj(), gb).real[:, None, :]
    # the normalised multiplicative step ignores a shift of gp; from its
    # least value on the support every factor exp(-step gp) is in (0, 1]
    floor = np.where(p > 0, gp, np.inf).min(axis=-1, keepdims=True)
    return np.clip(gp - floor, 0.0, None), ga, gb


def _descend(rho_m, p, av, bv, max_iter, rel_tol=1e-10):
    """Descend H(rho, sigma) from R stacked starts p (R, k), av (R, dA, k),
    bv (R, dB, k) in lockstep.

    Each round tries one step for every live restart with one stacked
    evaluation.  A restart keeps its own step size, iteration count and stop
    reason: on acceptance it advances, grows its step by 1.3 and takes a new
    direction; on rejection it halves its step.  So each restart follows the
    trajectory it would follow alone.  A stopped restart leaves the stack.
    Returns one (value, (p, av, bv), iterations, stop) per restart.
    """
    # Tr rho log rho does not depend on sigma: one eigvalsh per descent
    wr = np.linalg.eigvalsh(rho_m)
    wr = wr[wr > 1e-14]
    neg_entropy = float(np.sum(wr * np.log(wr)))
    val, grad = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p, av, bv))
    running, rel_tol_stop, no_descent, max_iter_stop, zero = range(5)
    names = ("", "rel_tol", "no_descent", "max_iter", "zero")
    n_r = len(p)
    # the working stack, updated in place: the restarts still running, with
    # their original index
    p, av, bv = p.copy(), av.copy(), bv.copy()
    idx, step, iters = np.arange(n_r), np.full(n_r, 0.5), np.zeros(n_r, dtype=int)
    # an infeasible start stops before its first step
    stop = np.where(np.isfinite(val), running, no_descent)
    fresh = stop == running   # restarts at the top of an iteration, owed a new direction
    # each restart's result, written when it stops
    final = [np.empty_like(part) for part in (p, av, bv, val, iters, stop)]
    gp, ga, gb = np.zeros_like(p), np.zeros_like(av), np.zeros_like(bv)
    while True:
        # a restart that has not moved since its last top of an iteration
        # cannot newly meet these two tests, so they apply to the whole stack
        stop[(stop == running) & (iters >= max_iter)] = max_iter_stop
        stop[(stop == running) & (val <= 1e-14)] = zero
        out = stop != running
        if out.any():
            for arr, part in zip(final, (p, av, bv, val, iters, stop)):
                arr[idx[out]] = part[out]
            keep = ~out
            idx, step, iters, stop, fresh = idx[keep], step[keep], iters[keep], stop[keep], fresh[keep]
            p, av, bv, val, grad = p[keep], av[keep], bv[keep], val[keep], grad[keep]
            gp, ga, gb = gp[keep], ga[keep], gb[keep]
            if not idx.size:
                break
        if fresh.all():
            gp, ga, gb = _direction(grad, p, av, bv)
        elif fresh.any():
            gp[fresh], ga[fresh], gb[fresh] = _direction(grad[fresh], p[fresh], av[fresh], bv[fresh])
        p2 = p * np.exp(-step[:, None] * gp)
        p2 /= p2.sum(axis=-1, keepdims=True)
        a2 = av - step[:, None, None] * ga
        b2 = bv - step[:, None, None] * gb
        a2 = a2 / np.linalg.norm(a2, axis=1, keepdims=True)
        b2 = b2 / np.linalg.norm(b2, axis=1, keepdims=True)
        val2, grad2 = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p2, a2, b2))
        ok = np.isfinite(val2) & (val2 < val - 1e-16)
        rel = (val - val2) / np.maximum(np.abs(val), 1e-30)
        if ok.all():
            p, av, bv, val, grad = p2, a2, b2, val2, grad2
        else:
            p[ok], av[ok], bv[ok], val[ok], grad[ok] = p2[ok], a2[ok], b2[ok], val2[ok], grad2[ok]
        step = np.where(ok, step * 1.3, step * 0.5)
        iters += ok
        stop[ok & (iters > 11) & (rel < rel_tol)] = rel_tol_stop
        dead = ~ok & (step <= 1e-14)
        stop[dead] = no_descent
        iters += dead
        fresh = ok
    fp, fa, fb, fv, fi, fs = final
    return [(float(fv[r]), (fp[r], fa[r], fb[r]), int(fi[r]), names[fs[r]]) for r in range(n_r)]


def _er_starts(rho: DensityMatrix, k: int, restarts: int, seed: int) -> tuple:
    """The Schmidt-channel start plus ``restarts - 1`` random mixtures,
    stacked: p (R, k), av (R, dA, k), bv (R, dB, k)."""
    da, db = rho.dimA, rho.dimB
    rng = np.random.default_rng(seed)
    starts = [_schmidt_channel_init(rho.matrix, da, db, k, rng)]
    for _ in range(max(restarts - 1, 0)):
        p = rng.random(k)
        starts.append((p / p.sum(),
                       np.column_stack([_random_unit(da, rng) for _ in range(k)]),
                       np.column_stack([_random_unit(db, rng) for _ in range(k)])))
    return tuple(np.stack(part) for part in zip(*starts))


def relative_entanglement_entropy_upper(
    rho: DensityMatrix,
    n_components: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 1500,
) -> MeasureResult:
    """Variational upper bound on the relative entanglement entropy.

    Descent over mixtures of pure product states: each factor vector moves
    on its unit sphere along its unweighted tangent gradient, so a light
    component moves as fast as a heavy one, and the weights take entropic
    (mirror-descent) steps p exp(-step g) on the simplex.  Every feasible
    mixture certifies an upper bound.  The restarts run in lockstep as one
    stack (one stacked eigh per round for all live restarts), and each
    follows the trajectory it would follow alone; the first restart with
    the lowest value gives the returned value and ansatz.  ``meta["stop"]``
    says why that restart ended: ``rel_tol``, ``no_descent`` (the step fell
    below 1e-14), ``max_iter`` or ``zero`` (round-off; E_R >= 0).
    ``meta["stagnated"]``: some restart hit max_iter.  ``meta["iterations"]``
    sums the restarts' iterations.
    """
    if rho.dimB == 1:
        raise MeasureError("E_R needs a bipartite state")
    if rho.dim > 64:
        raise MeasureError("optimizer capped at total dimension 64")
    k = 2 * rho.dim if n_components is None else n_components
    runs = _descend(rho.matrix, *_er_starts(rho, k, restarts, seed), max_iter)
    val, (p, av, bv), _, stop = min(runs, key=lambda run: run[0])
    return MeasureResult(
        "ER", float(val), UPPER,
        certificate=SeparableAnsatz(weights=p, factors_a=av, factors_b=bv),
        meta={"iterations": sum(run[2] for run in runs), "seed": seed,
              "stagnated": any(run[3] == "max_iter" for run in runs), "stop": stop},
    )


# ---------------------------------------------------------------------------
# logarithmic dominance (constructive dominating separable functional)


def dominating_separable(dec: SeparableDecomposition) -> tuple[np.ndarray, float]:
    """Separable positive functional dominating the decomposed state.

    For each pair the polar data of the two functionals combine into the
    explicitly separable term (|F*| (x) |G*| + |F| (x) |G|)/2; the sum
    dominates the reconstructed state and has trace equal to the cost.
    """
    sigma = None
    for f, g in dec.pairs:
        fa = _abs_parts(f)
        gb = _abs_parts(g)
        term = 0.5 * (np.kron(fa[1], gb[1]) + np.kron(fa[0], gb[0]))
        sigma = term if sigma is None else sigma + term
    sigma = 0.5 * (sigma + sigma.conj().T)
    return sigma, dec.cost()


def _abs_parts(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|F|, |F*|) via SVD; both PSD with trace equal to the trace norm."""
    u, s, vh = np.linalg.svd(np.asarray(f, dtype=complex))
    absf = (vh.conj().T * s) @ vh
    absfs = (u * s) @ u.conj().T
    return absf, absfs


def matrix_unit_decomposition(rho: DensityMatrix) -> SeparableDecomposition:
    """Pairs (|a_j><a_i|, block_ij) in the eigenbasis of the A marginal."""
    da, db = rho.dimA, rho.dimB
    _, va = eigh(partial_trace(rho, "A").matrix)
    t = rho.matrix.reshape(da, db, da, db)
    pairs = []
    for i in range(da):
        for j in range(da):
            block = np.einsum("a,abcd,c->bd", va[:, i].conj(), t, va[:, j])
            pairs.append((np.outer(va[:, i], va[:, j].conj()), block))
    return SeparableDecomposition(pairs=pairs)


def log_dominance_upper(rho: DensityMatrix) -> MeasureResult:
    """Upper bound on the logarithmic dominance from the matrix-unit decomposition.

    Both sides' decompositions are evaluated and the cheaper one is kept, so
    the bound is symmetric under exchanging the parties.  The certificate is
    the decomposition; ``meta["strategy"]`` names it ("matrix_unit").
    """
    if rho.dimB == 1:
        raise MeasureError("logarithmic dominance needs a bipartite state")
    dec = matrix_unit_decomposition(rho)
    dec_b = matrix_unit_decomposition(swap_sides(rho))
    if dec_b.cost() < dec.cost():
        dec = SeparableDecomposition(pairs=[(g, f) for f, g in dec_b.pairs])
    dec.check_reconstructs(rho)
    sigma, mu = dominating_separable(dec)
    value = float(np.log(mu))
    h_norm = modular.relative_entropy(rho, DensityMatrix(rho.dimA, rho.dimB, sigma / mu))
    return MeasureResult(
        "EN", value, UPPER, certificate=dec,
        meta={"strategy": "matrix_unit", "sigma_trace": mu, "h_to_normalized_sigma": h_norm},
    )


# ---------------------------------------------------------------------------
# modular nuclearity


def modular_nuclearity_pure(schmidt_weights: np.ndarray) -> MeasureResult:
    """Exact modular entanglement value of a pure state from its weights."""
    p = np.asarray(schmidt_weights, dtype=float)
    if abs(p.sum() - 1.0) > 1e-10 or p.min() < 0:
        raise MeasureError("weights must form a probability vector")
    if p.min() <= 0.0:
        raise MeasureError("zero weight: the vector is not separating, value undefined")
    value = float(2.0 * np.log(np.sum(p**0.25)))
    return MeasureResult("EM", value, EXACT)


def _modular_quarter_factors(m: np.ndarray, spectral_cut: float = 1e-13):
    """Eigen-factors of Delta^{1/4} for a full matrix factor with Omega = m.

    Rows of m are indexed by the factor and columns by its commutant.  The
    factor acts as x -> x m and the commutant as y -> m y^T, whose orbit has
    the projector P (x) 1, P onto range(m).  The minimal-norm solve of
    S x Omega = P x^dagger m is v -> X v^T m with X = P pinv(m^dagger), so
    Delta = S^dagger S = (m m^dagger) (x) (X^T X^*).  Returns the eigenvectors
    V, W of the two factors and F = (lam_i mu_j)^{1/4}, cut to 0 at or below
    ``spectral_cut`` times the largest product: Delta^{1/4} xi is
    V [F o (V^dagger xi W^*)] W^T.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    u = u[:, : int(np.sum(s > config.current().rank_cut * 0.1 * max(float(s[0]), 1.0)))]
    x = u @ (u.conj().T @ np.linalg.pinv(m.conj().T, rcond=1e-12))
    lam, v = np.linalg.eigh(m @ m.conj().T)
    mu, w = np.linalg.eigh(x.T @ x.conj())
    prod = np.outer(lam, mu)
    prod = np.where(prod > spectral_cut * max(float(prod.max()), 1e-300), prod, 0.0)
    return v, w, prod**0.25


def _doubled_vector(rho: DensityMatrix) -> np.ndarray:
    """GNS vector vec(sqrt(rho)) with indices regrouped as (A,A')(B,B')."""
    da, db = rho.dimA, rho.dimB
    sq = matrix_power_psd(rho.matrix, 0.5)
    return sq.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(-1)


def modular_nuclearity_upper(rho: DensityMatrix) -> MeasureResult:
    """Matrix-unit nuclear-norm bound on the modular entanglement measure.

    Works on the GNS space of the state (matrices with the Hilbert-Schmidt
    inner product, standard vector sqrt(rho)); the modular operator used for
    each side is the one of the full doubled factor containing that side's
    observable algebra, which can only enlarge the bound.  For each side,
    Omega is held as the (algebra x commutant) matrix, (A,A') x (B,B') for A
    and its transpose for B; matrix units act on it by moving rows, and
    Delta is a Kronecker product of two factors of that matrix's sizes, so
    no operator on the doubled space is formed.  The certified functional-pair
    decomposition it induces is exactly the matrix-unit decomposition of the
    state, so the logarithmic-dominance chain holds by construction.
    """
    if rho.dimB == 1:
        raise MeasureError("modular nuclearity needs a bipartite state")
    if rho.dim > 64:
        raise MeasureError("modular construction capped at total dimension 64")
    pure = np.linalg.eigvalsh(rho.matrix).max() > 1.0 - 1e-10
    if not (rho.is_faithful() or (pure and _full_schmidt_rank(rho))):
        raise MeasureError(
            "state must be faithful (or pure with full Schmidt rank) for the modular construction"
        )
    da, db = rho.dimA, rho.dimB
    m_ab = _doubled_vector(rho).reshape(da * da, db * db)
    nus = {}
    for side, d, m in (("A", da, m_ab), ("B", db, m_ab.T)):
        v, w, f = _modular_quarter_factors(m)
        _, vr = eigh(partial_trace(rho, side).matrix)
        # (vr_i vr_j^dagger (x) 1) Omega = vr_i (x) t_j, one m-shaped vector per (i, j);
        # V and W are unitary, so |Delta^{1/4} xi| = |F o (V^dagger xi W^*)|, and
        # V^dagger (vr_i (x) t_j) W^* = g_i (t_j W^*) with g_i = V^dagger (vr_i (x) 1)
        g = np.einsum("yi,yzx->ixz", vr, v.conj().reshape(d, d, -1))
        tw = np.einsum("yj,yzk->jzk", vr.conj(), m.reshape(d, d, -1)) @ w.conj()
        nus[side] = float(np.linalg.norm(f * (g[:, None] @ tw[None]), axis=(2, 3)).sum())
    value = float(np.log(min(nus["A"], nus["B"])))
    cert = matrix_unit_decomposition(rho)
    return MeasureResult(
        "EM", value, UPPER, certificate=cert,
        meta={"nu_A": nus["A"], "nu_B": nus["B"]},
    )


def _full_schmidt_rank(rho: DensityMatrix) -> bool:
    wa = np.linalg.eigvalsh(partial_trace(rho, "A").matrix)
    wb = np.linalg.eigvalsh(partial_trace(rho, "B").matrix)
    cut = config.current().faithful_min_eig
    return bool(wa.min() > cut and wb.min() > cut)


# ---------------------------------------------------------------------------
# Bell correlation (seesaw lower bound)


def _conditional_operator(rho: DensityMatrix, op: np.ndarray, on_b: bool) -> np.ndarray:
    da, db = rho.dimA, rho.dimB
    t = rho.matrix.reshape(da, db, da, db)
    if on_b:
        m = np.einsum("abcd,db->ac", t, op)
    else:
        m = np.einsum("abcd,ca->bd", t, op)
    return 0.5 * (m + m.conj().T)


def _sign_observable(m: np.ndarray) -> tuple[np.ndarray, float]:
    """sign(m), ties toward +1, and Tr[m sign(m)] = sum |lambda(m)|."""
    w, v = np.linalg.eigh(m)
    s = np.where(w >= 0.0, 1.0, -1.0)
    return (v * s) @ v.conj().T, float(np.sum(np.abs(w)))


def bell_functional(rho: DensityMatrix, a1, a2, b1, b2) -> float:
    op = 0.5 * (np.kron(a1, b1 + b2) + np.kron(a2, b1 - b2))
    return float(np.trace(rho.matrix @ op).real)


def bell_correlation(
    rho: DensityMatrix,
    seesaw_iters: int = 200,
    restarts: int = 8,
    seed: int = 0,
) -> MeasureResult:
    """Seesaw lower bound on the maximal Bell correlation of the state.

    Each half-step replaces one party's observables by the sign of the
    conditional operator, which is the exact optimum for dichotomic
    observables; alternation stops when the value is stationary.  After the
    B half-step the value is Tr[M_1 b_1] + Tr[M_2 b_2] with b_k = sign(M_k),
    so it is the sum of |eigenvalues| of the two B-side conditional
    operators, and ``bell_functional`` is only needed to re-check it.

    The sqrt(2) ceiling checked on the result is Tsirelson's bound, which
    holds in every local dimension.  The maximally entangled state phi+_n
    reaches it only for even n; for odd n its value is
    (2 sqrt(2) floor(n/2) + 1)/n, e.g. (1 + 2 sqrt(2))/3 for qutrits, since
    one 1-dim Jordan block of the observable pair is left over.
    """
    if rho.dimB == 1:
        raise MeasureError("Bell correlation needs a bipartite state")
    if rho.dimA > 8 or rho.dimB > 8:
        raise MeasureError("seesaw capped at local dimension 8")
    da, db = rho.dimA, rho.dimB
    rng = np.random.default_rng(seed)
    best = -np.inf
    best_obs = None
    total_iters = 0
    for _ in range(restarts):
        b1 = _random_dichotomic(db, rng)
        b2 = _random_dichotomic(db, rng)
        a1 = a2 = np.eye(da, dtype=complex)
        val = -np.inf
        for it in range(seesaw_iters):
            total_iters += 1
            a1 = _sign_observable(_conditional_operator(rho, 0.5 * (b1 + b2), on_b=True))[0]
            a2 = _sign_observable(_conditional_operator(rho, 0.5 * (b1 - b2), on_b=True))[0]
            b1, norm1 = _sign_observable(_conditional_operator(rho, 0.5 * (a1 + a2), on_b=False))
            b2, norm2 = _sign_observable(_conditional_operator(rho, 0.5 * (a1 - a2), on_b=False))
            new = norm1 + norm2
            if new - val < 1e-10:
                val = max(val, new)
                break
            val = new
        if val > best:
            best = val
            best_obs = (a1, a2, b1, b2)
    tsirelson = np.sqrt(2.0)
    if best > tsirelson + 1e-9:
        raise MeasureError(f"seesaw value {best} exceeds the dichotomic-correlation ceiling")
    return MeasureResult(
        "EB", float(best), LOWER, certificate=best_obs,
        meta={"iterations": total_iters, "seed": seed},
    )


def _random_dichotomic(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    signs = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    return (q * signs) @ q.conj().T


# ---------------------------------------------------------------------------
# certificates and the ordering audit


def verify_certificate(rho: DensityMatrix, result: MeasureResult, tol: float = 1e-8) -> None:
    """Re-check a result against its certificate; raises on mismatch."""
    cert = result.certificate
    if cert is None:
        return
    if isinstance(cert, SeparableAnsatz):
        sigma = cert.materialize()
        h = modular.relative_entropy(rho, sigma)
        if not (h <= result.value + tol and abs(h - result.value) <= 1e-6 + tol):
            raise MeasureError(f"ansatz re-evaluates to {h}, result claims {result.value}")
    elif isinstance(cert, SeparableDecomposition):
        cert.check_reconstructs(rho)
        sigma, mu = dominating_separable(cert)
        gap = np.linalg.eigvalsh(sigma - rho.matrix).min()
        if gap < -1e-9:
            raise MeasureError(f"dominating functional fails positivity by {gap:.2e}")
        if np.log(mu) > result.value + tol:
            raise MeasureError(
                f"certificate cost log {np.log(mu)} exceeds claimed bound {result.value}"
            )
    elif isinstance(cert, tuple) and len(cert) == 4:
        a1, a2, b1, b2 = cert
        for op in cert:
            w = np.linalg.eigvalsh(op)
            if w.min() < -1.0 - 1e-9 or w.max() > 1.0 + 1e-9:
                raise MeasureError("certificate observable is not a contraction")
        val = bell_functional(rho, a1, a2, b1, b2)
        if abs(val - result.value) > 1e-9:
            raise MeasureError(f"observables re-evaluate to {val}, result claims {result.value}")
    else:
        raise MeasureError(f"unknown certificate type {type(cert)!r}")


@dataclass(frozen=True)
class OrderingReport:
    values: dict
    links: list[tuple[str, float, float, bool]]
    results: dict   # measure name -> MeasureResult

    @property
    def ok(self) -> bool:
        return all(link[3] for link in self.links)

    def broken(self) -> list[str]:
        return [link[0] for link in self.links if not link[3]]


def ordering_audit(
    rho: DensityMatrix,
    seed: int = 0,
    er_restarts: int = 8,
    slack: float = 1e-8,
    include_er: bool = True,
    include_eb: bool = True,
) -> OrderingReport:
    """Evaluate the measures and execute the certified chain inequalities.

    The two asserted links are the ones provable from the certificates: the
    relative entropy to the normalized dominating functional never exceeds
    the dominance bound, and the matrix-unit dominance bound never exceeds
    the modular bound built from the same matrix units.  Every result is
    returned in ``results``, so callers need not evaluate a measure again.
    """
    results = {
        "EI": mutual_information(rho),
        "EN": log_dominance_upper(rho),
        "EM": modular_nuclearity_upper(rho),
    }
    if include_er:
        results["ER"] = relative_entanglement_entropy_upper(rho, restarts=er_restarts, seed=seed)
    if include_eb:
        results["EB"] = bell_correlation(rho, seed=seed)
    values = {(f"{name}_upper" if res.kind == UPPER else name): res.value
              for name, res in results.items()}
    en, em = results["EN"], results["EM"]
    h_sigma = en.meta["h_to_normalized_sigma"]
    links = [
        ("H(rho, sigma_N/tr) <= EN_upper", h_sigma, en.value, bool(h_sigma <= en.value + slack)),
        ("EN_upper <= EM_upper", en.value, em.value, bool(en.value <= em.value + slack)),
    ]
    return OrderingReport(values=values, links=links, results=results)
