"""Entanglement measures on finite-dimensional bipartite states.

Exact values where they exist (mutual information, pure states), certified
upper bounds everywhere else: a variational upper bound on the relative
entanglement entropy (quasi-Newton steps in the log-weights and unit factor
vectors of a separable mixture), a constructive
dominating-separable-functional bound on the logarithmic dominance, a
modular (nuclear-norm) bound, and seesaw lower bounds on the Bell
correlation and, through the correlator of two dichotomic observables, on
the mutual information.  Each bound on an entanglement measure carries a
certificate that can be re-verified independently of the code that
produced it.
"""

from __future__ import annotations

import math
import random
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
        # each test is written so that a nan fails it
        p = np.asarray(self.weights, dtype=float)
        if not (p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-10):
            raise MeasureError("ansatz weights must be a probability vector")
        for mat in (self.factors_a, self.factors_b):
            norms = np.linalg.norm(mat, axis=0)
            if not np.max(np.abs(norms - 1.0)) <= 1e-8:
                raise MeasureError("ansatz factor vectors must be unit norm")

    def materialize(self) -> DensityMatrix:
        da = self.factors_a.shape[0]
        db = self.factors_b.shape[0]
        sigma = _ansatz_matrix(self.weights[None], self.factors_a[None], self.factors_b[None])[0]
        return DensityMatrix(dimA=da, dimB=db, matrix=sigma / np.trace(sigma).real)


@dataclass(frozen=True)
class SeparableDecomposition:
    """Functional pairs (F_j, G_j) with sum_j F_j (x) G_j equal to the state."""

    pairs: list[tuple[np.ndarray, np.ndarray]]

    def reconstruct(self) -> np.ndarray:
        return sum(np.kron(f, g) for f, g in self.pairs)

    def check_reconstructs(self, rho: DensityMatrix, tol: float = 1e-9) -> None:
        err = float(np.linalg.norm(self.reconstruct() - rho.matrix))
        if not err <= tol:   # a nan error fails too
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
    w = w[w > config.SUPPORT_CUT]
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


CORRELATOR_STARTS = 64


def mutual_info_correlator_bound(rho: DensityMatrix) -> float:
    """Correlator lower bound s(|<a (x) b> - <a><b>| / 2) on the mutual
    information, over dichotomic a and b.

    The connected correlator is the bilinear form of X = rho - rho_A (x) rho_B,
    maximised by ``_dichotomic_seesaw`` from ``CORRELATOR_STARTS`` starts drawn
    from ``random.Random(0)``, each run until stationary (at most 200 rounds).
    """
    # the gap function loads here, so measures runs without the bounds module
    from . import bounds

    if rho.dimB == 1:
        raise MeasureError("needs a bipartite state")
    da, db = rho.dimA, rho.dimB
    x = rho.matrix - np.kron(partial_trace(rho, "A").matrix, partial_trace(rho, "B").matrix)
    rng = _rng(0)
    starts = np.array([[_random_dichotomic(db, rng)] for _ in range(CORRELATOR_STARTS)])
    runs = _dichotomic_seesaw(x.reshape(da, db, da, db), np.ones((1, 1)), starts, 200)
    gap = 0.5 * max(run[0] for run in runs)
    value = bounds.gap_s(gap) if 0.0 < gap < 1.0 else 0.0
    ei = mutual_information(rho).value
    if value > ei + 1e-8:
        raise MeasureError(f"correlator bound {value} exceeds the mutual information {ei}")
    return value


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
    p = p[p > config.SUPPORT_CUT]
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


def _rng(seed: int) -> random.Random:
    """The generator of every random start: ``random.Random(seed)``."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise MeasureError(f"seed must be a non-negative integer, got {seed!r}")
    return random.Random(int(seed))


def _complex_gauss(rng: random.Random, shape: tuple) -> np.ndarray:
    """Standard complex Gaussians: a block of real parts, then one of imaginary parts."""
    g = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * math.prod(shape))]).reshape(2, *shape)
    return g[0] + 1j * g[1]


def _random_unit(d: int, rng: random.Random) -> np.ndarray:
    v = _complex_gauss(rng, (d,))
    return v / np.linalg.norm(v)


def _schmidt_channel_init(rho_m: np.ndarray, da: int, db: int, k: int, rng: random.Random):
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


# curvature pairs each E_R restart keeps for its quasi-Newton directions
LBFGS_HISTORY = 8


def _gradient(grad, p, av, bv):
    """Gradient of H(rho, sigma) for a stack, one packed real vector per
    restart (R, P), in the coordinates the descent moves: the log-weights
    (the weights are their softmax), then the real and imaginary parts of
    the factor vectors, tangent to their unit spheres.  Returns it with the
    diagonal preconditioner (R, P) that turns it into the unweighted
    first-order direction: 1/p on a log-weight, 1/(2p) on a factor entry,
    so that a light component moves as fast as a heavy one.
    """
    r, da, k = av.shape
    cols = (av[:, :, None, :] * bv[:, None, :, :]).reshape(r, -1, k)
    gv = grad @ cols
    gp = np.einsum("rik,rik->rk", cols.conj(), gv).real
    gm = gv.reshape(r, da, -1, k)
    ga = np.einsum("rabk,rbk->rak", gm, bv.conj())
    gb = np.einsum("rabk,rak->rbk", gm, av.conj())
    ga -= av * np.einsum("rak,rak->rk", av.conj(), ga).real[:, None, :]
    gb -= bv * np.einsum("rbk,rbk->rk", bv.conj(), gb).real[:, None, :]
    w = 2.0 * p[:, None, :]
    g = np.concatenate([p * (gp - (p * gp).sum(axis=-1, keepdims=True)),
                        (w * ga).reshape(r, -1).view(float),
                        (w * gb).reshape(r, -1).view(float)], axis=1)
    inv = 1.0 / np.maximum(p, 1e-300)
    half = np.tile(np.repeat(0.5 * inv, 2, axis=-1), da + bv.shape[1])
    return g, np.concatenate([inv, half], axis=1)


def _two_loop(g, m, pairs, rho):
    """L-BFGS directions H g for a stack: ``pairs`` (R, L, 2, P) holds the
    steps s and gradient changes y, newest first, ``rho`` (R, L) is 1/(s.y),
    0 on an empty slot.  H_0 = gamma diag(m), gamma = s.y / (y.m.y) from the
    newest pair (1 with none)."""
    q = g.copy()
    alpha = np.zeros(rho.shape)
    for j in range(rho.shape[1]):
        alpha[:, j] = rho[:, j] * np.einsum("rp,rp->r", pairs[:, j, 0], q)
        q -= alpha[:, j, None] * pairs[:, j, 1]
    y = pairs[:, 0, 1]
    ymy = np.einsum("rp,rp->r", y * m, y)
    gamma = np.ones(len(rho))
    has = rho[:, 0] > 0
    gamma[has] = 1.0 / (rho[has, 0] * ymy[has])
    d = gamma[:, None] * m * q
    for j in range(rho.shape[1] - 1, -1, -1):
        beta = rho[:, j] * np.einsum("rp,rp->r", pairs[:, j, 1], d)
        d += (alpha[:, j] - beta)[:, None] * pairs[:, j, 0]
    return d


def _descend(rho_m, p, av, bv, max_iter, rel_tol=1e-10):
    """Descend H(rho, sigma) from R stacked starts p (R, k), av (R, dA, k),
    bv (R, dB, k) in lockstep, along limited-memory BFGS directions (Liu &
    Nocedal, Math. Prog. 45, 503 (1989)).

    A step of length t along d multiplies the weights by exp(-t d) and
    renormalises them, and moves each factor vector by -t d and back onto
    its sphere.  Each restart keeps its own last ``LBFGS_HISTORY`` curvature
    pairs, with the first-order direction of ``_gradient`` as the initial
    inverse Hessian, and its own trial step, iteration count and stop
    reason.  Each round tries one step for every live restart with one
    stacked evaluation.  A step is accepted on sufficient decrease (Armijo,
    1e-4); then the restart advances and takes a new direction, trying
    step 1 (0.5 while it holds no pair, on the first-order direction).  A
    rejected step is cut to the minimiser of a quadratic fit, kept within
    [0.1, 0.5] of it.  A quasi-Newton step cut below 1e-3, or a direction
    that does not descend, gives way to the first-order direction, and the
    restart drops its pairs.  So each
    restart follows the trajectory it would follow alone.  A stopped
    restart leaves the stack.  Returns one (value, (p, av, bv), iterations,
    stop) per restart.
    """
    # Tr rho log rho does not depend on sigma: one eigvalsh per descent
    wr = np.linalg.eigvalsh(rho_m)
    wr = wr[wr > 1e-14]
    neg_entropy = float(np.sum(wr * np.log(wr)))
    val, grad = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p, av, bv))
    running, rel_tol_stop, no_descent, max_iter_stop, zero = range(5)
    names = ("", "rel_tol", "no_descent", "max_iter", "zero")
    n_r, da, k = av.shape
    split = (k, k + 2 * da * k)   # where the packed a and b parts start
    # the working stack, updated in place: the restarts still running, with
    # their original index
    p, av, bv = p.copy(), av.copy(), bv.copy()
    idx, iters = np.arange(n_r), np.zeros(n_r, dtype=int)
    g, m = _gradient(grad, p, av, bv)
    d = m * g
    step, slope = np.full(n_r, 0.5), np.einsum("rp,rp->r", g, d)
    pairs = np.zeros((n_r, LBFGS_HISTORY, 2, g.shape[1]))
    rho_hist = np.zeros((n_r, LBFGS_HISTORY))
    # an infeasible start stops before its first step
    stop = np.where(np.isfinite(val), running, no_descent)
    # each restart's result, written when it stops
    final = [np.empty_like(part) for part in (p, av, bv, val, iters, stop)]
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
            idx, iters, stop, step, slope = idx[keep], iters[keep], stop[keep], step[keep], slope[keep]
            p, av, bv, val, g, m, d = p[keep], av[keep], bv[keep], val[keep], g[keep], m[keep], d[keep]
            pairs, rho_hist = pairs[keep], rho_hist[keep]
            if not idx.size:
                break
        r = len(idx)
        tp, ta, tb = np.split(-step[:, None] * d, split, axis=1)
        # shifted so every factor exp(.) is in (0, 1]
        p2 = p * np.exp(tp - tp.max(axis=-1, keepdims=True))
        p2 /= p2.sum(axis=-1, keepdims=True)
        a2 = av + np.ascontiguousarray(ta).view(complex).reshape(r, da, k)
        b2 = bv + np.ascontiguousarray(tb).view(complex).reshape(r, -1, k)
        a2 /= np.linalg.norm(a2, axis=1, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
        val2, grad2 = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p2, a2, b2))
        drop = val - val2
        ok = np.isfinite(val2) & (drop > 1e-16) & (drop >= 1e-4 * step * slope)
        rel = drop / np.maximum(np.abs(val), 1e-30)
        # the minimiser of the quadratic through val, -slope and val2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fit = 0.5 * step * slope / (slope - drop / step)
        cut = np.fmax(np.fmin(fit, 0.5 * step), 0.1 * step)
        lost = ~ok & (cut < 1e-3) & (rho_hist[:, 0] > 0)
        if ok.any():
            o = np.flatnonzero(ok)
            g2, m2 = _gradient(grad2[o], p2[o], a2[o], b2[o])
            sy_pair = np.stack([-step[o, None] * d[o], g2 - g[o]], axis=1)
            sy, ss, yy = (np.einsum("rp,rp->r", sy_pair[:, i], sy_pair[:, j])
                          for i, j in ((0, 1), (0, 0), (1, 1)))
            # a pair without positive curvature would break H's positivity
            good = sy > 1e-12 * np.sqrt(ss * yy)
            new = o[good]
            pairs[new, 1:] = pairs[new, :-1]
            rho_hist[new, 1:] = rho_hist[new, :-1]
            pairs[new, 0], rho_hist[new, 0] = sy_pair[good], 1.0 / sy[good]
            p[o], av[o], bv[o], val[o], g[o], m[o] = p2[o], a2[o], b2[o], val2[o], g2, m2
            d[o] = _two_loop(g2, m2, pairs[o], rho_hist[o])
            slope[o] = np.einsum("rp,rp->r", g2, d[o])
        # a quasi-Newton step cut below 1e-3, or a new direction that does
        # not descend, gives way (with the restart's pairs) to the
        # first-order direction
        reset = lost | (ok & ~(slope > 0))
        if reset.any():
            pairs[reset], rho_hist[reset] = 0.0, 0.0
            d[reset] = m[reset] * g[reset]
            slope[reset] = np.einsum("rp,rp->r", g[reset], d[reset])
        fresh = ok | reset
        cut[fresh] = np.where(rho_hist[fresh, 0] > 0, 1.0, 0.5)
        step = cut
        iters += ok
        stop[ok & (iters > 11) & (rel < rel_tol)] = rel_tol_stop
        dead = ~ok & (step <= 1e-14)
        stop[dead] = no_descent
        iters += dead
    fp, fa, fb, fv, fi, fs = final
    return [(float(fv[r]), (fp[r], fa[r], fb[r]), int(fi[r]), names[fs[r]]) for r in range(n_r)]


def _er_starts(rho: DensityMatrix, k: int, restarts: int, seed: int) -> tuple:
    """The Schmidt-channel start plus ``restarts - 1`` random mixtures drawn
    from ``random.Random(seed)``, stacked: p (R, k), av (R, dA, k), bv (R, dB, k)."""
    da, db = rho.dimA, rho.dimB
    rng = _rng(seed)
    starts = [_schmidt_channel_init(rho.matrix, da, db, k, rng)]
    for _ in range(restarts - 1):
        p = np.array([rng.random() for _ in range(k)])
        starts.append((p / p.sum(),
                       np.column_stack([_random_unit(da, rng) for _ in range(k)]),
                       np.column_stack([_random_unit(db, rng) for _ in range(k)])))
    return tuple(np.stack(part) for part in zip(*starts))


def relative_entanglement_entropy_upper(
    rho: DensityMatrix,
    restarts: int = 8,
    seed: int = 0,
    max_iter: int = 150,
) -> MeasureResult:
    """Variational upper bound on the relative entanglement entropy.

    Quasi-Newton (L-BFGS) descent over mixtures of pure product states, in
    the log-weights and the unit factor vectors: a step rescales the
    weights by exp(-t d) on the simplex and moves each factor vector along
    its sphere.  The initial inverse Hessian is the unweighted first-order
    direction, so a light component moves as fast as a heavy one and is
    not lost.  ``max_iter`` (150 accepted steps per restart by default)
    bounds each restart.  Every feasible mixture certifies an upper bound.
    The restarts run in lockstep as one stack (one stacked eigh per round
    for all live restarts), and each follows the trajectory it would follow
    alone; the first restart with the lowest value gives the returned value
    and ansatz.  ``meta["stop"]`` says why that restart ended: ``rel_tol``,
    ``no_descent`` (the step fell below 1e-14), ``max_iter`` or ``zero``
    (round-off; E_R >= 0).  ``meta["stagnated"]``: some restart hit
    max_iter.  ``meta["iterations"]`` sums the restarts' iterations.
    """
    if rho.dimB == 1:
        raise MeasureError("E_R needs a bipartite state")
    if rho.dim > 64:
        raise MeasureError("optimizer capped at total dimension 64")
    if restarts < 1 or max_iter < 1:
        raise MeasureError("E_R descent needs at least one restart and one step")
    runs = _descend(rho.matrix, *_er_starts(rho, 2 * rho.dim, restarts, seed), max_iter)
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
    cost = 0.0
    for f, g in dec.pairs:
        fa, fas, norm_f = _abs_parts(f)
        gb, gbs, norm_g = _abs_parts(g)
        term = 0.5 * (np.kron(fas, gbs) + np.kron(fa, gb))
        sigma = term if sigma is None else sigma + term
        cost += norm_f * norm_g
    sigma = 0.5 * (sigma + sigma.conj().T)
    return sigma, cost


def _abs_parts(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(|F|, |F*|, ||F||_1) from one SVD; both PSD with trace the trace norm."""
    u, s, vh = np.linalg.svd(np.asarray(f, dtype=complex))
    absf = (vh.conj().T * s) @ vh
    absfs = (u * s) @ u.conj().T
    return absf, absfs, float(np.sum(s))


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
    dec_b = matrix_unit_decomposition(swap_sides(rho))
    sides = [matrix_unit_decomposition(rho),
             SeparableDecomposition(pairs=[(g, f) for f, g in dec_b.pairs])]
    (sigma, mu), dec = min(((dominating_separable(d), d) for d in sides),
                           key=lambda side: side[0][1])
    dec.check_reconstructs(rho)
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
    u = u[:, : int(np.sum(s > config.RANK_CUT * 0.1 * max(float(s[0]), 1.0)))]
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
    cut = config.FAITHFUL_MIN_EIG
    return bool(wa.min() > cut and wb.min() > cut)


# ---------------------------------------------------------------------------
# Bell correlation (seesaw lower bound)


# value weights of the CHSH form (1/2)[a1 (x) (b1 + b2) + a2 (x) (b1 - b2)]
CHSH = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])


def _sign_observable(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sign(m) of each matrix in a stack, ties toward +1, and
    Tr[m sign(m)] = sum |lambda(m)|."""
    w, v = np.linalg.eigh(m)
    s = np.where(w >= 0.0, 1.0, -1.0)
    return (v * s[..., None, :]) @ v.conj().swapaxes(-1, -2), np.abs(w).sum(axis=-1)


def _dichotomic_seesaw(t: np.ndarray, coef: np.ndarray, starts: np.ndarray, max_iter: int) -> list:
    """Seesaw for the maximum of sum_ij coef_ij Tr[t (a_i (x) b_j)] over
    dichotomic observables a_i on A and b_j on B, with t the (dA, dB, dA, dB)
    tensor of a Hermitian operator.

    A round sets each a_i to the sign of the A-side conditional operator of
    sum_j coef_ij b_j, which is the exact optimum for dichotomic observables,
    then each b_j likewise from sum_i coef_ij a_i.  After the B half-step
    the value is sum_j Tr[M_j b_j] with b_j = sign(M_j), the sum of the
    |eigenvalues| of the B-side conditional operators M_j.  ``starts``
    (R, k_B, dB, dB) holds each start's b_j.  The starts run in lockstep as
    one stack (one stacked eigh per half-step), and each follows the
    trajectory it would follow alone.  A start leaves the stack when a round
    gains less than 1e-10, keeping the larger of its last two values, or
    after ``max_iter`` rounds.  Returns one (value, (a, b), iterations,
    stagnated) per start; stagnated means it ran all ``max_iter`` rounds.
    """
    def conditional(c, ops, spec):
        r, k, d, _ = ops.shape
        m = np.einsum(spec, t, (c @ ops.reshape(r, k, d * d)).reshape(r, -1, d, d))
        return 0.5 * (m + m.conj().swapaxes(-1, -2))

    b = starts
    idx, val = np.arange(len(b)), np.full(len(b), -np.inf)
    runs: list = [None] * len(b)
    for it in range(1, max_iter + 1):
        a = _sign_observable(conditional(coef, b, "abcd,rkdb->rkac"))[0]
        b, norms = _sign_observable(conditional(coef.T, a, "abcd,rkca->rkbd"))
        new = norms.sum(axis=1)
        gained = ~(new - val < 1e-10)
        val = np.where(gained, new, np.maximum(val, new))
        out = ~gained | (it == max_iter)
        for j in np.flatnonzero(out):
            runs[idx[j]] = (float(val[j]), (a[j], b[j]), it, bool(gained[j]))
        idx, val, b = idx[~out], val[~out], b[~out]
        if not idx.size:
            break
    return runs


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

    ``_dichotomic_seesaw`` on rho with the CHSH weights, from ``restarts``
    random pairs (b_1, b_2) drawn from ``random.Random(seed)``; the first start
    with the highest value gives the value and the certificate
    (a_1, a_2, b_1, b_2), which ``bell_functional`` re-checks.  The starts'
    rounds sum to ``meta["iterations"]``; ``meta["stagnated"]`` says some start
    ran all ``seesaw_iters`` rounds without becoming stationary.

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
    if restarts < 1 or seesaw_iters < 1:
        raise MeasureError("seesaw needs at least one start and one round")
    da, db = rho.dimA, rho.dimB
    rng = _rng(seed)
    starts = np.array([[_random_dichotomic(db, rng) for _ in range(2)] for _ in range(restarts)])
    runs = _dichotomic_seesaw(rho.matrix.reshape(da, db, da, db), CHSH, starts, seesaw_iters)
    best, (a, b), _, _ = max(runs, key=lambda run: run[0])
    tsirelson = np.sqrt(2.0)
    if best > tsirelson + 1e-9:
        raise MeasureError(f"seesaw value {best} exceeds the dichotomic-correlation ceiling")
    return MeasureResult(
        "EB", best, LOWER, certificate=(a[0], a[1], b[0], b[1]),
        meta={"iterations": sum(run[2] for run in runs), "seed": seed,
              "stagnated": any(run[3] for run in runs)},
    )


def _random_dichotomic(d: int, rng: random.Random) -> np.ndarray:
    q, _ = np.linalg.qr(_complex_gauss(rng, (d, d)))
    signs = np.array([1.0 if rng.random() < 0.5 else -1.0 for _ in range(d)])
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
        if not gap >= -1e-9:
            raise MeasureError(f"dominating functional fails positivity by {gap:.2e}")
        if not np.log(mu) <= result.value + tol:
            raise MeasureError(
                f"certificate cost log {np.log(mu)} exceeds claimed bound {result.value}"
            )
    elif isinstance(cert, tuple) and len(cert) == 4:
        a1, a2, b1, b2 = cert
        for op in cert:
            w = np.linalg.eigvalsh(op)
            if not (w.min() >= -1.0 - 1e-9 and w.max() <= 1.0 + 1e-9):
                raise MeasureError("certificate observable is not a contraction")
        val = bell_functional(rho, a1, a2, b1, b2)
        if not abs(val - result.value) <= 1e-9:
            raise MeasureError(f"observables re-evaluate to {val}, result claims {result.value}")
    else:
        raise MeasureError(f"unknown certificate type {type(cert)!r}")


@dataclass(frozen=True)
class OrderingReport:
    values: dict
    links: list[dict]   # {"name", "lhs", "rhs", "ok"} per certified link
    results: dict       # measure name -> MeasureResult

    @property
    def ok(self) -> bool:
        return all(link["ok"] for link in self.links)


# measure name -> its evaluation; each looks its function up on this module
# when called, so a wrapper put here (to count or time calls) applies
_EVALUATE = {
    "EI": lambda rho, seed, er_restarts: mutual_information(rho),
    "ER": lambda rho, seed, er_restarts: relative_entanglement_entropy_upper(
        rho, restarts=er_restarts, seed=seed),
    "EN": lambda rho, seed, er_restarts: log_dominance_upper(rho),
    "EM": lambda rho, seed, er_restarts: modular_nuclearity_upper(rho),
    "EB": lambda rho, seed, er_restarts: bell_correlation(rho, seed=seed),
}
MEASURES = tuple(_EVALUATE)


def ordering_audit(
    rho: DensityMatrix,
    names=MEASURES,
    seed: int = 0,
    er_restarts: int = 8,
    slack: float = 1e-8,
) -> OrderingReport:
    """Evaluate the named measures once each, in the order given, and check
    the certified chain inequalities among them.

    ``names`` is drawn from ``MEASURES``; an empty list, an unknown name or a
    seed that is not a non-negative integer raises ``MeasureError`` before
    anything is computed.  ``seed`` goes to E_R and E_B, ``er_restarts`` to
    E_R.  When EN and EM are both named, ``links`` holds the two links
    provable from the certificates, as ``{"name", "lhs", "rhs", "ok"}``
    records: the relative entropy to the normalized dominating functional
    never exceeds the dominance bound, and the matrix-unit dominance bound
    never exceeds the modular bound built from the same matrix units;
    otherwise it is empty.  ``values`` keys an upper bound as
    ``<name>_upper``.  Every result is returned in ``results``, so callers
    need not evaluate a measure again.
    """
    names = tuple(dict.fromkeys(names))
    if not names:
        raise MeasureError("no measure named")
    for name in names:
        if name not in _EVALUATE:
            raise MeasureError(f"unknown measure {name!r}")
    _rng(seed)
    results = {name: _EVALUATE[name](rho, seed, er_restarts) for name in names}
    values = {(f"{name}_upper" if res.kind == UPPER else name): res.value
              for name, res in results.items()}
    links = []
    if "EN" in results and "EM" in results:
        en, em = results["EN"], results["EM"]
        for name, lhs, rhs in (("H(rho, sigma_N/tr) <= EN_upper",
                                en.meta["h_to_normalized_sigma"], en.value),
                               ("EN_upper <= EM_upper", en.value, em.value)):
            links.append({"name": name, "lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs + slack)})
    return OrderingReport(values=values, links=links, results=results)
