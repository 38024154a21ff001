"""Independent reference implementations used only to cross-check results.

Some are second algorithms for a value the package computes (Jacobi
eigensolver, complex Nystrom matrix, Kronecker-product E_M); others are the
modular-theory constructions that only the tests evaluate: the Araki form of
the relative entropy, the Connes cocycle, the KMS condition, the
Powers-Stormer inequality and random CPTP maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entbound.linalg import (
    DensityMatrix,
    check_hermitian,
    eigh,
    matrix_power_psd,
    trace_norm,
)
from entbound.modular import ModularError, _check_same_dim


def jacobi_eigh(h: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Cyclic Jacobi eigensolver for Hermitian matrices.

    Deliberately independent of LAPACK: plane rotations only.  Returns
    eigenvalues ascending and the accumulated unitary.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off < tol * max(np.linalg.norm(a), 1.0):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[q, q] = c
                j[p, q] = s * phase
                j[q, p] = -s * np.conj(phase)
                a = j.conj().T @ a @ j
                v = v @ j
    w = np.diag(a).real
    order = np.argsort(w)
    return w[order], v[:, order]


def jacobi_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values via the Jacobi eigensolver applied to m^† m."""
    w, _ = jacobi_eigh(m.conj().T @ m)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def partial_trace_indexsum(m: np.ndarray, da: int, db: int, keep: str) -> np.ndarray:
    """Partial trace by explicit index loops."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(m[i * db + b, j * db + b] for b in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                out[i, j] = sum(m[a * db + i, a * db + j] for a in range(da))
    return out


def vn_entropy_scalar(p) -> float:
    """Shannon entropy of a probability vector, natural log."""
    import math

    return -sum(x * math.log(x) for x in p if x > 0)


def bell_phi_plus_value(n: int) -> float:
    """Exact maximal Bell correlation of the maximally entangled state phi+_n.

    For phi+_n, <X (x) Y> = Tr(X Y^T)/n, so choosing a1 and a2 optimally
    gives E_B = (||B1 + B2||_1 + ||B1 - B2||_1) / (2n).  The functional is
    affine in each observable, so its supremum over self-adjoint contractions
    is reached at self-adjoint unitaries.  By Jordan's lemma two such
    unitaries split into common invariant blocks of dimension 1 and 2.  A
    2-dim block at angle theta has B1 + B2 with eigenvalues +-2 cos(theta)
    and B1 - B2 with eigenvalues +-2 sin(theta), so it contributes at most
    4 sqrt(2); a 1-dim block contributes at most 2.  Hence

        E_B(phi+_n) = (2 sqrt(2) floor(n/2) + (n mod 2)) / n,

    which is Tsirelson's sqrt(2) for even n and (1 + 2 sqrt(2))/3 at n = 3.
    """
    import math

    return (2.0 * math.sqrt(2.0) * (n // 2) + n % 2) / n


def bell_correlation_functional(rho, seesaw_iters: int = 200, restarts: int = 8, seed: int = 0):
    """The Bell seesaw one start and one observable at a time, with every
    round's value re-evaluated by ``measures.bell_functional`` (a d^2 x d^2
    Kronecker product and matrix product per round); returns (value, total
    iterations)."""
    from entbound.measures import _random_dichotomic, _rng, _sign_observable, bell_functional

    t = rho.matrix.reshape(rho.dimA, rho.dimB, rho.dimA, rho.dimB)

    def conditional(op, on_b):
        m = np.einsum("abcd,db->ac", t, op) if on_b else np.einsum("abcd,ca->bd", t, op)
        return 0.5 * (m + m.conj().T)

    rng = _rng(seed)
    best = -np.inf
    total_iters = 0
    for _ in range(restarts):
        b1 = _random_dichotomic(rho.dimB, rng)
        b2 = _random_dichotomic(rho.dimB, rng)
        val = -np.inf
        for _ in range(seesaw_iters):
            total_iters += 1
            a1 = _sign_observable(conditional(0.5 * (b1 + b2), on_b=True))[0]
            a2 = _sign_observable(conditional(0.5 * (b1 - b2), on_b=True))[0]
            b1 = _sign_observable(conditional(0.5 * (a1 + a2), on_b=False))[0]
            b2 = _sign_observable(conditional(0.5 * (a1 - a2), on_b=False))[0]
            new = bell_functional(rho, a1, a2, b1, b2)
            if new - val < 1e-10:
                val = max(val, new)
                break
            val = new
        best = max(best, val)
    return float(best), total_iters


def _hermitian_contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return h / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-300)


def _connected_correlator(rho, a: np.ndarray, b: np.ndarray) -> float:
    from entbound.linalg import partial_trace

    joint = float(np.trace(rho.matrix @ np.kron(a, b)).real)
    ma = float(np.trace(partial_trace(rho, "A").matrix @ a).real)
    mb = float(np.trace(partial_trace(rho, "B").matrix @ b).real)
    return joint - ma * mb


def correlator_bound_random_trials(rho, trials: int = 64, seed: int = 0) -> float:
    """The correlator lower bound on the mutual information from ``trials``
    random Hermitian contractions, each improved by four seesaw sweeps and
    scored by its connected correlator; ``measures.mutual_info_correlator_bound``,
    which runs each start to stationarity, is never below it."""
    from entbound.bounds import gap_s
    from entbound.linalg import partial_trace
    from entbound.measures import _sign_observable

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
            b = _sign_observable(0.5 * (mb + mb.conj().T))[0]
            ma = np.einsum("abcd,db->ac", t, b) - float(np.trace(rb @ b).real) * ra
            a = _sign_observable(0.5 * (ma + ma.conj().T))[0]
        best = max(best, abs(_connected_correlator(rho, a, b)))
    x = 0.5 * best
    return gap_s(x) if 0.0 < x < 1.0 else 0.0


def s2_eval(s, zeta: complex) -> complex:
    """Product of (sinh z - i sin b_k)/(sinh z + i sin b_k) over the poles."""
    import cmath

    from entbound.integrable import IntegrableError

    sh = cmath.sinh(zeta)
    out = 1.0 + 0.0j
    for b in s.poles:
        den = sh + 1j * math.sin(b)
        if abs(den) < 1e-12:
            raise IntegrableError(f"evaluation point within 1e-12 of the pole b={b}")
        out *= (sh - 1j * math.sin(b)) / den
    return out


def strip_sup_norm_scalar(s, kappa: float) -> float:
    """Supremum of |S_2| on the strip, scanned one grid point at a time.

    The same dense boundary scan and bounded refinement as
    ``integrable.strip_sup_norm``, with every boundary value taken from the
    scalar ``s2_eval`` instead of one array evaluation per boundary line.
    """
    import cmath

    from scipy.optimize import minimize_scalar

    from entbound.integrable import IntegrableError

    best = 1.0
    grid = np.linspace(-25.0, 25.0, 2001)
    for line in (-kappa, math.pi + kappa):
        vals = []
        for th in grid:
            z = th + 1j * line
            sh = cmath.sinh(z)
            if any(abs(sh + 1j * math.sin(b)) < 1e-10 for b in s.poles):
                raise IntegrableError("pole on the strip boundary")
            vals.append(abs(s2_eval(s, z)))
        vals = np.array(vals)
        k = int(np.argmax(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(
            lambda th: -abs(s2_eval(s, th + 1j * line)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        best = max(best, float(-res.fun), float(vals[k]))
    return best


# ---------------------------------------------------------------------------
# quasi-free Weyl correlators of the lattice ground state, one form at a time


def _kappa_map(state, f: np.ndarray) -> np.ndarray:
    """One-particle vector C^{1/4} p - i C^{-1/4} q of initial data (q, p)."""
    n = state.geometry.sites
    q, p = f[:n], f[n:]
    return state.c_power(0.25) @ p - 1j * (state.c_power(-0.25) @ q)


def symplectic_form(state, f: np.ndarray, g: np.ndarray) -> float:
    n = state.geometry.sites
    a = state.geometry.spacing
    return float(a * (f[:n] @ g[n:] - g[:n] @ f[n:]))


def covariance_form(state, f: np.ndarray, g: np.ndarray) -> float:
    a = state.geometry.spacing
    return float(0.5 * a * np.vdot(_kappa_map(state, f), _kappa_map(state, g)).real)


def weyl_expectation(state, f: np.ndarray) -> complex:
    return complex(np.exp(-0.5 * covariance_form(state, f, f)))


def weyl_two_point(state, f: np.ndarray, g: np.ndarray) -> complex:
    """Expectation of the product of two Weyl operators in the ground state."""
    n = state.geometry.sites
    if len(f) != 2 * n or len(g) != 2 * n:
        from entbound.gaussian import GaussianError

        raise GaussianError("initial data vectors must have length 2 * sites")
    fg = f + g
    return complex(
        np.exp(-0.5j * symplectic_form(state, f, g) - 0.5 * covariance_form(state, fg, fg))
    )


def region_data_map(state, indices) -> np.ndarray:
    """Real 2n x 2|V| matrix mapping region initial data to stacked one-
    particle vectors (Re kappa; Im kappa), built one unit vector at a time."""
    n = state.geometry.sites
    idx = np.array(sorted(indices))
    cols = []
    for offset in (0, n):  # q data, then p data
        for pos in idx:
            e = np.zeros(2 * n)
            e[pos + offset] = 1.0
            k = _kappa_map(state, e)
            cols.append(np.concatenate([k.real, k.imag]))
    return np.column_stack(cols)


def kg_upper_bound_projectors(state, regions) -> float:
    """Upper bound -4 sum log(1 - sqrt(s_k)) from n x n projectors.

    For each sign pairing, s_k are all n singular values of (1 - Q_{B'-/+})
    Q_{A+/-}, with Q = U U^T from ``gaussian.region_projectors`` and B' the
    complement of B; round-off singular values are summed too.
    """
    from entbound.gaussian import GaussianError, region_projectors

    n = state.geometry.sites
    bprime = sorted(set(range(n)) - set(regions.indices_b))
    qa_plus, qa_minus = (u @ u.T for u in region_projectors(state, regions.indices_a))
    qb_plus, qb_minus = (u @ u.T for u in region_projectors(state, bprime))
    total = 0.0
    for qa, qb in ((qa_plus, qb_minus), (qa_minus, qb_plus)):
        s = np.linalg.svd((np.eye(n) - qb) @ qa, compute_uv=False)
        if s.size and s[0] >= 1.0 - 1e-9:
            raise GaussianError("regions too close for lattice resolution (overlap saturates)")
        total += -4.0 * float(np.sum(np.log1p(-np.sqrt(np.clip(s, 0.0, None)))))
    return total


def _region_qr(state, idx: np.ndarray):
    """QR factors of the q- and p-column blocks of the region data map.

    Region data (q, p) maps to the stacked one-particle vector (Re kappa;
    Im kappa) through [[0, C^{1/4}[:, idx]], [-C^{-1/4}[:, idx], 0]], so the
    map's QR is the two n x m QRs of -C^{-1/4}[:, idx] and C^{1/4}[:, idx].
    """
    qq, rq = np.linalg.qr(-state.c_power(-0.25)[:, idx])
    qp, rp = np.linalg.qr(state.c_power(0.25)[:, idx])
    return (qq, qp), (rq, rp)


def principal_gram(state, regions):
    """Plain Gram matrix blockdiag(Qq_A^T Qq_B, Qp_A^T Qp_B) between the two
    regions' one-particle subspaces, with both regions' R factors.  Its
    singular values are the principal cosines of both sectors."""
    (qqa, qpa), ra = _region_qr(state, np.array(regions.indices_a))
    (qqb, qpb), rb = _region_qr(state, np.array(regions.indices_b))
    ma, mb = qqa.shape[1], qqb.shape[1]
    gram = np.zeros((2 * ma, 2 * mb))
    gram[:ma, :mb] = qqa.T @ qqb
    gram[ma:, mb:] = qpa.T @ qpb
    return gram, ra, rb


def principal_candidates(state, regions) -> tuple[np.ndarray, np.ndarray]:
    """Data pairs aligned with the two top principal angles, from the Gram
    matrix of ``principal_gram`` and one stacked SVD.

    Returned as coefficient columns in region coordinates (q on the region's
    sites, then p): a 2|A| x 2 array for region A and a 2|B| x 2 array for
    region B, column k of each forming one pair.
    """
    gram, ra, rb = principal_gram(state, regions)
    u, _, vh = np.linalg.svd(gram, full_matrices=False)
    ua, vb = u[:, :2], vh[:2, :].T

    def solve(r, rhs):  # minimum-norm, so a rank-deficient region does not raise
        return np.vstack([np.linalg.lstsq(rk, hk, rcond=None)[0] for rk, hk in zip(r, np.split(rhs, 2))])

    return solve(ra, ua), solve(rb, vb)


def principal_candidates_loop(state, regions) -> list:
    """Principal-angle data pairs (f, g) as full 2n initial-data vectors.

    Full QRs of the region data maps, a dense 2n x 2n rotation J and one
    least-squares solve per principal vector.
    """
    n = state.geometry.sites

    def embed(indices, coef):
        idx = np.array(sorted(indices))
        v = np.zeros(2 * n)
        v[idx] = coef[: len(idx)]
        v[idx + n] = coef[len(idx):]
        return v

    qa, ra = np.linalg.qr(region_data_map(state, regions.indices_a))
    qb, rb = np.linalg.qr(region_data_map(state, regions.indices_b))
    j_rot = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    out = []
    for qa_eff in (qa, j_rot @ qa):
        u, s, vh = np.linalg.svd(qa_eff.T @ qb)
        for k in range(min(2, len(s))):
            fa = np.linalg.lstsq(ra, u[:, k], rcond=None)[0]
            gb = np.linalg.lstsq(rb, vh[k, :], rcond=None)[0]
            out.append((embed(regions.indices_a, fa), embed(regions.indices_b, gb)))
    return out


def correlator_lower_bound_loop(state, regions, trials: int = 256, seed: int = 0) -> float:
    """Weyl-correlator lower bound evaluated one candidate and one amplitude
    at a time.

    The pairs of ``principal_candidates_loop``, then random trials drawn one
    region block at a time, each tried as (f, g) over a six-amplitude grid.
    Each connected correlator is formed from ``weyl_two_point`` and
    ``weyl_expectation`` and fed to the gap table as a scalar.  Every value
    is a valid lower bound; ``gaussian.correlator_lower_bound`` dominates it.
    """
    import math

    from entbound.bounds import gap_table

    n = state.geometry.sites
    candidates = principal_candidates_loop(state, regions)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = np.zeros(2 * n)
        g = np.zeros(2 * n)
        for idx, vec in ((regions.indices_a, f), (regions.indices_b, g)):
            idx = np.array(idx)
            vec[idx] = rng.standard_normal(len(idx))
            vec[idx + n] = rng.standard_normal(len(idx))
        candidates.append((f, g))
    table = gap_table()
    best = 0.0
    for f, g in candidates:
        nf = math.sqrt(max(covariance_form(state, f, f), 1e-300))
        ng = math.sqrt(max(covariance_form(state, g, g), 1e-300))
        for t in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
            fs, gs = f * (t / nf), g * (t / ng)
            corr = weyl_two_point(state, fs, gs) - weyl_expectation(state, fs) * weyl_expectation(state, gs)
            x = 0.5 * abs(corr)
            if 0.0 < x < 1.0:
                best = max(best, float(table(x)))
    return best


def legendre_grid(theta_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on [-theta_max, theta_max]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x * theta_max, w * theta_max


def t_kernel_matrix_complex(kappa: float, s: float, n: int, theta_max: float):
    """Weighted Nystrom matrix of the half-smeared Cauchy kernel."""
    import math

    from entbound.integrable import IntegrableError

    if kappa == 0 or s <= 0:
        raise IntegrableError("need kappa != 0 and s > 0")
    th, w = legendre_grid(theta_max, n)
    sw = np.sqrt(w)
    damp = np.exp(-0.5 * s * np.cosh(th))
    denom = th[None, :] - th[:, None] + 0.5j * kappa
    kern = -np.sign(kappa) * damp[:, None] / (2.0j * math.pi * denom)
    return sw[:, None] * kern * sw[None, :]


def t_kernel_trace_norm_fixed(kappa: float, s: float, n: int = 96) -> float:
    """T-kernel trace norm from exactly two grids, without the node ladder.

    Two SVDs, at n nodes and at 2n on [-theta_cutoff(s), theta_cutoff(s)],
    with the 0.5% gate on that pair; returns the value on the doubled grid.
    """
    from entbound.integrable import IntegrableError, t_kernel_matrix, theta_cutoff

    theta_max = theta_cutoff(s)
    val = float(np.sum(np.linalg.svd(t_kernel_matrix(kappa, s, n, theta_max), compute_uv=False)))
    val2 = float(np.sum(np.linalg.svd(t_kernel_matrix(kappa, s, 2 * n, theta_max), compute_uv=False)))
    if abs(val2 - val) > 0.005 * max(abs(val2), 1e-300):
        raise IntegrableError(
            f"discretization not converged ({val} vs {val2}); increase nodes or theta_max"
        )
    return val2


def dirac_halfline_bound_fixed(m: float, eps: float, circle_radius: float) -> float:
    """Corridor sum over the circle modes with one fixed 96-node SVD per mode.

    The modes (j + 1/2)/circle_radius are summed in ascending order, one
    unstacked SVD each, up to the first contribution below 1e-14 of the
    running total (or of 1); no node ladder and no atol.
    """
    import itertools
    import math

    from entbound.integrable import t_kernel_matrix, theta_cutoff

    total = 0.0
    for j in itertools.count():
        lam = (j + 0.5) / circle_radius
        s = 2.0 * math.sqrt(m * m + lam * lam) * eps
        sv = np.linalg.svd(t_kernel_matrix(math.pi, s, 96, theta_cutoff(s)), compute_uv=False)
        contrib = 4.0 * float(np.sum(sv))
        total += contrib
        if contrib < 1e-14 * max(total, 1.0):
            return total


def _span_projector(cols, cut):
    """Orthogonal projector onto the span of the columns kept by the rank cut."""
    q, s, _ = np.linalg.svd(cols, full_matrices=False)
    r = int(np.sum(s > cut * max(float(s[0]), 1.0)))
    q = q[:, :r]
    return q @ q.conj().T


def vacuum_series_partial_sum(s_matrix, mr, kappa, delta, n_terms, chunk=1_000_000):
    """1 + sum_{n=1}^{n_terms} max(q^n, K (q c)^n) of the vacuum bound, summed
    in log space in numpy chunks; a lower bound on the full series."""
    from entbound.integrable import bessel_k0, strip_sup_norm

    c = math.sqrt(strip_sup_norm(s_matrix, kappa))
    log_q = math.log(4.0 * math.e * c / (kappa * math.pi) * bessel_k0((1.0 - delta) * mr))
    log_k = 0.5 * math.log(bessel_k0(mr * delta * math.sin(kappa)))
    parts = [1.0]
    for start in range(1, n_terms + 1, chunk):
        n = np.arange(start, min(start + chunk, n_terms + 1), dtype=float)
        parts.append(float(np.sum(np.exp(np.maximum(n * log_q, n * (log_q + math.log(c)) + log_k)))))
    return math.fsum(parts)


def vacuum_series_exact(s_matrix, mr, kappa, delta, dps: int = 40):
    """1 + sum_{n>=1} max(q^n, K r^n) in closed form at ``dps`` digits, for the
    float ratios q and r = fl(q c) and the factor K that
    ``integrable.vacuum_bound`` forms (the same expressions, so the same
    floats).  r >= q, so the K term wins from one index n0 on and the series
    is two geometric sums.  Returns (value, r)."""
    import mpmath

    from entbound.integrable import bessel_k0, strip_sup_norm

    c = math.sqrt(strip_sup_norm(s_matrix, kappa))
    q1 = (4.0 * math.e * c / (kappa * math.pi)) * bessel_k0((1.0 - delta) * mr)
    kf = math.sqrt(bessel_k0(mr * delta * math.sin(kappa)))
    qc = q1 * c
    with mpmath.workdps(dps):
        q, r, k = mpmath.mpf(q1), mpmath.mpf(qc), mpmath.mpf(kf)
        n0 = 1 if k >= 1 or r == q else max(1, int(mpmath.ceil(-mpmath.log(k) / mpmath.log(r / q))))
        value = 1 + q * (1 - q ** (n0 - 1)) / (1 - q) + k * r**n0 / (1 - r)
        return value, qc


def modular_nuclearity_kron(rho):
    """(nu_A, nu_B) of the modular nuclearity bound from dense Kronecker operators.

    Every matrix unit is embedded in the doubled GNS space as a dense
    operator (matrix unit tensor identities) and applied to the standard
    vector, both for the Tomita solve and for the nu sum.
    """
    from entbound import config
    from entbound.linalg import partial_trace

    def _matrix_unit(d, i, j):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    def _modular_quarter(omega, alg_dim, com_dim, alg_first, spectral_cut=1e-13):
        if alg_first:
            mk_alg = lambda x: np.kron(x, np.eye(com_dim))
            mk_com = lambda y: np.kron(np.eye(alg_dim), y)
        else:
            mk_alg = lambda x: np.kron(np.eye(com_dim), x)
            mk_com = lambda y: np.kron(y, np.eye(alg_dim))
        com_cols = np.column_stack([
            mk_com(_matrix_unit(com_dim, i, j)) @ omega for i in range(com_dim) for j in range(com_dim)
        ])
        q = _span_projector(com_cols, config.RANK_CUT * 0.1)
        u_cols, w_cols = [], []
        for i in range(alg_dim):
            for j in range(alg_dim):
                x = mk_alg(_matrix_unit(alg_dim, i, j))
                u_cols.append(x @ omega)
                w_cols.append(q @ (x.conj().T @ omega))
        u = np.column_stack(u_cols)
        w = np.column_stack(w_cols)
        a = w @ np.linalg.pinv(u.conj(), rcond=1e-12)
        delta = a.T @ a.conj()
        delta = 0.5 * (delta + delta.conj().T)
        wd, vd = np.linalg.eigh(delta)
        wd = np.where(wd > spectral_cut * max(float(wd.max()), 1e-300), np.clip(wd, 0.0, None), 0.0)
        return (vd * wd**0.25) @ vd.conj().T

    da, db = rho.dimA, rho.dimB
    sq = matrix_power_psd(rho.matrix, 0.5)
    omega = sq.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(-1)
    nus = {}
    for side in ("A", "B"):
        if side == "A":
            d14 = _modular_quarter(omega, da * da, db * db, alg_first=True)
            _, vr = eigh(partial_trace(rho, "A").matrix)
            ops = [
                np.kron(np.kron(np.outer(vr[:, i], vr[:, j].conj()), np.eye(da)), np.eye(db * db))
                for i in range(da) for j in range(da)
            ]
        else:
            d14 = _modular_quarter(omega, db * db, da * da, alg_first=False)
            _, vr = eigh(partial_trace(rho, "B").matrix)
            ops = [
                np.kron(np.eye(da * da), np.kron(np.outer(vr[:, i], vr[:, j].conj()), np.eye(db)))
                for i in range(db) for j in range(db)
            ]
        nus[side] = float(sum(np.linalg.norm(d14 @ (op @ omega)) for op in ops))
    return nus["A"], nus["B"]


def modular_nuclearity_omega_matrix(rho):
    """(nu_A, nu_B) of the modular nuclearity bound with Delta^{1/4} formed densely.

    Omega is held as the (algebra x commutant) matrix m and every orbit map
    is built as an einsum over m, but the Tomita solve, Delta and its fourth
    root are operators on the doubled space (d^4 x d^4): a span SVD of the
    commutant orbit, a pinv of the algebra orbit and one eigh of Delta.
    """
    from entbound import config
    from entbound.linalg import partial_trace

    def _modular_quarter(m, spectral_cut=1e-13):
        n_alg, n_com = m.shape
        eye_a, eye_c = np.eye(n_alg), np.eye(n_com)
        com_cols = np.einsum("ci,aj->acij", eye_c, m).reshape(m.size, n_com * n_com)
        q = _span_projector(com_cols, config.RANK_CUT * 0.1)
        u = np.einsum("ai,jc->acij", eye_a, m).reshape(m.size, n_alg * n_alg)
        w = q @ np.einsum("aj,ic->acij", eye_a, m).reshape(m.size, n_alg * n_alg)
        a = w @ np.linalg.pinv(u.conj(), rcond=1e-12)
        delta = a.T @ a.conj()
        delta = 0.5 * (delta + delta.conj().T)
        wd, vd = np.linalg.eigh(delta)
        wd = np.where(wd > spectral_cut * max(float(wd.max()), 1e-300), np.clip(wd, 0.0, None), 0.0)
        return (vd * wd**0.25) @ vd.conj().T

    da, db = rho.dimA, rho.dimB
    sq = matrix_power_psd(rho.matrix, 0.5)
    m_ab = sq.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    nus = {}
    for side, d, m in (("A", da, m_ab), ("B", db, m_ab.T)):
        d14 = _modular_quarter(m)
        _, vr = eigh(partial_trace(rho, side).matrix)
        t = np.einsum("yj,yzk->jzk", vr.conj(), m.reshape(d, d, -1))
        cols = np.einsum("yi,jzk->yzkij", vr, t).reshape(m.size, d * d)
        nus[side] = float(np.linalg.norm(d14 @ cols, axis=0).sum())
    return nus["A"], nus["B"]


def ansatz_matrix_sequential(p: np.ndarray, av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """One mixture of product states: (n, n) from p (k,), av (dA, k), bv (dB, k)."""
    da, k = av.shape
    db = bv.shape[0]
    cols = (av[:, None, :] * bv[None, :, :]).reshape(da * db, k)
    return (cols * p) @ cols.conj().T


def rel_ent_and_grad_sequential(
    rho_m: np.ndarray, neg_entropy: float, sigma: np.ndarray
) -> tuple[float, np.ndarray | None]:
    """H(rho, sigma) plus the gradient of -Tr rho log sigma in sigma, for
    one sigma (the unstacked form of ``entbound.measures._rel_ent_and_grad``).

    ``neg_entropy`` is Tr rho log rho over the eigenvalues above 1e-14.
    """
    cut = 1e-14
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    w = np.clip(w, 0.0, None)
    rt = v.conj().T @ rho_m @ v
    pos = w > cut
    if (~pos).any() and float(np.trace(rt[np.ix_(~pos, ~pos)]).real) > 1e-12:
        return float("inf"), None
    h = neg_entropy - float(np.sum(np.diag(rt).real[pos] * np.log(w[pos])))
    lw = np.where(pos, np.log(np.where(pos, w, 1.0)), 0.0)
    num = lw[:, None] - lw[None, :]
    den = w[:, None] - w[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(np.abs(den) > 1e-12, num / den,
                       1.0 / np.where(w[:, None] > cut, w[:, None], np.inf))
    phi = np.where(pos[:, None] & pos[None, :], phi, 0.0)
    g = -(v @ (phi * rt) @ v.conj().T)
    return h, 0.5 * (g + g.conj().T)


def descend_sequential(rho_m, da, db, p, av, bv, max_iter, rel_tol=1e-10, history=8):
    """Descend H(rho, sigma) from one start (p, av, bv) along L-BFGS
    directions with ``history`` curvature pairs: (value, mixture,
    iterations, stop).

    The one-restart-at-a-time form of ``entbound.measures._descend``, which
    runs every restart in lockstep and must follow the same trajectories.
    The coordinates are the log-weights and the real and imaginary parts of
    the unit factor vectors; the initial inverse Hessian is the diagonal
    that turns the gradient into the unweighted first-order direction.
    """

    def gradient(grad):
        cols = (av[:, None, :] * bv[None, :, :]).reshape(da * db, -1)
        gv = grad @ cols
        gp = np.einsum("ik,ik->k", cols.conj(), gv).real
        gm = gv.reshape(da, db, -1)
        ga = np.einsum("abk,bk->ak", gm, bv.conj())
        gb = np.einsum("abk,ak->bk", gm, av.conj())
        ga -= av * np.einsum("ak,ak->k", av.conj(), ga).real
        gb -= bv * np.einsum("bk,bk->k", bv.conj(), gb).real
        g = np.concatenate([p * (gp - np.sum(p * gp)), (2 * p * ga).ravel().view(float),
                            (2 * p * gb).ravel().view(float)])
        inv = 1.0 / np.maximum(p, 1e-300)
        return g, np.concatenate([inv, np.tile(np.repeat(0.5 * inv, 2), da + db)])

    def dot(x, y):
        # the reduction the stacked descent uses, so the two agree bit for bit
        return np.einsum("p,p->", x, y)

    def two_loop(g, m):
        # pairs newest first, each (s, y, 1 / s.y)
        q, alphas = g.copy(), []
        for s, y, r in pairs:
            alphas.append(r * dot(s, q))
            q -= alphas[-1] * y
        gamma = 1.0 / (pairs[0][2] * dot(pairs[0][1] * m, pairs[0][1])) if pairs else 1.0
        d = gamma * m * q
        for (s, y, r), a in reversed(list(zip(pairs, alphas))):
            d += (a - r * dot(y, d)) * s
        return d

    k = len(p)
    # Tr rho log rho does not depend on sigma: one eigvalsh per descent
    wr = np.linalg.eigvalsh(rho_m)
    wr = wr[wr > 1e-14]
    neg_entropy = float(np.sum(wr * np.log(wr)))
    val, grad = rel_ent_and_grad_sequential(rho_m, neg_entropy, ansatz_matrix_sequential(p, av, bv))
    if not np.isfinite(val):
        return float("inf"), (p, av, bv), 0, "no_descent"
    g, m = gradient(grad)
    d, step, pairs = m * g, 0.5, []
    slope = dot(g, d)
    it = 0
    while it < max_iter:
        if val <= 1e-14:
            return val, (p, av, bv), it, "zero"
        e = -step * d[:k]
        p2 = p * np.exp(e - e.max())
        p2 /= p2.sum()
        a2 = av - step * d[k:k + 2 * da * k].copy().view(complex).reshape(da, k)
        b2 = bv - step * d[k + 2 * da * k:].copy().view(complex).reshape(db, k)
        a2 /= np.linalg.norm(a2, axis=0, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=0, keepdims=True)
        val2, grad2 = rel_ent_and_grad_sequential(rho_m, neg_entropy, ansatz_matrix_sequential(p2, a2, b2))
        drop = val - val2
        if not (np.isfinite(val2) and drop > 1e-16 and drop >= 1e-4 * step * slope):
            # the minimiser of the quadratic through val, -slope and val2,
            # kept within [0.1, 0.5] of the step
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                fit = 0.5 * step * slope / (slope - drop / step)
            step = float(np.fmax(np.fmin(fit, 0.5 * step), 0.1 * step))
            if pairs and step < 1e-3:
                # the quasi-Newton direction failed: the first-order one instead
                pairs, d, step = [], m * g, 0.5
                slope = dot(g, d)
            if step <= 1e-14:
                return val, (p, av, bv), it + 1, "no_descent"
            continue
        rel = drop / max(abs(val), 1e-30)
        p, av, bv, val = p2, a2, b2, val2
        g2, m = gradient(grad2)
        s, y = -step * d, g2 - g
        sy = dot(s, y)
        if sy > 1e-12 * np.sqrt(dot(s, s) * dot(y, y)):
            pairs = [(s, y, 1.0 / sy)] + pairs[:history - 1]
        g = g2
        d = two_loop(g, m)
        slope = dot(g, d)
        if not slope > 0:
            pairs, d = [], m * g
            slope = dot(g, d)
        step = 1.0 if pairs else 0.5
        it += 1
        if it > 11 and rel < rel_tol:
            return val, (p, av, bv), it, "rel_tol"
    return val, (p, av, bv), max_iter, "max_iter"


def _first_order_direction(grad, p, av, bv):
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


def descend_first_order(rho_m, p, av, bv, max_iter, rel_tol=1e-10):
    """The first-order E_R descent ``entbound.measures._descend`` used before
    its quasi-Newton directions, kept as the bar the new one must beat.

    Descends H(rho, sigma) from R stacked starts p (R, k), av (R, dA, k),
    bv (R, dB, k) in lockstep: each factor vector moves on its unit sphere
    along its unweighted tangent gradient, and the weights take entropic
    steps p exp(-step g).  Each round tries one step for every live
    restart; on acceptance a restart grows its step by 1.3 and takes a new
    direction, on rejection it halves its step.  Returns one (value, (p,
    av, bv), iterations, stop) per restart.
    """
    from entbound.measures import _ansatz_matrix, _rel_ent_and_grad

    wr = np.linalg.eigvalsh(rho_m)
    wr = wr[wr > 1e-14]
    neg_entropy = float(np.sum(wr * np.log(wr)))
    val, grad = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p, av, bv))
    running, rel_tol_stop, no_descent, max_iter_stop, zero = range(5)
    names = ("", "rel_tol", "no_descent", "max_iter", "zero")
    n_r = len(p)
    p, av, bv = p.copy(), av.copy(), bv.copy()
    idx, step, iters = np.arange(n_r), np.full(n_r, 0.5), np.zeros(n_r, dtype=int)
    stop = np.where(np.isfinite(val), running, no_descent)
    fresh = stop == running
    final = [np.empty_like(part) for part in (p, av, bv, val, iters, stop)]
    gp, ga, gb = np.zeros_like(p), np.zeros_like(av), np.zeros_like(bv)
    while True:
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
        if fresh.any():
            gp[fresh], ga[fresh], gb[fresh] = _first_order_direction(
                grad[fresh], p[fresh], av[fresh], bv[fresh])
        p2 = p * np.exp(-step[:, None] * gp)
        p2 /= p2.sum(axis=-1, keepdims=True)
        a2 = av - step[:, None, None] * ga
        b2 = bv - step[:, None, None] * gb
        a2 = a2 / np.linalg.norm(a2, axis=1, keepdims=True)
        b2 = b2 / np.linalg.norm(b2, axis=1, keepdims=True)
        val2, grad2 = _rel_ent_and_grad(rho_m, neg_entropy, _ansatz_matrix(p2, a2, b2))
        ok = np.isfinite(val2) & (val2 < val - 1e-16)
        rel = (val - val2) / np.maximum(np.abs(val), 1e-30)
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


def descend_weighted(rho_m, da, db, p, av, bv, max_iter, rel_tol=1e-10):
    """E_R descent along the weighted Euclidean gradient, weights projected
    onto the simplex; returns (value, (p, av, bv), iterations).

    Each factor-vector gradient carries its component's weight, so a
    low-weight component barely moves.  The line search and stop test are
    those of ``descend_first_order``.
    """

    def _project_simplex(p):
        u = np.sort(p)[::-1]
        css = np.cumsum(u) - 1.0
        idx = np.arange(1, len(p) + 1)
        cond = u - css / idx > 0
        r = idx[cond][-1]
        return np.clip(p - css[cond][-1] / r, 0.0, None)

    wr = np.linalg.eigvalsh(rho_m)
    wr = wr[wr > 1e-14]
    neg_entropy = float(np.sum(wr * np.log(wr)))
    val, grad = rel_ent_and_grad_sequential(rho_m, neg_entropy, ansatz_matrix_sequential(p, av, bv))
    if not np.isfinite(val):
        k = len(p)
        p = 0.9 * p + 0.1 / k
        val, grad = rel_ent_and_grad_sequential(rho_m, neg_entropy, ansatz_matrix_sequential(p, av, bv))
        if not np.isfinite(val):
            return float("inf"), (p, av, bv), 0
    step = 0.5
    iters = 0
    for it in range(max_iter):
        iters = it + 1
        cols = (av[:, None, :] * bv[None, :, :]).reshape(da * db, -1)
        gv = grad @ cols
        gp = np.einsum("ik,ik->k", cols.conj(), gv).real
        gm = gv.reshape(da, db, -1)
        ga = p * np.einsum("abk,bk->ak", gm, bv.conj())
        gb = p * np.einsum("abk,ak->bk", gm, av.conj())
        improved = False
        rel = 0.0
        while step > 1e-14:
            p2 = _project_simplex(p - step * gp)
            a2 = av - step * ga
            b2 = bv - step * gb
            a2 = a2 / np.linalg.norm(a2, axis=0, keepdims=True)
            b2 = b2 / np.linalg.norm(b2, axis=0, keepdims=True)
            val2, grad2 = rel_ent_and_grad_sequential(rho_m, neg_entropy, ansatz_matrix_sequential(p2, a2, b2))
            if np.isfinite(val2) and val2 < val - 1e-16:
                rel = (val - val2) / max(abs(val), 1e-30)
                p, av, bv, val, grad = p2, a2, b2, val2, grad2
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved or (it > 10 and rel < rel_tol):
            break
    return val, (p, av, bv), iters


def gap_s_scalar(x: float) -> float:
    """Gap function s(x) of one float by a bounded scalar minimisation.

    Bracketed golden section over q in (0, 1-x) polished by safeguarded
    Newton steps, on the objective p log(p/q) + (1-p)(log1p(-p) - log1p(-q)).
    That form cancels at small x (2e-5 relative at x = 1e-6), and the upper
    bracket (1-x)(1 - 1e-12) cuts off the minimiser for x above about 0.97,
    where this value sits up to 2.4e-9 relative above s.
    """
    import math

    from scipy.optimize import minimize_scalar

    from entbound.bounds import BoundsError

    def _binary_relent(p: float, q: float) -> float:
        return p * (math.log(p) - math.log(q)) + (1.0 - p) * (math.log1p(-p) - math.log1p(-q))

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


def gap_s_mp(x: float, dps: int = 40):
    """Gap function s(x) in mpmath at ``dps`` digits, as an mpf.

    The minimiser is parametrised by u = log(1-p), with q = (1-x) - (1-p):
    as x -> 1 the optimal 1 - p falls like exp(-1/(1-x)), far below what a
    double (or q itself at 40 digits) resolves.  The q-derivative of D(q+x||q),
    log1p(a) - a - log((1-p)/(1-q)) - b with a = x/q, b = x/(1-q), falls as u
    rises, and plain bisection on its sign brackets the root to 2^-200 of the
    starting width.
    """
    import mpmath as mp

    with mp.workdps(dps):
        x = mp.mpf(x)
        top = 1 - x

        def slope(u):
            q = top - mp.exp(u)
            a, b = x / q, x / (1 - q)
            return mp.log1p(a) - a - (u - mp.log1p(-q)) - b

        lo, hi = -(10 + 2 / top), mp.log(top) - mp.mpf(10) ** (-dps)
        for _ in range(200):
            mid = (lo + hi) / 2
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        u = (lo + hi) / 2
        r = mp.exp(u)
        q, p = top - r, 1 - r
        return p * mp.log(p / q) + r * (u - mp.log1p(-q))


def entropy_gap_check(rho, rho2):
    """H(rho, rho2) against s of half the trace distance."""
    import math

    from entbound.bounds import gap_s
    from entbound.modular import relative_entropy

    h = relative_entropy(rho, rho2)
    x = 0.5 * trace_norm(rho.matrix - rho2.matrix)
    s = gap_s(x) if 0.0 < x < 1.0 else (0.0 if x <= 0.0 else float("inf"))
    if not math.isfinite(h):
        return h, s, True
    return h, s, bool(h >= s - 1e-8)


def fidelity_lower_bound_check(rho, rho2):
    """H(rho, rho2) against s(1 - <cone rep | cone rep>)."""
    import math

    from entbound.bounds import gap_s
    from entbound.modular import relative_entropy

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


@dataclass(frozen=True)
class AKernel:
    """Discretized positive kernel A = T_+ T_+^* + T_- T_-^*."""

    kappa: float
    s: float
    theta_max: float
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def a_kernel_value(kappa: float, s: float, theta: float, theta2: float) -> float:
    return (
        abs(kappa)
        / math.pi
        * math.exp(-0.5 * s * math.cosh(theta))
        * math.exp(-0.5 * s * math.cosh(theta2))
        / ((theta - theta2) ** 2 + kappa**2)
    )


def a_kernel(kappa: float, s: float, n: int = 96) -> AKernel:
    """Weighted Nystrom matrix of the positive smeared-Cauchy kernel on the
    n-node Legendre rule over [-theta_cutoff(s), theta_cutoff(s)]."""
    from entbound.integrable import IntegrableError, theta_cutoff

    if kappa == 0 or s <= 0:
        raise IntegrableError("need kappa != 0 and s > 0")
    theta_max = theta_cutoff(s)
    th, w = legendre_grid(theta_max, n)
    sw = np.sqrt(w)
    damp = np.exp(-0.5 * s * np.cosh(th))
    kern = (abs(kappa) / math.pi) * damp[:, None] * damp[None, :] / (
        (th[:, None] - th[None, :]) ** 2 + kappa**2
    )
    return AKernel(kappa=kappa, s=s, theta_max=theta_max, matrix=sw[:, None] * kern * sw[None, :])


def _elementary_symmetric(eigs: np.ndarray, n: int) -> float:
    e = np.zeros(n + 1)
    e[0] = 1.0
    for lam in eigs:
        upper = min(n, len(e) - 1)
        for k in range(upper, 0, -1):
            e[k] += lam * e[k - 1]
    return float(e[n])


def wedge_trace(ak: AKernel, n: int) -> tuple[float, float]:
    """Trace of the n-th antisymmetric power, computed two ways.

    (i) the elementary symmetric polynomial of the Nystrom eigenvalues,
    (ii) the n-fold quadrature of the determinant integral on an independent
    trapezoid grid.  The two must agree within one percent.
    """
    from entbound.integrable import IntegrableError

    if not 1 <= n <= 6:
        raise IntegrableError("antisymmetric power capped at n = 6")
    eigs = np.clip(ak.eigenvalues(), 0.0, None)
    primary = _elementary_symmetric(eigs, n)

    theta_max = ak.theta_max
    m = 201
    th = np.linspace(-theta_max, theta_max, m)
    h = th[1] - th[0]
    if n <= 3:
        a = np.array([[a_kernel_value(ak.kappa, ak.s, x, y) for y in th] for x in th])
        if n == 1:
            alt = h * float(np.trace(a))
        elif n == 2:
            alt = 0.5 * h**2 * float(np.trace(a) ** 2 - np.sum(a * a.T))
        else:
            t1 = h * float(np.trace(a))
            t2 = h**2 * float(np.sum(a * a.T))
            t3 = h**3 * float(np.trace(a @ a @ a))
            alt = (t1**3 - 3.0 * t1 * t2 + 2.0 * t3) / 6.0
    else:
        # same determinant-integral identity evaluated on the trapezoid rule
        a = np.array([[a_kernel_value(ak.kappa, ak.s, x, y) for y in th] for x in th])
        wt = np.full(m, h)
        wt[0] = wt[-1] = h / 2
        sw = np.sqrt(wt)
        eig_alt = np.clip(np.linalg.eigvalsh(sw[:, None] * a * sw[None, :]), 0.0, None)
        alt = _elementary_symmetric(eig_alt, n)
    scale = max(abs(primary), abs(alt), 1e-300)
    if abs(primary - alt) > 0.05 * scale:
        raise IntegrableError(
            f"antisymmetric-trace methods disagree beyond 5%: {primary} vs {alt}"
        )
    return primary, alt


def hadamard_bound_check(kappa: float, s: float, n: int):
    """Compare the n-th antisymmetric trace against its Hadamard-type cap."""
    from entbound.integrable import bessel_k0

    ak = a_kernel(kappa, s)
    lhs, _ = wedge_trace(ak, n)
    rhs = (1.0 / math.factorial(n)) * (2.0 * bessel_k0(s) / (kappa * math.pi)) ** n
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-6))


def bessel_k0_numpy(x: float) -> float:
    """K0 by the trapezoid rule of ``integrable.bessel_k0`` (same step, same
    cut), with the terms evaluated and summed by numpy."""
    d = math.pi / 3
    h = 2.0 * math.pi * d / (x * (1.0 - math.cos(d)) + 45.0)
    t = h * np.arange(1, int(math.acosh(1.0 + 40.0 / x) / h) + 1)
    return math.exp(-x) * h * (0.5 + float(np.sum(np.exp(-2.0 * x * np.sinh(0.5 * t) ** 2))))


def concentric_config(r: float, big_r: float):
    """Two diamonds of radii r < R about the same center."""
    from entbound.cft import CftError, DiamondConfig

    if not 0 < r < big_r:
        raise CftError("need 0 < r < R")
    return DiamondConfig(
        x_a_plus=np.array([r, 0.0, 0.0, 0.0]),
        x_a_minus=np.array([-r, 0.0, 0.0, 0.0]),
        x_b_plus=np.array([big_r, 0.0, 0.0, 0.0]),
        x_b_minus=np.array([-big_r, 0.0, 0.0, 0.0]),
    )


def scalar_table(pairs):
    """Spectrum table of spinless rows from (delta, multiplicity) pairs."""
    from entbound.cft import SpectrumRow, SpectrumTable

    return SpectrumTable(tuple(SpectrumRow(delta=float(d), mult=int(m)) for d, m in pairs))


def free_scalar_spectrum_4d(delta_max: int):
    """Level degeneracies of the free-scalar operator tower.

    Exact integer coefficients of the product over n of (1 - q^n)^(-n^2),
    the generating function of multisets of derivative words where a word of
    length n comes in n^2 colors.
    """
    from entbound.cft import CftError

    if not 0 <= delta_max <= 60:
        raise CftError("level cap is 60")
    coeffs = [0] * (delta_max + 1)
    coeffs[0] = 1
    for n in range(1, delta_max + 1):
        colors = n * n
        new = [0] * (delta_max + 1)
        m = 0
        while n * m <= delta_max:
            binom = math.comb(colors + m - 1, m)
            for d in range(0, delta_max - n * m + 1):
                new[d + n * m] += coeffs[d] * binom
            m += 1
        coeffs = new
    return scalar_table([(d, c) for d, c in enumerate(coeffs) if c > 0])


def free_scalar_character_log_mp(ratio: float, dps: int = 40):
    """sum_n n^2 (-log(1 - q^n)) at ``dps`` digits for the float q = ratio,
    term by term until a term falls below 1e-25 of the sum; for q <= 0.999
    the terms left out sum to below 1e-21 of it.  Returns an mpf."""
    import mpmath

    with mpmath.workdps(dps):
        q = mpmath.mpf(ratio)
        total = mpmath.mpf(0)
        qn = q
        n = 1
        while True:
            term = -n * n * mpmath.log1p(-qn)
            total += term
            if term < total * mpmath.mpf(10) ** -25:
                return total
            n += 1
            qn *= q


def cardy_degeneracies(central_charge: float, k_max: int):
    """Synthetic chiral spectrum whose character saturates the growth
    log Tr = c pi^2/(6 tau): level density (c/(96 k^3))^(1/4) e^(2 pi
    sqrt(c k / 6))."""
    rows = [(0, 1)]
    c = central_charge
    for k in range(1, k_max + 1):
        density = (c / (96.0 * k**3)) ** 0.25 * math.exp(2.0 * math.pi * math.sqrt(c * k / 6.0))
        rows.append((k, max(round(density), 0)))
    return rows


def tensor_decompositions(dec1, dec2):
    """Tensored certificate for a product state: pairs are kron'd pairwise.

    The cost is the product of the costs, which is how the subadditivity of
    the dominance bounds is certified.
    """
    from entbound.measures import SeparableDecomposition

    pairs = [
        (np.kron(f1, f2), np.kron(g1, g2))
        for f1, g1 in dec1.pairs
        for f2, g2 in dec2.pairs
    ]
    return SeparableDecomposition(pairs=pairs)


def tensor_bipartite(rho1, rho2):
    """Tensor two bipartite states, regrouping to (A1 A2 | B1 B2)."""
    da1, db1, da2, db2 = rho1.dimA, rho1.dimB, rho2.dimA, rho2.dimB
    m = np.kron(rho1.matrix, rho2.matrix)
    t = m.reshape(da1, db1, da2, db2, da1, db1, da2, db2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    n = da1 * db1 * da2 * db2
    return DensityMatrix(da1 * da2, db1 * db2, t.reshape(n, n))


def local_unitary_conjugate(rho, u_a: np.ndarray, u_b: np.ndarray):
    """(u_a (x) u_b) rho (u_a (x) u_b)^dagger as a state of the same split."""
    u = np.kron(u_a, u_b)
    return DensityMatrix(rho.dimA, rho.dimB, u @ rho.matrix @ u.conj().T)


def operator_schmidt_decomposition(rho: DensityMatrix) -> SeparableDecomposition:
    """Pairs from the operator Schmidt (realignment SVD) of the state.

    A second certificate for the dominance bound, independent of the
    matrix-unit one that ``log_dominance_upper`` builds.
    """
    from entbound.measures import SeparableDecomposition

    da, db = rho.dimA, rho.dimB
    r = rho.matrix.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, s, vh = np.linalg.svd(r)
    pairs = []
    for k in range(len(s)):
        if s[k] < 1e-14:
            continue
        fa = (s[k] * u[:, k]).reshape(da, da)
        gb = vh[k, :].reshape(db, db)
        pairs.append((fa, gb))
    return SeparableDecomposition(pairs=pairs)


def decay_sweep(
    geom: LatticeGeometry,
    region_a: tuple[int, ...],
    gaps,
    lower: bool = False,
):
    """Upper (and optional lower) bounds versus the A-B gap in sites.

    Returns one :func:`decay_row` per gap; a gap that leaves region B fewer
    than two sites raises.
    """
    from entbound.gaussian import GaussianError, build_state, decay_row

    state = build_state(geom)
    rows = []
    for gap in gaps:
        if max(region_a) + 1 + int(gap) >= geom.sites - 1:
            raise GaussianError(f"gap {gap} leaves no room for region B")
        rows.append(decay_row(state, region_a, gap, lower))
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


# ---------------------------------------------------------------------------
# modular theory of finite-dimensional states


@dataclass(frozen=True)
class GnsRep:
    """GNS data of a faithful state: the standard vector is sqrt(rho)."""

    state: DensityMatrix
    omega: np.ndarray  # sqrt(rho), unit Hilbert-Schmidt norm

    @property
    def dim(self) -> int:
        return self.state.dim


def gns_rep(rho: DensityMatrix) -> GnsRep:
    if not rho.is_faithful():
        raise ModularError("state is not faithful; GNS vector would not be separating")
    omega = matrix_power_psd(rho.matrix, 0.5)
    nrm = float(np.linalg.norm(omega))
    if abs(nrm - 1.0) > 1e-8:
        raise ModularError(f"GNS vector has norm {nrm}")
    return GnsRep(state=rho, omega=omega)


def natural_cone_rep(rho: DensityMatrix) -> np.ndarray:
    """Cone representative of a state: the PSD square root of its matrix."""
    return matrix_power_psd(rho.matrix, 0.5)


def araki_relative_entropy(rho: DensityMatrix, rho2: DensityMatrix) -> float:
    """Relative entropy as the standard-vector expectation of log Delta.

    The relative modular operator of the pair has eigenvalues l_i/m_j on the
    matrix units |e_i><f_j| built from the two eigenbases; the expectation
    in the GNS vector of ``rho`` is evaluated as a double spectral sum.
    """
    _check_same_dim(rho, rho2)
    for s, name in ((rho, "first"), (rho2, "second")):
        if not s.is_faithful():
            raise ModularError(
                f"{name} state is not faithful; use relative_entropy for the support-projected value"
            )
    w1, v1 = eigh(rho.matrix)
    w2, v2 = eigh(rho2.matrix)
    overlap = np.abs(v1.conj().T @ v2) ** 2  # |<e_i|f_j>|^2
    log_ratio = np.log(w1)[:, None] - np.log(w2)[None, :]
    return float(np.sum(w1[:, None] * overlap * log_ratio))


def connes_cocycle(rho: DensityMatrix, rho2: DensityMatrix, t: float) -> np.ndarray:
    """Unitary cocycle rho^{it} rho2^{-it} of a pair of faithful states."""
    _check_same_dim(rho, rho2)
    for s in (rho, rho2):
        if not s.is_faithful():
            raise ModularError("cocycle needs faithful states")
    w1, v1 = eigh(rho.matrix)
    w2, v2 = eigh(rho2.matrix)
    u1 = (v1 * np.exp(1j * t * np.log(w1))) @ v1.conj().T
    u2 = (v2 * np.exp(-1j * t * np.log(w2))) @ v2.conj().T
    return u1 @ u2


def cocycle_derivative(rho: DensityMatrix, rho2: DensityMatrix, t: float = 1e-5) -> float:
    """Relative entropy from the cocycle via a symmetric finite difference.

    Uses Im omega([D rho : D rho2]_t)/t at +-t with one Richardson step; the
    limit t -> 0 is the relative entropy.
    """

    def f(s: float) -> float:
        u = connes_cocycle(rho, rho2, s)
        return float(np.trace(rho.matrix @ u).imag)

    def sym(h: float) -> float:
        return (f(h) - f(-h)) / (2.0 * h)

    d1 = sym(t)
    d2 = sym(t / 2.0)
    return (4.0 * d2 - d1) / 3.0


def modular_flow(rho: DensityMatrix, a: np.ndarray, t: float) -> np.ndarray:
    """sigma_t(a) = rho^{it} a rho^{-it} (Heisenberg evolution by -log rho)."""
    w, v = eigh(rho.matrix)
    u = (v * np.exp(1j * t * np.log(w))) @ v.conj().T
    return u @ a @ u.conj().T


def kms_check(
    rho: DensityMatrix,
    a: np.ndarray,
    b: np.ndarray,
    t_grid: np.ndarray | None = None,
) -> float:
    """Max deviation of the KMS boundary identity over a grid of times.

    Both sides are finite-dimensional identities: the analytic correlator at
    imaginary offset i equals the flipped-order correlator, so the deviation
    is pure round-off for any faithful state.
    """
    if not rho.is_faithful():
        raise ModularError("KMS check needs a faithful state")
    a = check_hermitian(a, "a")
    b = check_hermitian(b, "b")
    if t_grid is None:
        t_grid = np.linspace(-2.0, 2.0, 9)
    w, v = eigh(rho.matrix)
    logw = np.log(w)
    rho_m = rho.matrix
    dev = 0.0
    for t in t_grid:
        # e^{i(t+i)K} with K = -log rho  ->  rho^{-i t} rho^{...}; assembled
        # spectrally: exp(i z K) = V diag(exp(-i z log w)) V^†, z = t + i
        z = t + 1j
        ez = (v * np.exp(-1j * z * logw)) @ v.conj().T
        ezinv = (v * np.exp(1j * z * logw)) @ v.conj().T
        lhs = np.trace(rho_m @ a @ ez @ b @ ezinv)
        rhs = np.trace(rho_m @ modular_flow(rho, b, -t) @ a)
        dev = max(dev, abs(lhs - rhs))
    return float(dev)


def powers_stormer_gap(rho: DensityMatrix, rho2: DensityMatrix) -> tuple[float, float]:
    """(trace distance, squared HS distance of the square roots).

    The first entry dominates the second for any pair of states.
    """
    _check_same_dim(rho, rho2)
    lhs = trace_norm(rho.matrix - rho2.matrix)
    rhs = float(np.linalg.norm(natural_cone_rep(rho) - natural_cone_rep(rho2))) ** 2
    return lhs, rhs


def apply_kraus(rho: DensityMatrix, kraus: list[np.ndarray]) -> DensityMatrix:
    """Apply a CPTP map given by Kraus operators to a state."""
    total = sum(k.conj().T @ k for k in kraus)
    n = rho.dim
    if not np.allclose(total, np.eye(n), atol=1e-10):
        raise ModularError("Kraus family is not trace preserving")
    out = sum(k @ rho.matrix @ k.conj().T for k in kraus)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(dimA=n, dimB=1, matrix=out)


def random_kraus_family(dim: int, n_ops: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded random CPTP Kraus family (isometry columns construction)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * n_ops, dim)) + 1j * rng.standard_normal((dim * n_ops, dim))
    q, _ = np.linalg.qr(g)  # isometry: q^† q = 1_dim
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_ops)]
