"""Finite-dimensional modular machinery.

A faithful state on a matrix algebra is represented on the Hilbert space of
matrices with the Hilbert-Schmidt inner product; the standard vector is the
matrix square root of the density matrix.  In that picture the modular
operator acts by left/right multiplication with powers of the density
matrix, which is how everything here is computed (the operator is never
materialized unless the dimension is tiny).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .linalg import (
    DensityMatrix,
    check_hermitian,
    eigh,
    hs_norm,
    matrix_power_psd,
    trace_norm,
)


class ModularError(ValueError):
    pass


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
    nrm = hs_norm(omega)
    if abs(nrm - 1.0) > 1e-8:
        raise ModularError(f"GNS vector has norm {nrm}")
    return GnsRep(state=rho, omega=omega)


def natural_cone_rep(rho: DensityMatrix) -> np.ndarray:
    """Cone representative of a state: the PSD square root of its matrix."""
    return matrix_power_psd(rho.matrix, 0.5)


def _check_same_dim(rho: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho.dim != rho2.dim:
        raise ModularError(f"dimension mismatch: {rho.dim} vs {rho2.dim}")


def relative_entropy(rho: DensityMatrix, rho2: DensityMatrix) -> float:
    """Umegaki relative entropy Tr(rho log rho - rho log rho2).

    Returns ``inf`` when the support of ``rho`` is not contained in the
    support of ``rho2``.
    """
    _check_same_dim(rho, rho2)
    cut = config.current().support_cut
    w2, v2 = eigh(rho2.matrix)
    keep = w2 > cut
    # support condition: rho must not leak outside supp(rho2)
    if not np.all(keep):
        outside = v2[:, ~keep]
        leak = float(np.trace(outside.conj().T @ rho.matrix @ outside).real)
        if leak > 1e-12:
            return float("inf")
    log2 = (v2[:, keep] * np.log(w2[keep])) @ v2[:, keep].conj().T
    w1, v1 = eigh(rho.matrix)
    pos = w1 > cut
    term1 = float(np.sum(w1[pos] * np.log(w1[pos])))
    term2 = float(np.trace(rho.matrix @ log2).real)
    return term1 - term2


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
    rhs = hs_norm(natural_cone_rep(rho) - natural_cone_rep(rho2)) ** 2
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
