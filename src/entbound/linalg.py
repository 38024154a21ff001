"""Dense Hermitian linear algebra and bipartite state utilities.

Everything downstream (modular data, entanglement measures, lattice states)
is built on the helpers in this module.  States are plain numpy arrays
wrapped in a :class:`DensityMatrix` that carries the bipartite dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config


class LinalgError(ValueError):
    """Raised when an input violates a structural precondition."""


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^†)/2."""
    return 0.5 * (m + m.conj().T)


def check_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """``m`` as a complex array, or an error unless it is square, finite and
    Hermitian to 1e-12 relative in the Frobenius norm."""
    m = np.asarray(m, dtype=complex)
    if (m.ndim != 2 or m.shape[0] != m.shape[1]
            or not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag))
            or np.linalg.norm(m - m.conj().T) > 1e-12 * max(float(np.linalg.norm(m)), 1.0)):
        raise LinalgError(f"{what} is not Hermitian (or not square/finite)")
    return m


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns); the
    reconstruction V diag(w) V^† reproduces the input to working precision.
    """
    m = check_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exotic inputs
        residual = float(np.linalg.norm(m - hermitize(m)))
        raise LinalgError(
            f"eigensolver did not converge (hermiticity residual {residual:.3e})"
        ) from exc
    return w, v


def matrix_power_psd(m: np.ndarray, p: float) -> np.ndarray:
    """Power of a PSD Hermitian matrix, taken on its support.

    Eigenvalues in ``[-psd_slack, SUPPORT_CUT]`` are round-off and map to
    zero, so fractional and negative powers do not amplify noise; an
    eigenvalue below ``-psd_slack`` raises, naming it.
    """
    w, v = eigh(m)
    if w[0] < -config.current().psd_slack:
        raise LinalgError(f"eigenvalue {float(w[0])!r} outside domain of x**{p}")
    fw = np.zeros_like(w)
    pos = w > config.SUPPORT_CUT
    fw[pos] = w[pos] ** p
    return (v * fw) @ v.conj().T


def trace_norm(m: np.ndarray) -> float:
    """Trace norm (sum of singular values) of an arbitrary complex matrix."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise LinalgError("trace_norm of a non-finite matrix")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix with bipartite dimension metadata.

    ``dimB=1`` marks a monopartite state.  Validation happens at
    construction: Hermitian, trace one within 1e-10, eigenvalues above
    -1e-10, and consistent dimensions.
    """

    dimA: int
    dimB: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        tol = config.current()
        if self.dimA < 1 or self.dimB < 1:
            raise LinalgError("dimensions must be positive")
        m = check_hermitian(np.asarray(self.matrix, dtype=complex), "density matrix")
        if m.shape[0] != self.dimA * self.dimB:
            raise LinalgError(
                f"dimA*dimB = {self.dimA * self.dimB} does not match matrix dim {m.shape[0]}"
            )
        if abs(np.trace(m) - 1.0) > tol.structural_abs:
            raise LinalgError(f"trace is {np.trace(m)!r}, expected 1")
        w = np.linalg.eigvalsh(m)
        if w.min() < -tol.psd_slack:
            raise LinalgError(f"negative eigenvalue {w.min():.3e} below tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dimA * self.dimB

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def is_faithful(self) -> bool:
        return bool(self.eigenvalues().min() > config.FAITHFUL_MIN_EIG)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def density_matrix(matrix: np.ndarray, dimA: int, dimB: int = 1) -> DensityMatrix:
    return DensityMatrix(dimA=dimA, dimB=dimB, matrix=matrix)


def pure_state(vector: np.ndarray, dimA: int, dimB: int = 1) -> DensityMatrix:
    """Rank-one state |v><v| from a (normalized) state vector."""
    v = np.asarray(vector, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-8:
        raise LinalgError(f"state vector has norm {n!r}, expected 1")
    v = v / n
    return DensityMatrix(dimA=dimA, dimB=dimB, matrix=np.outer(v, v.conj()))


def maximally_entangled(n: int) -> DensityMatrix:
    """|Phi+><Phi+| with Phi+ = sum_i |ii>/sqrt(n) on an n x n system."""
    v = np.zeros(n * n, dtype=complex)
    v[:: n + 1] = 1.0 / np.sqrt(n)
    return pure_state(v, n, n)


def product_state(rho_a: np.ndarray, rho_b: np.ndarray) -> DensityMatrix:
    ma = check_hermitian(np.asarray(rho_a, dtype=complex))
    mb = check_hermitian(np.asarray(rho_b, dtype=complex))
    return DensityMatrix(dimA=ma.shape[0], dimB=mb.shape[0], matrix=np.kron(ma, mb))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one side of a bipartite state; ``keep`` is 'A' or 'B'."""
    if rho.dimB == 1 and keep.upper() == "A":
        return rho
    if rho.dimB == 1:
        raise LinalgError("partial_trace of a monopartite state")
    da, db = rho.dimA, rho.dimB
    t = rho.matrix.reshape(da, db, da, db)
    if keep.upper() == "A":
        red = np.einsum("ajbj->ab", t)
        return DensityMatrix(dimA=da, dimB=1, matrix=red)
    if keep.upper() == "B":
        red = np.einsum("iaib->ab", t)
        return DensityMatrix(dimA=db, dimB=1, matrix=red)
    raise LinalgError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho: DensityMatrix, side: str = "B") -> np.ndarray:
    """Transpose on one tensor factor; Hermitian and trace preserving."""
    if rho.dimB == 1:
        raise LinalgError("partial_transpose needs bipartite dims")
    return partial_transpose_matrix(rho.matrix, rho.dimA, rho.dimB, side)


def partial_transpose_matrix(m: np.ndarray, da: int, db: int, side: str = "B") -> np.ndarray:
    """Partial transpose of a raw matrix (result need not be positive)."""
    t = np.asarray(m, dtype=complex).reshape(da, db, da, db)
    if side.upper() == "A":
        out = np.einsum("iajb->jaib", t)
    elif side.upper() == "B":
        out = np.einsum("iajb->ibja", t)
    else:
        raise LinalgError(f"side must be 'A' or 'B', got {side!r}")
    return out.reshape(da * db, da * db)


def swap_sides(rho: DensityMatrix) -> DensityMatrix:
    """Exchange the A and B factors."""
    da, db = rho.dimA, rho.dimB
    t = rho.matrix.reshape(da, db, da, db).transpose(1, 0, 3, 2)
    return DensityMatrix(dimA=db, dimB=da, matrix=t.reshape(da * db, da * db))


def random_density_matrix(
    dimA: int, dimB: int = 1, rank: int | None = None, seed: int = 0
) -> DensityMatrix:
    """Seeded random state of the given rank (Ginibre construction)."""
    n = dimA * dimB
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise LinalgError(f"rank {rank} out of range [1, {n}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    m = g @ g.conj().T
    return DensityMatrix(dimA=dimA, dimB=dimB, matrix=m / np.trace(m).real)


# ---------------------------------------------------------------------------
# JSON round trip: {"dimA": int, "dimB": int, "re": [[..]], "im": [[..]]}


def to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "dimA": rho.dimA,
        "dimB": rho.dimB,
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def from_json_dict(d: dict) -> DensityMatrix:
    try:
        dim_a, dim_b = d["dimA"], d["dimB"]
        parts = [np.asarray(d[key], dtype=object) for key in ("re", "im")]
    except (KeyError, TypeError) as exc:
        raise LinalgError(f"malformed state record: {exc}") from exc
    # int() would truncate a float, parse a string and take a bool as 0 or 1
    for key, dim in (("dimA", dim_a), ("dimB", dim_b)):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise LinalgError(f"{key} must be a JSON integer, got {dim!r}")
    # a float conversion would parse a string entry, take a bool as 0 or 1 and null as nan
    bad = [x for part in parts for x in part.flat if type(x) not in (int, float)]
    if bad:
        raise LinalgError(f"re/im entries must be JSON numbers, got {bad[0]!r}")
    re, im = (part.astype(float) for part in parts)
    if re.shape != im.shape or re.ndim != 2:
        raise LinalgError("re/im must be matching 2-d arrays")
    return DensityMatrix(dimA=dim_a, dimB=dim_b, matrix=re + 1j * im)


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(rho)), encoding="utf-8")


def load_state(path: str | Path) -> DensityMatrix:
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise LinalgError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}") from exc
    return from_json_dict(d)
