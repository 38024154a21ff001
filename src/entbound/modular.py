"""Relative entropy of finite-dimensional states.

The Umegaki form Tr(rho log rho - rho log rho2) equals Araki's relative
entropy, the standard-vector expectation of the log of the relative modular
operator; the modular-theory cross-checks of that identity (Araki form,
Connes cocycle, KMS condition) live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from . import config
from .linalg import DensityMatrix, eigh


class ModularError(ValueError):
    pass


def _check_same_dim(rho: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho.dim != rho2.dim:
        raise ModularError(f"dimension mismatch: {rho.dim} vs {rho2.dim}")


def relative_entropy(rho: DensityMatrix, rho2: DensityMatrix) -> float:
    """Umegaki relative entropy Tr(rho log rho - rho log rho2).

    Returns ``inf`` when the support of ``rho`` is not contained in the
    support of ``rho2``.
    """
    _check_same_dim(rho, rho2)
    cut = config.SUPPORT_CUT
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
