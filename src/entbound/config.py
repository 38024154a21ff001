"""Central tolerance policy.

All structural and reconstruction tolerances used across the library live
here so they can be tuned in one place (or swapped wholesale via a profile).
The profile in force is a context variable: a caller sets it for the extent
of one call and resets it afterwards, so it never leaks into later calls or
into other threads' contexts.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # absolute tolerance on the trace of a density matrix
    structural_abs: float = 1e-10
    # times 1e-3, the relative Hermiticity tolerance of linalg.is_hermitian
    reconstruction_rel: float = 1e-9
    # eigenvalues in [-psd_slack, 0] are treated as zero; below is an error
    psd_slack: float = 1e-10
    # minimum eigenvalue for a state to count as faithful / invertible
    faithful_min_eig: float = 1e-12
    # eigenvalue cut used when projecting onto the support of a state
    support_cut: float = 1e-12
    # singular values below this are dropped when orthonormalizing spans
    rank_cut: float = 1e-10


STRICT = Tolerances()

# lattice profile: more slack for density matrices built from lattice data.
# It differs from STRICT only in structural_abs and psd_slack, which only
# linalg reads (state validation and matrix_power_psd), so it changes nothing
# in the gaussian, integrable or dirac commands
LATTICE = replace(STRICT, structural_abs=1e-8, psd_slack=1e-8)

PROFILES = {"strict": STRICT, "lattice": LATTICE}

PROFILE: ContextVar[Tolerances] = ContextVar("entbound_tolerances", default=STRICT)


# the named spectrum of the cft evaluators, defined here so that the command
# line can offer it without importing cft and numpy
FREE_SCALAR_4D = "free-scalar-4d"


def current() -> Tolerances:
    """The tolerance profile in force in the calling context (STRICT unless set)."""
    return PROFILE.get()
