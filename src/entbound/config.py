"""Central tolerance policy.

The two tolerances that a profile varies are the fields of ``Tolerances``;
the profile in force is a context variable, so a caller sets it for the
extent of one call and resets it afterwards, and it never leaks into later
calls or into other threads' contexts.  The cuts that every profile shares
are module constants, read at call time.
"""

from __future__ import annotations

from collections import namedtuple
from contextvars import ContextVar

# structural_abs: absolute tolerance on the trace of a density matrix;
# psd_slack: eigenvalues in [-psd_slack, 0] are treated as zero, below is an
# error.  A namedtuple, so that importing the command line loads neither
# dataclasses nor the inspect module that it imports
Tolerances = namedtuple("Tolerances", "structural_abs psd_slack", defaults=(1e-10, 1e-10))

STRICT = Tolerances()

# lattice profile: more slack for density matrices built from lattice data.
# Only linalg reads these two fields (state validation and
# matrix_power_psd), so it changes nothing in the gaussian, integrable or
# dirac commands
LATTICE = STRICT._replace(structural_abs=1e-8, psd_slack=1e-8)

PROFILES = {"strict": STRICT, "lattice": LATTICE}

PROFILE: ContextVar[Tolerances] = ContextVar("entbound_tolerances", default=STRICT)

# minimum eigenvalue for a state to count as faithful / invertible
FAITHFUL_MIN_EIG = 1e-12
# eigenvalue cut used when projecting onto the support of a state
SUPPORT_CUT = 1e-12
# singular values below this (relative) are dropped when orthonormalizing spans
RANK_CUT = 1e-10


# the named spectrum of the cft evaluators, defined here so that the command
# line can offer it without importing cft and numpy
FREE_SCALAR_4D = "free-scalar-4d"


def current() -> Tolerances:
    """The tolerance profile in force in the calling context (STRICT unless set)."""
    return PROFILE.get()
