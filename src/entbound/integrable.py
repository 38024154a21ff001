"""Factorizing S-matrix machinery, the kernels controlling the vacuum bound of
integrable models, and the half-line Dirac bound summed over circle modes.

The scattering function is a finite Blaschke-type product over poles on the
imaginary rapidity axis, and its strip norm is the closed-form product of
each factor's peak on the strip boundary.  The rapidity-space kernel T is
evaluated by Gauss-Legendre Nystrom discretization; every T trace norm
passes a mandatory convergence check, climbing a ladder of node counts from
16 to at most 192 until two successive values agree to 1e-12 relative or to
a caller's atol.  A 1-D array of decay parameters climbs the ladder in
lockstep, one stacked SVD per rung and chunk, and the half-line Dirac sum
passes its circle modes in blocks, with an atol set by its running total.
On the symmetric grid the Nystrom matrix K satisfies J K J = conj(K), J the
index reversal, so the real matrix Re K + J Im K, unitarily similar to K,
is built and decomposed instead.
Only the Nystrom functions import numpy; the vacuum bound and its Bessel
function are plain floating-point sums, and the records are namedtuples, so
the vacuum-bound sweep loads neither numpy nor dataclasses.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class IntegrableError(ValueError):
    pass


class SMatrix(namedtuple("SMatrix", "poles")):
    """Two-body scattering function with poles b_k, each in (0, pi/2)."""

    __slots__ = ()

    def __new__(cls, poles: tuple[float, ...]) -> SMatrix:
        if len(poles) % 2 != 1:
            raise IntegrableError("pole count must be odd")
        for b in poles:
            if not 0.0 < b < math.pi / 2:
                raise IntegrableError(f"pole parameter {b} outside (0, pi/2)")
        return super().__new__(cls, poles)

    @property
    def min_pole(self) -> float:
        return min(self.poles)


def sinh_gordon(g: float) -> SMatrix:
    """Single-pole scattering function with b = pi g^2 / (1 + g^2)."""
    if g <= 0:
        raise IntegrableError("coupling must be positive")
    b = math.pi * g * g / (1.0 + g * g)
    if b >= math.pi / 2:
        raise IntegrableError(
            f"coupling g={g} gives b={b:.4f} >= pi/2; only b in (0, pi/2) is supported"
        )
    return SMatrix(poles=(b,))


def strip_sup_norm(s: SMatrix, kappa: float) -> float:
    """Supremum of |S_2| on the strip -kappa < Im z < pi + kappa.

    S_2 is analytic and bounded on the closed strip for kappa < min b_k, so by
    maximum modulus the supremum lies on the boundary lines.  On both, with c
    = cosh(Re z), |factor_k|^2 = 1 + 4 sin b_k sin kappa c / ((c - sin b_k sin
    kappa)^2 - cos^2 b_k cos^2 kappa), whose c-derivative has the sign of
    sin^2 b_k - cos^2 kappa - c^2 < 0.  So each factor peaks at Re z = 0, at
    (sin b_k + sin kappa)/(sin b_k - sin kappa).
    """
    if not 0 < kappa < math.inf:
        raise IntegrableError(f"strip width kappa must be positive and finite, got {kappa}")
    if kappa >= s.min_pole:
        raise IntegrableError(
            f"kappa={kappa} reaches the first pole b={s.min_pole}; need kappa < min b_k"
        )
    sin_k = math.sin(kappa)
    # sin b_k - sin kappa is the smallest |sinh z + i sin b_k| on both lines
    if min(math.sin(b) for b in s.poles) - sin_k < 1e-10:
        raise IntegrableError("pole on the strip boundary")
    # the same factor as tan((b_k + kappa)/2) / tan((b_k - kappa)/2), which
    # takes b_k - kappa exactly where sin b_k - sin kappa cancels
    return math.prod(math.tan((b + kappa) / 2) / math.tan((b - kappa) / 2) for b in s.poles)


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind, order zero.

    K0(x) = e^{-x} int_0^inf exp(-2x sinh^2(t/2)) dt by the trapezoid rule,
    which converges geometrically for an integrand analytic in a strip
    (Trefethen & Weideman, SIAM Rev. 56 (2014)).  The step is tuned to the
    strip |Im t| < pi/3 and the rule is cut at acosh(1 + 40/x), where the
    integrand has fallen below e^{-40}.  The terms are summed with
    ``math.fsum``, which rounds their exact sum once.
    """
    if not 0 < x < math.inf:
        raise IntegrableError(f"argument must be positive and finite, got {x}")
    d = math.pi / 3
    h = 2.0 * math.pi * d / (x * (1.0 - math.cos(d)) + 45.0)
    n = int(math.acosh(1.0 + 40.0 / x) / h)
    terms = (math.exp(-2.0 * x * math.sinh(0.5 * (h * k)) ** 2) for k in range(1, n + 1))
    return math.exp(-x) * h * (0.5 + math.fsum(terms))


# ---------------------------------------------------------------------------
# Nystrom kernels


# node counts of the trace norm's convergence ladder: the values converge
# geometrically, so rungs 1.33-1.5x apart confirm a value without an SVD at
# twice its node count, and the cheap first rungs settle the fast-decaying
# kernels; the last pair, 96 and 192, is the one the 0.5% gate checks
NODE_COUNTS = (16, 24, 36, 48, 72, 96, 192)

# the most kernel entries one stacked SVD takes: a rung's matrices are split
# into chunks of this size, and a larger matrix is decomposed on its own
STACK_ELEMENTS = 96 * 96


@functools.lru_cache(maxsize=8)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n.

    The real form of ``t_kernel_matrix`` pairs node i with node n-1-i, so
    the rule must have antisymmetric nodes and symmetric weights; scaling
    both by theta_max keeps that exactly.  The cache holds every rung of
    ``NODE_COUNTS``.
    """
    import numpy as np

    # looked up at call time, so a wrapper put on leggauss (to count calls) applies
    x, w = np.polynomial.legendre.leggauss(n)
    if not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
        raise IntegrableError("Legendre rule must have antisymmetric nodes and symmetric weights")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def theta_cutoff(s: float) -> float:
    """Truncation theta_max that keeps exp(-s cosh(theta)/2) below 1e-14.

    Only the kernel's rows are damped, so the cut kernel is a compression of
    the full one, whose trace norm can only be lower; it rises as theta_max
    widens (0.40032 at s = 0.447 and 192 nodes, 0.41981 at 1.6 theta_max).
    """
    if s <= 0:
        raise IntegrableError("decay parameter must be positive")
    target = 2.0 * math.log(1e14) / s
    return math.acosh(max(target, math.cosh(1.0)))


def t_kernel_matrix(kappa: float, s: float | np.ndarray, n: int,
                    theta_max: float | np.ndarray) -> np.ndarray:
    """Real Nystrom matrix with the singular values of the half-smeared Cauchy kernel.

    The n-node Gauss-Legendre rule on [-theta_max, theta_max] gives nodes
    theta_i and weights w_i.  The complex Nystrom matrix is K_ij =
    -sign(kappa) sw_i d_i sw_j / (2 pi i (theta_j - theta_i + i kappa/2)),
    d_i = exp(-s cosh(theta_i)/2) and sw_i = sqrt(w_i).  On the symmetric
    grid theta_{n-1-i} = -theta_i while sw and d are even, so J K J =
    conj(K) with J the index reversal, and Q = (I + iJ)/sqrt(2) gives the
    real Q^* K Q = Re K + J Im K (A. Lee, Linear Algebra Appl. 29, 205
    (1980)).  With a = |kappa|/2 its entries are sw_i d_i sw_j/(2 pi) *
    [a/(a^2 + (theta_j - theta_i)^2) + sign(kappa) (theta_i +
    theta_j)/(a^2 + (theta_i + theta_j)^2)].  Scalars s and theta_max give
    one (n, n) matrix; 1-D arrays of them give the (k, n, n) stack.  Only
    the rows carry the damping d_i, so this discretizes the kernel compressed
    to [-theta_max, theta_max]^2, not the full kernel (see ``theta_cutoff``).
    """
    import numpy as np

    s = np.asarray(s, dtype=float)
    if kappa == 0 or np.any(s <= 0):
        raise IntegrableError("need kappa != 0 and s > 0")
    x, w = legendre_rule(n)
    scale = np.asarray(theta_max, dtype=float)[..., None]
    th = x * scale
    sw = np.sqrt(w * scale)
    damp = np.exp(-0.5 * s[..., None] * np.cosh(th))
    a = 0.5 * abs(kappa)
    diff = th[..., None, :] - th[..., :, None]
    total = th[..., None, :] + th[..., :, None]
    kern = a / (a * a + diff**2) + np.sign(kappa) * total / (a * a + total**2)
    return (sw * damp / (2.0 * math.pi))[..., :, None] * kern * sw[..., None, :]


def t_kernel_trace_norm(kappa: float, s: float | np.ndarray, atol: float = 0.0) -> float | np.ndarray:
    """Trace norm of the discretized T kernel with a node-ladder convergence check.

    Gauss-Legendre rules on [-theta_cutoff(s), theta_cutoff(s)] climb
    ``NODE_COUNTS`` until two successive values v1, v2 agree, |v2 - v1| <=
    max(1e-12 |v2|, atol), or the ladder ends; the finer value is returned.
    A 1-D array of decays s climbs in lockstep: each rung takes one stacked
    SVD per chunk of at most ``STACK_ELEMENTS`` entries over the decays
    still climbing, and a decay leaves the stack once it converges, so each
    value is the one its scalar call returns.  The kernel is analytic in a
    strip, so the values converge geometrically in the node count; a decay
    whose last pair (192 against 96 nodes) neither agrees nor lies within
    0.5% raises.
    """
    import numpy as np

    decays = np.atleast_1d(np.asarray(s, dtype=float))
    theta_max = np.array([theta_cutoff(float(d)) for d in decays])

    def norms_at(n: int, idx: np.ndarray) -> np.ndarray:
        per = max(1, STACK_ELEMENTS // (n * n))
        return np.concatenate([
            np.sum(np.linalg.svd(t_kernel_matrix(kappa, decays[c], n, theta_max[c]),
                                 compute_uv=False), axis=-1)
            for c in (idx[i:i + per] for i in range(0, idx.size, per))
        ])

    out = np.empty_like(decays)
    idx = np.arange(decays.size)
    val2 = norms_at(NODE_COUNTS[0], idx)
    for n, n2 in zip(NODE_COUNTS, NODE_COUNTS[1:]):
        val, val2 = val2, norms_at(n2, idx)
        done = np.abs(val2 - val) <= np.maximum(1e-12 * np.abs(val2), atol)
        out[idx] = val2
        idx, val, val2 = idx[~done], val[~done], val2[~done]
        if not idx.size:
            break
    bad = np.abs(val2 - val) > 0.005 * np.maximum(np.abs(val2), 1e-300)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IntegrableError(
            f"discretization not converged ({val[i]} at {n} nodes vs {val2[i]} at {n2} nodes)"
        )
    return float(out[0]) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# vacuum bound for wedge-separated regions


# nu and log_value are None when the series diverges
VacuumBoundResult = namedtuple("VacuumBoundResult",
                               "converged nu log_value asymptotic n_terms strip_norm")


def vacuum_bound(s_matrix: SMatrix, mr: float, kappa: float, delta: float) -> VacuumBoundResult:
    """Dominating-functional series bound for two wedges separated by R, at
    mass m, in terms of mr = m R.

    The particle-number expansion is summed as nu = 1 + sum_{n>=1} q^n *
    max(1, c^n * sqrt(K0(m R delta sin kappa))) with q the product of the
    n-body map bound and c the square root of the strip norm; the reported
    entanglement bound is log nu, together with the closed-form asymptotic
    decay rate for comparison.  A geometric ratio at or above one raises the
    divergence flag instead of producing a value.  Summation stops once a
    term falls below 1e-16 nu or 10,000 terms are summed; either way
    the geometric tails past the last term are added, and nu is raised by
    2 (n + 2) units of round-off for the n running products and the running
    sum, so it stays an upper bound on the series.
    """
    if not 0.0 < delta < 1.0:
        raise IntegrableError("delta must be in (0, 1)")
    norm = strip_sup_norm(s_matrix, kappa)
    if not 0 < mr < math.inf:
        raise IntegrableError(f"mR must be positive and finite, got {mr}")
    c = math.sqrt(norm)
    q1 = (4.0 * math.e * c / (kappa * math.pi)) * bessel_k0((1.0 - delta) * mr)
    kappa_factor = math.sqrt(bessel_k0(mr * delta * math.sin(kappa)))
    asymptotic = (4.0 * math.e / kappa) * math.sqrt(norm / (math.pi * mr)) * math.exp(-mr * (1.0 - delta))
    if q1 * max(1.0, c) >= 1.0:
        return VacuumBoundResult(False, None, None, asymptotic, 0, norm)
    # q^n and (q c)^n are running products of their own: c^n alone overflows
    # while q^n underflows just past the threshold, and 0 * inf is nan;
    # q c < 1 holds here, so neither product can overflow
    qc = q1 * c
    nu = 1.0
    qn = 1.0
    qcn = 1.0
    n_terms = 0
    for n in range(1, 10_001):
        qn *= q1
        qcn *= qc
        term = max(qn, qcn * kappa_factor)
        nu += term
        n_terms = n
        if term < 1e-16 * nu:
            break
    # each later term is at most q^n + K (q c)^n, and q, q c < 1 here
    nu += qn * q1 / (1.0 - q1) + kappa_factor * qcn * qc / (1.0 - qc)
    # (n_terms + 2) * 2^-52 is a multiple of ulp(1), so the factor is exact
    nu *= 1.0 + 2.0 * (n_terms + 2) * 2.0**-53
    return VacuumBoundResult(True, nu, math.log(nu), asymptotic, n_terms, norm)


# ---------------------------------------------------------------------------
# half-line Dirac bound


# circle modes per trace-norm call of the corridor sum
MODE_BLOCK = 16


def dirac_halfline_bound(m: float, eps: float, circle_radius: float | None = None) -> float:
    """Entanglement bound for a half-line across a corridor of width eps.

    Each transverse mode of mass m_j contributes four times the trace norm
    of the kernel at kappa = pi and decay 2 * eps * m_j.  ``circle_radius``
    None means no transverse circle (one mode of mass m); otherwise the
    antiperiodic modes lambda_j = (j + 1/2)/radius, of mass sqrt(m^2 +
    lambda_j^2), are walked in ascending order, ``MODE_BLOCK`` at a time:
    one stacked ``t_kernel_trace_norm`` call per block, whose ladders stop
    at atol = 1e-12 of the total before the block over 4, so no mode
    converges further than the sum can show.  The contributions fall as
    the mass rises, and the sum stops at the first one below 1e-14 of the
    running total (or of 1).
    """
    for name, value in (("mass m", m), ("corridor width eps", eps)):
        if not 0 < value < math.inf:
            raise IntegrableError(f"{name} must be positive and finite, got {value}")
    if circle_radius is None:
        return 4.0 * t_kernel_trace_norm(math.pi, 2.0 * m * eps)
    if not 0 < circle_radius < math.inf:
        # an infinite radius puts every mode at mass m, and the sum would not stop
        raise IntegrableError(f"radius must be positive and finite, got {circle_radius}")
    total = 0.0
    for start in itertools.count(0, MODE_BLOCK):
        lams = [(j + 0.5) / circle_radius for j in range(start, start + MODE_BLOCK)]
        decays = [2.0 * math.sqrt(m * m + lam * lam) * eps for lam in lams]
        for norm in t_kernel_trace_norm(math.pi, decays, atol=1e-12 * total / 4):
            contrib = 4.0 * float(norm)
            total += contrib
            if contrib < 1e-14 * max(total, 1.0):
                return total
