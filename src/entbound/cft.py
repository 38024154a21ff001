"""Conformal bound evaluators: cross-ratios of nested diamonds, deformed
multiplet counts, partition-function bounds for concentric and general
configurations (per table multiplet, (2 sL + 1)(2 sR + 1) components), the
free-scalar character and chiral interval bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FREE_SCALAR_4D


class CftError(ValueError):
    pass


# ---------------------------------------------------------------------------
# diamond geometry, signature (-+++)


def minkowski_square(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(-x[0] ** 2 + np.sum(x[1:] ** 2))


@dataclass(frozen=True)
class DiamondConfig:
    """Tips of two double cones; the first must sit in the causal complement
    of the second."""

    x_a_plus: np.ndarray
    x_a_minus: np.ndarray
    x_b_plus: np.ndarray
    x_b_minus: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x_a_plus", "x_a_minus", "x_b_plus", "x_b_minus"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (4,):
                raise CftError(f"{name} must be a 4-vector")
            object.__setattr__(self, name, v)
        for plus, minus, label in (
            (self.x_a_plus, self.x_a_minus, "A"),
            (self.x_b_plus, self.x_b_minus, "B"),
        ):
            d = plus - minus
            if minkowski_square(d) >= 0 or d[0] <= 0:
                raise CftError(f"diamond {label} axis is not future-timelike")


def cross_ratios(cfg: DiamondConfig) -> tuple[float, float]:
    """Conformally invariant pair (u, v) of the diamond configuration."""
    num = minkowski_square(cfg.x_b_plus - cfg.x_b_minus) * minkowski_square(
        cfg.x_a_plus - cfg.x_a_minus
    )
    du = minkowski_square(cfg.x_a_minus - cfg.x_b_minus) * minkowski_square(
        cfg.x_a_plus - cfg.x_b_plus
    )
    dv = minkowski_square(cfg.x_a_minus - cfg.x_b_plus) * minkowski_square(
        cfg.x_a_plus - cfg.x_b_minus
    )
    if du == 0 or dv == 0:
        raise CftError("degenerate configuration: lightlike tip separation")
    u, v = num / du, num / dv
    if u <= 0 or v <= 0:
        raise CftError(f"non-positive cross-ratio (u={u}, v={v}): diamonds not properly nested")
    return u, v


def tau_theta(u: float, v: float) -> tuple[float, float]:
    """Boost/opening parameters of an admissible diamond pair."""
    if u <= 0 or v <= 0:
        raise CftError("cross-ratios must be positive")
    minus = 1.0 / math.sqrt(v) - 1.0 / math.sqrt(u)
    plus = 1.0 / math.sqrt(v) + 1.0 / math.sqrt(u)
    # concentric configurations give minus = 1 exactly; tolerate round-off
    if 1.0 - 1e-9 <= minus < 1.0:
        minus = 1.0
    if minus < 1.0 or plus < 1.0:
        raise CftError("diamonds not in admissible position (arccosh domain)")
    theta = math.acosh(minus)
    tau = math.acosh(plus)
    if not tau > abs(theta):
        raise CftError("nesting condition tau > |theta| violated")
    return tau, theta


def quantum_integer(n: int, theta: float) -> float:
    """Deformed multiplet count: finite geometric sum, exact at theta = 0."""
    if n < 1:
        raise CftError("n must be a positive integer")
    return float(sum(math.exp((n - 1 - 2 * k) * theta / 2.0) for k in range(n)))


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumRow:
    delta: float
    spin_l: float = 0.0
    spin_r: float = 0.0
    mult: int = 1

    def __post_init__(self) -> None:
        if self.delta < 0 or self.mult < 1:
            raise CftError("rows need delta >= 0 and mult >= 1")
        for s in (self.spin_l, self.spin_r):
            if s < 0 or abs(2 * s - round(2 * s)) > 1e-12:
                raise CftError("spins must be nonnegative half-integers")

    @property
    def components(self) -> tuple[int, int]:
        """(2 spin_l + 1, 2 spin_r + 1): the component counts of one multiplet."""
        return int(round(2 * self.spin_l)) + 1, int(round(2 * self.spin_r)) + 1


@dataclass(frozen=True)
class SpectrumTable:
    rows: tuple[SpectrumRow, ...]

    def __post_init__(self) -> None:
        merged: dict = {}
        for row in self.rows:
            key = (row.delta, row.spin_l, row.spin_r)
            if key in merged:
                merged[key] = SpectrumRow(row.delta, row.spin_l, row.spin_r,
                                          merged[key].mult + row.mult)
            else:
                merged[key] = row
        object.__setattr__(
            self, "rows", tuple(sorted(merged.values(), key=lambda r: (r.delta, r.spin_l, r.spin_r)))
        )

    def has_identity(self) -> bool:
        return any(r.delta == 0.0 for r in self.rows)


def free_scalar_character_log(ratio: float) -> float:
    """log of the full free-scalar partition sum at the given ratio, rounded up.

    Evaluated through the convergent product form sum_n n^2 * (-log(1-q^n)),
    which reaches ratios arbitrarily close to one where any finite level
    truncation fails.  The terms n < M are summed with ``math.fsum``, where
    M >= 2 is the first index with q^M <= 1e-12.  Since -log(1-x) <=
    x/(1-x), the rest is at most sum_{n>=M} n^2 q^n / (1-q^M), which is
    added in its closed form q^M [M^2 (1-q)^2 + 2 M q (1-q) + q (1+q)] /
    ((1-q)^3 (1-q^M)).  An error of one ulp in q^n moves its term by at most
    A = q / ((1-q)(-log(1-q))) ulps, since x / ((1-x)(-log(1-x))) rises with
    x; so, with pow and log1p within one ulp, the value is raised by
    (2 A + 8) units of round-off and stays an upper bound.
    """
    if not 0 < ratio < 1:
        raise CftError("ratio must lie in (0, 1)")
    q = ratio
    m = max(2, math.ceil(math.log(1e-12) / math.log(q)))
    if m > 10_000_000:
        raise CftError(f"ratio {ratio} is too close to 1: the product form needs {m} terms")
    head = math.fsum(-n * n * math.log1p(-(q**n)) for n in range(1, m))
    qm = q**m
    tail = qm * (m * m * (1.0 - q) ** 2 + 2.0 * m * q * (1.0 - q) + q * (1.0 + q)) / (
        (1.0 - q) ** 3 * (1.0 - qm))
    amp = q / ((1.0 - q) * -math.log1p(-q))
    return (head + tail) * (1.0 + (2.0 * amp + 8.0) * 2.0**-53)


def concentric_bound(spectrum, ratio: float) -> float:
    """log of the spectrum-weighted partition sum at the given size ratio.

    Accepts a SpectrumTable or the named free-scalar tower, which is
    evaluated in its exact product form.  A row counts ``components`` per
    multiplet, as ``general_bound_3p1`` does.  A table is summed exactly as
    given, so its value bounds that table, not a spectrum it truncates; a
    heuristic tail estimate only rejects tables that look cut off too early
    at this ratio.
    """
    if not 0 < ratio < 1:
        raise CftError("ratio must lie in (0, 1)")
    if isinstance(spectrum, str):
        if spectrum == FREE_SCALAR_4D:
            return free_scalar_character_log(ratio)
        raise CftError(f"unknown named spectrum {spectrum!r}")
    if not spectrum.has_identity():
        raise CftError("spectrum must contain the identity row (delta 0, mult 1)")
    terms = [row.mult * math.prod(row.components) * ratio**row.delta for row in spectrum.rows]
    total = float(np.sum(terms))
    if len(terms) >= 3 and terms[-2] > 0:
        q = terms[-1] / terms[-2]
        if q < 1.0:
            tail = terms[-1] * q / (1.0 - q)
            if tail > 1e-8 * total:
                raise CftError(
                    f"spectrum truncated too early at this ratio (tail estimate {tail:.3e})"
                )
        else:
            raise CftError("series not converging: ratio too close to one for this spectrum")
    return math.log(total)


def general_bound_3p1(spectrum: SpectrumTable, tau: float, theta: float) -> float:
    """Partition-sum bound for diamonds in general position (3+1 dims).

    Each multiplet row contributes exp(-tau * delta) times the two deformed
    component counts at the boost angle.
    """
    if not tau > abs(theta):
        raise CftError("need tau > |theta|")
    total = 0.0
    for row in spectrum.rows:
        nl, nr = row.components
        total += row.mult * math.exp(-tau * row.delta) * quantum_integer(nr, theta) * quantum_integer(nl, theta)
    return math.log(total)


def chiral_cross_ratio(a1: float, a2: float, b2: float, b1: float) -> float:
    if not (a1 < a2 < b2 < b1):
        raise CftError("intervals must satisfy a1 < a2 < b2 < b1")
    xi = ((a2 - b2) * (b1 - a1)) / ((a2 - a1) * (b2 - b1))
    if xi <= 0:
        raise CftError(f"cross ratio must be positive, got {xi}")
    return xi


def chiral_bound(l0_spectrum, intervals) -> float:
    """Two-interval chiral bound: character at 2 arcsinh(sqrt(xi)).

    ``l0_spectrum`` is a list of (eigenvalue, degeneracy) pairs including the
    vacuum (0, 1); ``intervals`` is the tuple (a1, a2, b2, b1).
    """
    a1, a2, b2, b1 = intervals
    xi = chiral_cross_ratio(a1, a2, b2, b1)
    beta = 2.0 * math.asinh(math.sqrt(xi))
    total = 0.0
    for level, deg in l0_spectrum:
        if level < 0 or deg < 0:
            raise CftError("levels and degeneracies must be nonnegative")
        total += deg * math.exp(-beta * level)
    if total < 1.0:
        raise CftError("spectrum must include the vacuum level")
    return math.log(total)
