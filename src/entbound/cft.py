"""Conformal bound evaluators: cross-ratios of nested diamonds, deformed
multiplet counts, partition-function bounds for concentric and general
configurations, the free-scalar character, chiral interval bounds, and the
closed-form nuclearity bound shapes."""

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


def concentric_config(r: float, big_r: float) -> DiamondConfig:
    if not 0 < r < big_r:
        raise CftError("need 0 < r < R")
    return DiamondConfig(
        x_a_plus=np.array([r, 0.0, 0.0, 0.0]),
        x_a_minus=np.array([-r, 0.0, 0.0, 0.0]),
        x_b_plus=np.array([big_r, 0.0, 0.0, 0.0]),
        x_b_minus=np.array([-big_r, 0.0, 0.0, 0.0]),
    )


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

    @classmethod
    def scalar(cls, pairs) -> "SpectrumTable":
        return cls(tuple(SpectrumRow(delta=float(d), mult=int(m)) for d, m in pairs))

    def has_identity(self) -> bool:
        return any(r.delta == 0.0 for r in self.rows)


def free_scalar_spectrum_4d(delta_max: int) -> SpectrumTable:
    """Level degeneracies of the free-scalar operator tower.

    Exact integer coefficients of the product over n of (1 - q^n)^(-n^2),
    the generating function of multisets of derivative words where a word of
    length n comes in n^2 colors.
    """
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
    return SpectrumTable.scalar([(d, c) for d, c in enumerate(coeffs) if c > 0])


def free_scalar_character_log(ratio: float, tol: float = 1e-12) -> float:
    """log of the full free-scalar partition sum at the given ratio.

    Evaluated through the convergent product form sum_n n^2 * (-log(1-q^n)),
    which reaches ratios arbitrarily close to one where any finite level
    truncation fails.
    """
    if not 0 < ratio < 1:
        raise CftError("ratio must lie in (0, 1)")
    total = 0.0
    n = 1
    while True:
        term = -n * n * math.log1p(-(ratio**n))
        total += term
        if term < tol * max(total, 1e-300) and n > 10:
            break
        n += 1
        if n > 10_000_000:  # pragma: no cover
            raise CftError("product form did not converge")
    return total


def concentric_bound(spectrum, ratio: float) -> float:
    """log of the spectrum-weighted partition sum at the given size ratio.

    Accepts a SpectrumTable (with a tail-estimate rejection for unconverged
    truncations) or the named free-scalar tower, which is evaluated in its
    exact product form.
    """
    if not 0 < ratio < 1:
        raise CftError("ratio must lie in (0, 1)")
    if isinstance(spectrum, str):
        if spectrum == FREE_SCALAR_4D:
            return free_scalar_character_log(ratio)
        raise CftError(f"unknown named spectrum {spectrum!r}")
    if not spectrum.has_identity():
        raise CftError("spectrum must contain the identity row (delta 0, mult 1)")
    terms = [row.mult * ratio**row.delta for row in spectrum.rows]
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
        nl = int(round(2 * row.spin_l)) + 1
        nr = int(round(2 * row.spin_r)) + 1
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


def cardy_degeneracies(central_charge: float, k_max: int):
    """Synthetic chiral spectrum whose character saturates the growth
    log Tr = c pi^2/(6 tau): level density (c/(96 k^3))^(1/4) e^(2 pi
    sqrt(c k / 6)); for diagnostics and tests."""
    rows = [(0, 1)]
    c = central_charge
    for k in range(1, k_max + 1):
        density = (c / (96.0 * k**3)) ** 0.25 * math.exp(2.0 * math.pi * math.sqrt(c * k / 6.0))
        rows.append((k, max(round(density), 0)))
    return rows


# ---------------------------------------------------------------------------
# closed-form nuclearity bound shapes


def bw_massive_series(c: float, n: int, k: float, m_r: float, term_tol: float = 1e-16) -> float:
    """Large-separation series bound for a gapped theory.

    Sums exp(-(m R j)^k + 3 (c m_j-scale)^(n/(n+1))) over the tower index; the
    exponent balance requires k above n/(n+1).
    """
    if n < 1 or c <= 0 or m_r <= 0:
        raise CftError("need n >= 1, c > 0, mR > 0")
    power = n / (n + 1.0)
    if not power < k < 1.0:
        raise CftError(f"series diverges unless n/(n+1) < k < 1; got k={k}, n/(n+1)={power:.4f}")
    total = 0.0
    for j in range(1, 100_000):
        term = math.exp(-((m_r * j) ** k) + 3.0 * (c * j) ** power)
        total += term
        if term < term_tol * max(total, 1e-300) and j > 3:
            break
    return math.log1p(total)


def bw_short_distance(c: float, n: int, r: float) -> float:
    """Short-distance bound: log(1 + exp(sqrt(2) (c cot(pi/4n) / r)^n))."""
    if n < 1 or c <= 0 or r <= 0:
        raise CftError("need n >= 1, c > 0, R > 0")
    x = math.sqrt(2.0) * (c / math.tan(math.pi / (4.0 * n)) / r) ** n
    return math.log1p(math.exp(x))


def kms_power_law(coefficient: float, alpha: float, r: float) -> float:
    """Thermal-state decay shape C * R^(1 - alpha)."""
    if alpha <= 1.0:
        raise CftError("need alpha > 1")
    return coefficient * r ** (1.0 - alpha)


def massless_power_law(coefficient: float, alpha: float, r: float) -> float:
    """Massless decay shape C * R^(-alpha)."""
    if alpha <= 1.0:
        raise CftError("need alpha > 1")
    return coefficient * r ** (-alpha)


def massless_free_scalar_power(coefficient: float, d: int, r: float) -> float:
    """Free massless scalar decay shape C * R^(-(d-2)) for d > 2."""
    if d <= 2:
        raise CftError("need spatial dimension d > 2")
    return coefficient * r ** (-(d - 2))
