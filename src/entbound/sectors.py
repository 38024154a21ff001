"""Superselection-sector arithmetic: statistical dimensions from Young
diagrams and minimal-model labels, the index of a minimal-model family, and
the charged-state entanglement deltas they bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class SectorError(ValueError):
    pass


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(int(r) for r in self.rows)
        if not rows or any(r < 1 for r in rows):
            raise SectorError("row lengths must be positive")
        if any(r1 < r2 for r1, r2 in zip(rows, rows[1:])):
            raise SectorError("row lengths must be weakly decreasing")
        object.__setattr__(self, "rows", rows)

    def hook_length(self, i: int, j: int) -> int:
        """Arm plus leg plus one for the box in row i, column j (0-based)."""
        arm = self.rows[i] - (j + 1)
        leg = sum(1 for r in self.rows[i + 1 :] if r > j)
        return arm + leg + 1


def young_dim(diagram: YoungDiagram, n: int) -> int | Fraction:
    """Dimension from the hook-content product, in exact arithmetic.

    Every box at (row i, column j) contributes (n + j - i)/hook(i, j); a
    non-positive content factor means the representation does not exist for
    this rank.
    """
    if n < 1:
        raise SectorError("rank must be positive")
    value = Fraction(1)
    for i, row_len in enumerate(diagram.rows):
        for j in range(row_len):
            content = n + j - i
            if content <= 0:
                raise SectorError(
                    f"factor n + j - i = {content} at box ({i + 1},{j + 1}): "
                    "representation does not exist at this rank"
                )
            value *= Fraction(content, diagram.hook_length(i, j))
    return int(value) if value.denominator == 1 else value


def minimal_model_dim(p: int, m: int, n: int) -> float:
    """Statistical dimension of the (m, n) sector of the (p+1, p) series."""
    if p < 3:
        raise SectorError("need p >= 3")
    if not (1 <= m <= p - 1 and 1 <= n <= p):
        raise SectorError(f"labels out of range: 1 <= m <= {p - 1}, 1 <= n <= {p}")
    sign = (-1.0) ** (n + m)
    num = math.sin(math.pi * (p + 1) * m / p) * math.sin(math.pi * p * n / (p + 1))
    den = math.sin(math.pi * (p + 1) / p) * math.sin(math.pi * p / (p + 1))
    return sign * num / den


def minimal_model_sectors(p: int) -> list[tuple[tuple[int, int], float]]:
    """Inequivalent sector labels of the (p+1, p) series with dimensions.

    Labels are identified under (m, n) ~ (p - m, p + 1 - n); the
    lexicographically smaller representative is kept.
    """
    if p < 3:
        raise SectorError("need p >= 3")
    seen = set()
    out = []
    for m in range(1, p):
        for n in range(1, p + 1):
            partner = (p - m, p + 1 - n)
            key = min((m, n), partner)
            if key in seen:
                continue
            seen.add(key)
            out.append((key, minimal_model_dim(p, *key)))
    return out


@dataclass(frozen=True)
class Sector:
    label: str
    dim: float
    count: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1.0 - 1e-12:
            raise SectorError(f"statistical dimension {self.dim} below one")
        if self.count < 1:
            raise SectorError("charge count must be positive")


@dataclass(frozen=True)
class SectorList:
    sectors: tuple[Sector, ...]


def charged_delta_bounds(sectors: SectorList) -> tuple[float, float]:
    """Maximal entanglement change from adding the listed charges.

    Returns the pair (relative-entropy delta cap, modular delta cap):
    2 sum n_i log dim_i and (5/2) sum n_i log dim_i.
    """
    base = sum(s.count * math.log(s.dim) for s in sectors.sectors)
    return 2.0 * base, 2.5 * base


def minimal_model_mu_index(p: int) -> float:
    return float(sum(d**2 for _, d in minimal_model_sectors(p)))
