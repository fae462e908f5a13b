"""Weights on the dyadic grid.

A weight is a positive grid function.  Its Muckenhoupt-style
characteristic is taken over dyadic *rectangles* (products of intervals,
all level pairs), which on a depth-N grid is a finite max.  The module
also builds conjugate (dual-exponent) weights, the intermediate weight
used for two-weight commutator estimates, and a random multiplicative
cascade generator whose characteristic is controlled by a strength knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    ensure_rng,
    rectangle_means,
    rectangle_table,
)

#: hard clamp applied by the random generator so conjugations stay finite
WEIGHT_FLOOR, WEIGHT_CEIL = 1e-8, 1e8


def _check_exponent(p: float) -> None:
    if not 1.0 < p < np.inf:
        raise ValueError(f"integrability exponent must lie in (1, inf), got {p}")


@dataclass(frozen=True)
class ApReport:
    """Rectangle Muckenhoupt characteristic together with its witness."""

    p: float
    characteristic: float
    rect: DyadicRectangle

    def as_dict(self) -> dict:
        return {"p": self.p, "characteristic": self.characteristic, "rect": self.rect.as_dict()}


@dataclass
class Weight:
    """Positive grid function with a bookkeeping role tag.

    Roles are purely informational ("mu", "lambda", "nu" or "generic");
    they make experiment reports self-describing.  The values are a
    read-only copy, so the per-exponent characteristic cache cannot go stale.
    """

    grid: GridFunction2D
    role: str = "generic"
    _ap_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = self.grid.values.copy()
        if not np.all(np.isfinite(v)) or not np.all(v > 0):
            raise ValueError("weight values must be positive and finite")
        v.flags.writeable = False
        self.grid = GridFunction2D(self.grid.depth, v)

    @property
    def depth(self) -> int:
        return self.grid.depth

    @property
    def values(self) -> np.ndarray:
        return self.grid.values

    def measure(self, region: Shadow | DyadicRectangle) -> float:
        """Weighted measure of a cell mask or rectangle."""
        area = 4.0 ** (-self.depth)
        if isinstance(region, Shadow):
            return float(self.values[region.mask].sum()) * area
        return float(self.values[region.cell_box(self.depth)].sum()) * area


def constant_weight(depth: int, value: float = 1.0, role: str = "generic") -> Weight:
    n = 1 << depth
    return Weight(GridFunction2D(depth, np.full((n, n), float(value))), role)


def ap_characteristic(w: Weight, p: float) -> ApReport:
    """Max over all dyadic rectangles of <w>_R <w^{-1/(p-1)}>_R^{p-1}.

    The maximizing rectangle is reported; ties go to the first rectangle
    in the canonical coarse-first enumeration.  Always >= 1 by Jensen; a
    value below that floor raises RuntimeError.
    """
    _check_exponent(p)
    if p in w._ap_cache:
        return w._ap_cache[p]
    recip = w.values ** (-1.0 / (p - 1.0))
    prod = rectangle_means(w.values) * rectangle_means(recip) ** (p - 1.0)
    row = int(np.argmax(prod))
    best = float(prod[row])
    if not best >= 1.0 - 1e-12:
        raise RuntimeError(f"characteristic {best} below the Jensen floor")
    report = ApReport(p, best, rectangle_table(w.depth).rects[row])
    w._ap_cache[p] = report
    return report


def conjugate_weight(w: Weight, p: float, role: str = "generic") -> Weight:
    """Dual-exponent companion w^{-1/(p-1)}; its p'-characteristic is [w]_p^{p'-1}."""
    _check_exponent(p)
    return Weight(GridFunction2D(w.depth, w.values ** (-1.0 / (p - 1.0))), role)


def bloom_weight(mu: Weight, lam: Weight, p: float, check: bool = True) -> Weight:
    """Intermediate weight nu = mu^{1/p} lambda^{-1/p} for a two-weight pair.

    With ``check`` on, verifies the two structural bounds that make nu
    usable: its 2-characteristic is at least 1 and at most
    ([mu]_p [lam]_p)^{1/p} (both up to float slack), raising
    RuntimeError otherwise.
    """
    _check_exponent(p)
    if mu.depth != lam.depth:
        raise ValueError("weights live on different grids")
    nu = Weight(GridFunction2D(mu.depth, (mu.values / lam.values) ** (1.0 / p)), "nu")
    if check:
        a2 = ap_characteristic(nu, 2).characteristic
        cap = (ap_characteristic(mu, p).characteristic
               * ap_characteristic(lam, p).characteristic) ** (1.0 / p)
        if not a2 >= 1.0 - 1e-12:
            raise RuntimeError(f"2-characteristic {a2} below the Jensen floor")
        if not a2 <= cap * (1.0 + 1e-9):
            raise RuntimeError(f"2-characteristic {a2} exceeds the cap {cap}")
    return nu


@dataclass(frozen=True)
class AverageComparabilityReport:
    """Per-rectangle comparison of four natural p-averages of a weight.

    Columns of ``table``: <w^{1/p}>, <w>^{1/p}, <w^{-1/(p-1)}>^{-(p-1)/p},
    <w^{-1/p}>^{-1}, one row per rectangle of :func:`all_rectangles` order.
    """

    p: float
    rects: tuple[DyadicRectangle, ...]
    table: np.ndarray

    def worst_ratios(self) -> dict:
        q1, q2, q3, q4 = self.table.T
        return {
            "max_q1_over_q2": float((q1 / q2).max()),
            "max_q4_over_q1": float((q4 / q1).max()),
            "max_q3_over_q4": float((q3 / q4).max()),
        }


def average_comparability_report(w: Weight, p: float) -> AverageComparabilityReport:
    """Tabulate the four p-averages on every rectangle and check their order.

    Checks the two Jensen-type inequalities <w^{1/p}> <= <w>^{1/p} and
    <w^{-1/p}>^{-1} <= <w^{1/p}> on each rectangle (up to float slack),
    raising RuntimeError otherwise.
    """
    _check_exponent(p)
    table = np.stack([
        rectangle_means(w.values ** (1.0 / p)),
        rectangle_means(w.values) ** (1.0 / p),
        rectangle_means(w.values ** (-1.0 / (p - 1.0))) ** (-(p - 1.0) / p),
        1.0 / rectangle_means(w.values ** (-1.0 / p)),
    ], axis=1)
    slack = 1.0 + 1e-12
    if not np.all(table[:, 0] <= table[:, 1] * slack):
        raise RuntimeError("found <w^{1/p}> above <w>^{1/p}")
    if not np.all(table[:, 3] <= table[:, 0] * slack):
        raise RuntimeError("harmonic average above direct average")
    return AverageComparabilityReport(p, rectangle_table(w.depth).rects, table)


def random_cascade_weight(depth: int, strength: float,
                          rng: int | np.random.Generator | None = None,
                          role: str = "generic") -> Weight:
    """Multiplicative cascade weight with perturbation size ``strength``.

    Level by level each cell splits in four; a random axis of the parent
    is picked, one half (chosen at random) is multiplied by 1 + eps and
    the other by 1/(1 + eps) with eps uniform on [0, strength].  The
    construction preserves positivity, is deterministic per seed, and at
    strength 0 returns the constant weight 1.
    """
    if strength < 0:
        raise ValueError("strength must be non-negative")
    rng = ensure_rng(rng)
    vals = np.ones((1, 1))
    for lev in range(depth):
        m = 1 << lev
        eps = rng.uniform(0.0, strength, (m, m)) if strength > 0 else np.zeros((m, m))
        axis = rng.integers(0, 2, (m, m))      # 0: split along x, 1: along y
        flip = rng.integers(0, 2, (m, m))      # which half gets the boost
        up = np.where(flip == 0, 1.0 + eps, 1.0 / (1.0 + eps))
        down = np.where(flip == 0, 1.0 / (1.0 + eps), 1.0 + eps)
        x_split = axis == 0
        fx_lo = np.where(x_split, up, 1.0)
        fx_hi = np.where(x_split, down, 1.0)
        fy_lo = np.where(x_split, 1.0, up)
        fy_hi = np.where(x_split, 1.0, down)
        factors = np.empty((2 * m, 2 * m))
        factors[0::2, 0::2] = fx_lo * fy_lo
        factors[0::2, 1::2] = fx_lo * fy_hi
        factors[1::2, 0::2] = fx_hi * fy_lo
        factors[1::2, 1::2] = fx_hi * fy_hi
        vals = np.kron(vals, np.ones((2, 2))) * factors
    vals = np.clip(vals, WEIGHT_FLOOR, WEIGHT_CEIL)
    return Weight(GridFunction2D(depth, vals), role)
