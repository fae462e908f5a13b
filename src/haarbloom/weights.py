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
    check_depth,
    check_depths,
    check_dual_exponent,
    ensure_rng,
    rectangle_means,
    rectangle_table,
)

#: hard clamp applied by the random generator so conjugations stay finite
WEIGHT_FLOOR, WEIGHT_CEIL = 1e-8, 1e8


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

    The role ("mu", "lambda", "nu" or "generic") labels the weight for a
    reader of its ``repr``; no computation reads it, and no report or CSV
    prints it.  The values are a read-only copy, so the per-exponent
    characteristic cache cannot go stale.
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

    @classmethod
    def _of(cls, depth: int, values: np.ndarray, role: str) -> "Weight":
        """Wrap a positive float64 ``(2^depth, 2^depth)`` array read-only: no copy, no check."""
        values.flags.writeable = False
        out = object.__new__(cls)
        out.grid, out.role, out._ap_cache = GridFunction2D._of(depth, values), role, {}
        return out

    @property
    def depth(self) -> int:
        return self.grid.depth

    @property
    def values(self) -> np.ndarray:
        return self.grid.values


def constant_weight(depth: int, value: float = 1.0) -> Weight:
    n = 1 << depth
    return Weight(GridFunction2D(depth, np.full((n, n), float(value))))


def ap_characteristic(w: Weight, p: float) -> ApReport:
    """Max over all dyadic rectangles of <w>_R <w^{-1/(p-1)}>_R^{p-1}.

    The maximizing rectangle is reported; ties go to the first rectangle
    in the canonical coarse-first enumeration.  Always >= 1 by Jensen; a
    value below that floor raises RuntimeError.
    """
    check_dual_exponent(p)
    return _characteristics([(w, p)])[0]


def _characteristics(pairs: list[tuple[Weight, float]]) -> list[ApReport]:
    """Each ``(w, p)``'s cached :func:`ap_characteristic`, the rest from one stacked pass."""
    todo = [(w, p) for w, p in pairs if p not in w._ap_cache]
    if todo:
        depth = todo[0][0].depth
        means = rectangle_means(np.stack([v for w, p in todo
                                          for v in (w.values, w.values ** (-1.0 / (p - 1.0)))]))
        for (w, p), direct, recip in zip(todo, means[0::2], means[1::2]):
            prod = direct * recip ** (p - 1.0)
            row = int(np.argmax(prod))
            if not prod[row] >= 1.0 - 1e-12:
                raise RuntimeError(f"characteristic {prod[row]} below the Jensen floor")
            w._ap_cache[p] = ApReport(p, float(prod[row]), rectangle_table(depth).rects[row])
    return [w._ap_cache[p] for w, p in pairs]


def conjugate_weight(w: Weight, p: float) -> Weight:
    """Dual-exponent companion w^{-1/(p-1)}; its p'-characteristic is [w]_p^{p'-1}."""
    check_dual_exponent(p)
    return Weight(GridFunction2D(w.depth, w.values ** (-1.0 / (p - 1.0))))


def bloom_weight(mu: Weight, lam: Weight, p: float) -> Weight:
    """Intermediate weight nu = mu^{1/p} lambda^{-1/p} for a two-weight pair.

    Verifies the two structural bounds that make nu usable: its
    2-characteristic is at least 1 and at most ([mu]_p [lam]_p)^{1/p}
    (both up to float slack), raising RuntimeError otherwise; the three
    characteristics come from one stacked pass, which fills the caches.
    """
    check_dual_exponent(p)
    check_depths("weights", mu.depth, lam.depth)
    nu = Weight._of(mu.depth, (mu.values / lam.values) ** (1.0 / p), "nu")
    ap_mu, ap_lam, a2 = (r.characteristic for r in _characteristics([(mu, p), (lam, p), (nu, 2)]))
    cap = (ap_mu * ap_lam) ** (1.0 / p)
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


def average_comparability_report(w: Weight, p: float) -> AverageComparabilityReport:
    """Tabulate the four p-averages on every rectangle and check their order.

    Checks the two Jensen-type inequalities <w^{1/p}> <= <w>^{1/p} and
    <w^{-1/p}>^{-1} <= <w^{1/p}> on each rectangle (up to float slack),
    raising RuntimeError otherwise.
    """
    check_dual_exponent(p)
    root, direct, dual, harmonic = rectangle_means(
        np.stack([w.values ** (1.0 / p), w.values, w.values ** (-1.0 / (p - 1.0)),
                  w.values ** (-1.0 / p)]))
    table = np.stack([root, direct ** (1.0 / p), dual ** (-(p - 1.0) / p), 1.0 / harmonic], axis=1)
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
    check_depth(depth)
    if not 0 <= strength < np.inf:
        raise ValueError("strength must be finite and non-negative")
    rng = ensure_rng(rng)
    vals = np.ones((1, 1) if strength > 0 else (1 << depth,) * 2)
    for lev in range(depth):
        m = 1 << lev
        eps = rng.uniform(0.0, strength, (m, m)) if strength > 0 else None
        x_split = rng.integers(0, 2, (m, m)) == 0      # else split along y
        flip = rng.integers(0, 2, (m, m))              # which half gets the boost
        if eps is None:                                # strength 0: no arithmetic
            continue
        boost = 1.0 + eps[:, None]
        halves = np.where(flip[:, None] == [[0], [1]], boost, 1.0 / boost)    # [i, a, j]
        # child (2i + a, 2j + c) of cell (i, j) takes half a on an x split, half c on a y split
        factors = np.where(x_split[:, None, :, None], halves[..., None],
                           halves.transpose(0, 2, 1)[:, None])
        with np.errstate(over="ignore"):               # the clip below gives what overflows
            vals = (vals[:, None, :, None] * factors).reshape(2 * m, 2 * m)
    return Weight._of(depth, np.clip(vals, WEIGHT_FLOOR, WEIGHT_CEIL), role)
