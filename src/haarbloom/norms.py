"""Weighted norms, square functions, and BMO-type suprema on the grid.

The product BMO norm of a symbol against a weight pair is a supremum
over unions of cells ("shadows") of a localized square-function norm
divided by a measure of the union.  On a depth-N grid the supremum is a
finite max over non-empty cell masks, so an exact (exponential) search
exists at small depth alongside a practical heuristic search; both
return the witness mask they selected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import (
    DyadicRectangle,
    GridFunction2D,
    RectangleCollection,
    Shadow,
    all_rectangles,
    block_means,
    cancellative_rectangles,
    ensure_rng,
    haar_forward,
)
from .weights import Weight

#: deepest grid whose cell masks the exact BMO search enumerates (2^16 - 1 masks)
EXACT_MAX_DEPTH = 2
#: masks scored together by the exact search
EXACT_BLOCK = 4096


def lp_weighted_norm(f: GridFunction2D, w: Weight, p: float) -> float:
    """Norm of f in L^p of the weighted measure w dx."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if w.depth != f.depth:
        raise ValueError("weight and function disagree on depth")
    area = 4.0 ** (-f.depth)
    return float((np.abs(f.values) ** p * w.values).sum() * area) ** (1.0 / p)


def _included_rects(depth: int, region) -> list[DyadicRectangle]:
    if region is None:
        return cancellative_rectangles(depth)
    if isinstance(region, Shadow):
        if region.depth != depth:
            raise ValueError("shadow and function disagree on depth")
        return [r for r in cancellative_rectangles(depth) if region.contains_rect(r)]
    if isinstance(region, RectangleCollection):
        return list(region)
    raise TypeError(f"unsupported region {type(region).__name__}")


def square_function(f: GridFunction2D,
                    region: Shadow | RectangleCollection | None = None) -> GridFunction2D:
    """Rectangular Littlewood-Paley square function, optionally localized.

    ``region=None`` sums over every cancellative rectangle; a shadow
    restricts to rectangles inside the mask; an explicit collection is
    used as given (rectangles too fine for the grid contribute nothing).
    """
    coeffs = haar_forward(f)
    s2 = np.zeros_like(f.values)
    for r in _included_rects(f.depth, region):
        if r.x.level >= f.depth or r.y.level >= f.depth:
            continue
        c = coeffs.coefficient(r)
        s2[r.cell_box(f.depth)] += c * c / r.area
    return GridFunction2D(f.depth, np.sqrt(s2))


def triebel_lizorkin_square_function(f: GridFunction2D, w: Weight, p: float) -> GridFunction2D:
    """Square function with each rectangle term damped by <w>_R^{2/p}."""
    if w.depth != f.depth:
        raise ValueError("weight and function disagree on depth")
    coeffs = haar_forward(f)
    s2 = np.zeros_like(f.values)
    for r in cancellative_rectangles(f.depth):
        c = coeffs.coefficient(r)
        damp = w.values[r.cell_box(f.depth)].mean() ** (2.0 / p)
        s2[r.cell_box(f.depth)] += c * c / r.area * damp
    return GridFunction2D(f.depth, np.sqrt(s2))


def strong_maximal(f: GridFunction2D) -> GridFunction2D:
    """Pointwise sup over dyadic rectangles through the point of |average of f|."""
    out = np.zeros_like(f.values)
    absf = np.abs(f.values)
    for lx in range(f.depth + 1):
        for ly in range(f.depth + 1):
            means = block_means(absf, lx, ly)
            sx, sy = f.values.shape[0] >> lx, f.values.shape[1] >> ly
            np.maximum(out, np.kron(means, np.ones((sx, sy))), out=out)
    return GridFunction2D(f.depth, out)


# ---------------------------------------------------------------------------
# BMO searches
# ---------------------------------------------------------------------------

@dataclass
class BmoResult:
    """A BMO-type supremum together with the witness that attains it."""

    value: float
    strategy: str
    witness: Shadow | DyadicRectangle

    def as_dict(self) -> dict:
        if isinstance(self.witness, Shadow):
            wit = {"mask": self.witness.to_hex()}
        else:
            wit = {"rect": {"lx": self.witness.x.level, "ix": self.witness.x.index,
                            "ly": self.witness.y.level, "iy": self.witness.y.index}}
        return {"value": self.value, "strategy": self.strategy, "witness": wit}


class _MaskObjective:
    """Shared machinery: evaluate the localized ratio on arbitrary cell masks."""

    def __init__(self, b: GridFunction2D, mu: Weight, lam: Weight, p: float):
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if not (b.depth == mu.depth == lam.depth):
            raise ValueError("symbol and weights disagree on depth")
        self.depth = b.depth
        self.p = p
        n = 1 << b.depth
        self.cells = n * n
        area = 4.0 ** (-b.depth)
        coeffs = haar_forward(b)
        self.rect_cells: list[np.ndarray] = []
        self.rect_energy: list[float] = []
        for r in cancellative_rectangles(b.depth):
            flat = np.zeros((n, n), bool)
            flat[r.cell_box(b.depth)] = True
            self.rect_cells.append(flat.ravel())
            c = coeffs.coefficient(r)
            self.rect_energy.append(c * c / r.area)
        self.lam_cell = lam.values.ravel() * area
        self.mu_cell = mu.values.ravel() * area

    def value(self, mask: np.ndarray) -> float:
        """Localized square-function norm over the mask divided by mu(mask)^{1/p}."""
        s2 = np.zeros(self.cells)
        for cells, energy in zip(self.rect_cells, self.rect_energy):
            if mask[cells].all():
                s2 += energy * cells
        num = float((s2 ** (self.p / 2.0)) @ self.lam_cell) ** (1.0 / self.p)
        den = float(self.mu_cell[mask].sum()) ** (1.0 / self.p)
        return num / den

    def shadow(self, mask: np.ndarray) -> Shadow:
        n = 1 << self.depth
        return Shadow(mask.reshape(n, n))


def _exact_search(obj: _MaskObjective) -> tuple[float, np.ndarray]:
    """Enumerate every non-empty cell mask; exponential, so small depth only.

    Restricting the supremum to masks loses nothing: any rectangle family
    is dominated by the family of all rectangles inside its shadow (same
    mask, more non-negative square-function terms), which *is* one of the
    enumerated masks, and the denominator only sees the mask.  Masks are
    scored in blocks of ``EXACT_BLOCK`` so that memory stays flat.
    """
    if obj.depth > EXACT_MAX_DEPTH:
        raise ValueError(f"exact search is limited to depth <= {EXACT_MAX_DEPTH} "
                         f"(65535 masks)")
    shifts = np.arange(obj.cells, dtype=np.uint32)
    rects = []
    for cells, energy in zip(obj.rect_cells, obj.rect_energy):
        rbit = np.uint32((1 << np.flatnonzero(cells)).sum())
        rects.append((rbit, energy * cells))
    best, best_bits = -np.inf, None
    count = 1 << obj.cells
    for start in range(1, count, EXACT_BLOCK):
        masks = np.arange(start, min(start + EXACT_BLOCK, count), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts) & 1).astype(bool)
        s2 = np.zeros((len(masks), obj.cells))
        for rbit, row in rects:
            s2[(masks & rbit) == rbit] += row
        nums = ((s2 ** (obj.p / 2.0)) @ obj.lam_cell) ** (1.0 / obj.p)
        dens = (bits @ obj.mu_cell) ** (1.0 / obj.p)
        ratios = nums / dens
        idx = int(np.argmax(ratios))
        if ratios[idx] > best:        # ties: first mask in integer order
            best, best_bits = float(ratios[idx]), bits[idx].copy()
    return best, best_bits


def _grow_greedily(obj: _MaskObjective, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Steepest-ascent cell additions until no flip improves the ratio."""
    mask = mask.copy()
    best = obj.value(mask)
    while True:
        gain_cell, gain_value = -1, best
        for cell in np.flatnonzero(~mask):
            mask[cell] = True
            v = obj.value(mask)
            mask[cell] = False
            if v > gain_value * (1.0 + 1e-14):
                gain_cell, gain_value = cell, v
        if gain_cell < 0:
            return best, mask
        mask[gain_cell] = True
        best = gain_value


def _heuristic_search(obj: _MaskObjective, restarts: int, seed) -> tuple[float, np.ndarray]:
    """Candidate shadows + steepest-ascent growth; exact-search oracle's cheap rival.

    Candidate families: every dyadic rectangle, pairwise unions of the
    cancellative ones, superlevel sets of the square function and of the
    strong maximal function of the symbol, the full square, and seeded
    random masks.  The best few candidates are grown greedily.
    """
    rng = ensure_rng(seed)
    n = 1 << obj.depth
    candidates: list[np.ndarray] = []

    def add(mask2d: np.ndarray) -> None:
        flat = mask2d.ravel().astype(bool)
        if flat.any():
            candidates.append(flat)

    zeros = np.zeros((n, n), bool)
    for r in all_rectangles(obj.depth):
        m = zeros.copy()
        m[r.cell_box(obj.depth)] = True
        add(m)
    cc = cancellative_rectangles(obj.depth)
    for i in range(len(cc)):
        for j in range(i + 1, len(cc)):
            m = zeros.copy()
            m[cc[i].cell_box(obj.depth)] = True
            m[cc[j].cell_box(obj.depth)] = True
            add(m)
    s2_field = np.zeros(obj.cells)
    for cells, energy in zip(obj.rect_cells, obj.rect_energy):
        s2_field += energy * cells
    fields = [s2_field]
    heights = np.zeros(obj.cells)
    for cells, energy in zip(obj.rect_cells, obj.rect_energy):
        np.maximum(heights, energy * cells, out=heights)
    fields.append(heights)
    for field in fields:
        for t in np.unique(field):
            add((field >= t).reshape(n, n))
    add(np.ones((n, n), bool))
    for _ in range(restarts):
        add(rng.random((n, n)) < 0.5)

    scored = sorted(((obj.value(m), i) for i, m in enumerate(candidates)), reverse=True)
    best, best_mask = scored[0][0], candidates[scored[0][1]]
    for _, i in scored[:5]:
        value, mask = _grow_greedily(obj, candidates[i])
        if value > best:
            best, best_mask = value, mask
    return best, best_mask


def bmo_prod_two_weight(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                        strategy: str = "exact", restarts: int = 8,
                        seed: int | np.random.Generator | None = 0) -> BmoResult:
    """Two-weight product BMO norm of a symbol, with witness shadow.

    ``strategy="exact"`` enumerates all cell masks (depth <= 2);
    ``"heuristic"`` runs the candidate/greedy search at any depth the
    desk-scale budget allows.
    """
    obj = _MaskObjective(b, mu, lam, p)
    if strategy == "exact":
        value, mask = _exact_search(obj)
    elif strategy == "heuristic":
        value, mask = _heuristic_search(obj, restarts, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return BmoResult(value, strategy, obj.shadow(mask))


def bmo_prod_one_weight(b: GridFunction2D, nu: Weight, strategy: str = "exact",
                        restarts: int = 8,
                        seed: int | np.random.Generator | None = 0) -> BmoResult:
    """One-weight (Bloom) product BMO: the pair (nu, nu^{-1}) at exponent 2."""
    inv = Weight(GridFunction2D(nu.depth, 1.0 / nu.values), "lambda")
    return bmo_prod_two_weight(b, nu, inv, 2.0, strategy, restarts, seed)


def little_bmo(b: GridFunction2D, mu: Weight, lam: Weight, p: float) -> BmoResult:
    """Rectangle-wise oscillation norm: sup over single dyadic rectangles.

    Exact by enumeration; ties keep the first rectangle coarse-first.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not (b.depth == mu.depth == lam.depth):
        raise ValueError("symbol and weights disagree on depth")
    area = 4.0 ** (-b.depth)
    best, best_rect = -np.inf, None
    for r in all_rectangles(b.depth):
        box = r.cell_box(b.depth)
        osc = np.abs(b.values[box] - b.values[box].mean())
        num = float((osc ** p * lam.values[box]).sum() * area) ** (1.0 / p)
        den = float(mu.values[box].sum() * area) ** (1.0 / p)
        ratio = num / den
        if ratio > best:
            best, best_rect = ratio, r
    return BmoResult(best, "exact", best_rect)
