"""Weighted norms, square functions, and BMO-type suprema on the grid.

The product BMO norm of a symbol against a weight pair is a supremum
over unions of cells ("shadows") of a localized square-function norm
divided by a measure of the union.  On a depth-N grid the supremum is a
finite max over the ``2^(4^N) - 1`` non-empty cell masks, and it is
attained on the ``2^(4^(N-1)) - 1`` unions of finest cancellative
rectangles, so an exact (exponential) search exists at small depth
alongside a practical heuristic search; both return the witness mask
they selected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import (
    DyadicRectangle,
    GridFunction2D,
    RectangleCollection,
    Shadow,
    ensure_rng,
    haar_forward,
    rectangle_incidence,
    rectangle_means,
    rectangle_sums,
    rectangle_table,
    rectangles_inside,
)
from .weights import Weight

#: deepest grid the exact BMO search runs on (2^4 - 1 unions of finest rectangles)
EXACT_MAX_DEPTH = 2
#: deepest grid the heuristic BMO search runs on: at depth 4 a symbol takes about
#: 0.33 s, and its pairwise-union candidates fill a 5.8 MB table cached per depth
#: (built once in about 0.05 s) and a 5.8 MB stack per symbol; each is 0.47 GB at
#: depth 5 and about 32 GB at depth 6
HEURISTIC_MAX_DEPTH = 4
#: cells (masks x cells per mask) the BMO objective scores in one block
BLOCK_CELLS = 16384


def lp_weighted_norm(f: GridFunction2D, w: Weight, p: float) -> float:
    """Norm of f in L^p of the weighted measure w dx."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if w.depth != f.depth:
        raise ValueError("weight and function disagree on depth")
    area = 4.0 ** (-f.depth)
    return float((np.abs(f.values) ** p * w.values).sum() * area) ** (1.0 / p)


def _energies(f: GridFunction2D) -> np.ndarray:
    """``f_R^2 / |R|`` on every rectangle; zero padding of the table gives level-N ones none."""
    table = rectangle_table(f.depth)
    c = np.pad(haar_forward(f).table, (0, 1 << f.depth))[tuple(table.slots.T)]
    return c * c / table.area


def _square_sum(per_rect: np.ndarray, depth: int) -> GridFunction2D:
    """Square root of the sum of ``per_rect[R] 1_R``, added level pair by level pair."""
    return GridFunction2D(depth, np.sqrt(per_rect[rectangle_table(depth).owner].sum(axis=0)))


def square_function(f: GridFunction2D,
                    region: Shadow | RectangleCollection | None = None) -> GridFunction2D:
    """Rectangular Littlewood-Paley square function, optionally localized.

    ``region=None`` sums over every cancellative rectangle; a shadow
    restricts to rectangles inside the mask; an explicit collection is
    used as given: a repeated rectangle counts once per occurrence, and
    rectangles too fine for the grid contribute nothing.
    """
    if region is None:
        counts = 1.0
    elif isinstance(region, Shadow):
        if region.depth != f.depth:
            raise ValueError("shadow and function disagree on depth")
        counts = rectangle_sums(~region.mask) == 0
    elif isinstance(region, RectangleCollection):
        table = rectangle_table(f.depth)
        rows = [table.row(r) for r in region if max(r.x.level, r.y.level) < f.depth]
        counts = np.bincount(np.array(rows, dtype=int), minlength=len(table.area))
    else:
        raise TypeError(f"unsupported region {type(region).__name__}")
    return _square_sum(_energies(f) * counts, f.depth)


def triebel_lizorkin_square_function(f: GridFunction2D, w: Weight, p: float) -> GridFunction2D:
    """Square function with each rectangle term damped by <w>_R^{2/p}."""
    if w.depth != f.depth:
        raise ValueError("weight and function disagree on depth")
    return _square_sum(_energies(f) * rectangle_means(w.values) ** (2.0 / p), f.depth)


def strong_maximal(f: GridFunction2D) -> GridFunction2D:
    """Pointwise sup over dyadic rectangles through the point of |average of f|."""
    means = rectangle_means(np.abs(f.values))
    return GridFunction2D(f.depth, means[rectangle_table(f.depth).owner].max(axis=0))


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
            wit = {"rect": self.witness.as_dict()}
        return {"value": self.value, "strategy": self.strategy, "witness": wit}


class _MaskObjective:
    """The localized ratio ``||S_mask b||_{L^p(lam)} / mu(mask)^{1/p}`` on stacks of cell masks."""

    def __init__(self, b: GridFunction2D, mu: Weight, lam: Weight, p: float):
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if not (b.depth == mu.depth == lam.depth):
            raise ValueError("symbol and weights disagree on depth")
        self.depth = b.depth
        self.p = p
        self.cells = 4 ** b.depth
        self.energy = _energies(b)[rectangle_table(b.depth).cancellative]
        self.incidence = rectangle_incidence(b.depth)
        # covers[g, c]: the g-th rectangle holding cell c, in rectangle order
        self.covers = np.nonzero(self.incidence.T)[1].reshape(self.cells, -1).T
        self.lam_cell = lam.values.ravel() * 4.0 ** (-b.depth)
        self.mu_cell = mu.values.ravel() * 4.0 ** (-b.depth)

    def values(self, masks: np.ndarray) -> np.ndarray:
        """Ratios of a stack of raveled boolean masks, ``BLOCK_CELLS`` cells at a time."""
        out = np.empty(len(masks))
        step = max(1, BLOCK_CELLS // self.cells)
        for start in range(0, len(masks), step):
            bits = masks[start:start + step]
            inside = rectangles_inside(bits, self.depth)
            s2 = np.zeros(bits.shape)
            for cover in self.covers:       # rectangle order: blocking cannot move a bit
                np.add(s2, self.energy[cover], out=s2, where=inside[:, cover])
            # most cells see no rectangle; zeros stay zero, and pow is slow on them
            np.power(s2, self.p / 2.0, out=s2, where=s2 > 0)
            # einsum sums each row alike whatever the stack; BLAS gemv does not
            nums = np.einsum("mc,c->m", s2, self.lam_cell) ** (1.0 / self.p)
            dens = np.einsum("mc,c->m", bits, self.mu_cell) ** (1.0 / self.p)
            out[start:start + step] = nums / dens
        return out


def _exact_search(obj: _MaskObjective) -> tuple[float, np.ndarray]:
    """Score every non-empty union of finest cancellative rectangles; small depth only.

    This is the supremum over all non-empty cell masks.  A rectangle
    family is dominated by all rectangles inside its shadow (same mask,
    more non-negative terms), so masks suffice.  A mask holds the same
    rectangles as the union of the finest (level ``N-1`` by ``N-1``)
    blocks inside it, so that union has the same numerator, no larger a
    measure and no later place in integer order (bit k is raveled cell
    k).  Hence the first maximising mask is such a union: bit k of the
    enumeration index picks finest block k, and block k's highest cell
    rises with k, so index order is integer order.  A symbol with no
    energy scores 0 everywhere; its first mask is cell 0 alone.
    """
    if obj.depth > EXACT_MAX_DEPTH:
        raise ValueError(f"exact search is limited to depth <= {EXACT_MAX_DEPTH} "
                         "(15 unions of finest rectangles)")
    table = rectangle_table(obj.depth)
    finest = table.cells[(table.levels == obj.depth - 1).all(axis=1)]
    picks = np.arange(1, 1 << len(finest))[:, None] >> np.arange(len(finest)) & 1
    unions = picks.astype(bool) @ finest
    ratios = obj.values(unions)
    idx = int(np.argmax(ratios))
    if ratios[idx] == 0.0:
        return 0.0, np.arange(obj.cells) == 0
    return float(ratios[idx]), unions[idx]


def _grow_greedily(obj: _MaskObjective, mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Steepest ascent: each step adds the best cell; a later cell must win by 1e-14 relative."""
    mask = mask.copy()
    best = float(obj.values(mask[None])[0])
    while True:
        free = np.flatnonzero(~mask)
        grown = mask | np.eye(obj.cells, dtype=bool)[free]
        gain_cell, gain_value = -1, best
        for cell, v in zip(free, obj.values(grown).tolist()):
            if v > gain_value * (1.0 + 1e-14):
                gain_cell, gain_value = cell, v
        if gain_cell < 0:
            return best, mask
        mask[gain_cell] = True
        best = gain_value


@lru_cache(maxsize=None)
def _candidate_table(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached read-only distinct symbol-free candidates of the heuristic search.

    The candidates are every rectangle's cells, then the pairwise unions
    of the cancellative ones; ``rows[inverse]`` rebuilds that list.
    """
    incidence = rectangle_incidence(depth)
    first, second = np.triu_indices(len(incidence), 1)
    masks = np.concatenate([rectangle_table(depth).cells, incidence[first] | incidence[second]])
    # np.unique sorts rows of uint64 words about 40 times as fast as rows of bools at depth 4
    words = np.packbits(masks, axis=1)
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)
    _, keep, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
    rows, inverse = masks[keep], inverse.reshape(-1)
    rows.flags.writeable = inverse.flags.writeable = False
    return rows, inverse


def _heuristic_search(obj: _MaskObjective, restarts: int, seed) -> tuple[float, np.ndarray]:
    """Candidate shadows + steepest-ascent growth; exact-search oracle's cheap rival.

    Candidate families: every dyadic rectangle, pairwise unions of the
    cancellative ones (both from ``_candidate_table``), superlevel sets of
    the squared square function of the symbol and of the pointwise
    maximum rectangle energy ``max_R b_R^2 / |R|`` over the rectangles
    holding a cell, the full square, and seeded random masks.  Each
    distinct mask is scored once, all in one call; the best five
    candidates (ties to the later one) are grown greedily, each distinct
    start once: a repeat would return the same value, which cannot beat
    the best strictly.
    """
    rng = ensure_rng(seed)
    rows, inverse = _candidate_table(obj.depth)
    cover_energy = obj.energy[obj.covers]      # cumsum adds in rectangle order, as values() does
    own = np.concatenate(
        [field >= np.unique(field)[:, None]
         for field in (cover_energy.cumsum(axis=0)[-1], cover_energy.max(axis=0))]
        + [np.ones((1, obj.cells), bool), rng.random((restarts, obj.cells)) < 0.5])
    masks = np.concatenate([rows, own[own.any(axis=1)]])
    # candidate i is masks[index[i]]; scores do not depend on the stack
    index = np.concatenate([inverse, np.arange(len(rows), len(masks))])
    values = obj.values(masks)[index]

    top = np.lexsort((np.arange(len(index)), values))[::-1][:5]
    best, best_mask = float(values[top[0]]), masks[index[top[0]]]
    starts = {mask.tobytes(): mask for mask in masks[index[top]]}     # distinct, first-seen order
    for start in starts.values():
        value, mask = _grow_greedily(obj, start)
        if value > best:
            best, best_mask = value, mask
    return best, best_mask


def bmo_prod_two_weight(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                        strategy: str = "exact", restarts: int = 8,
                        seed: int | np.random.Generator | None = 0) -> BmoResult:
    """Two-weight product BMO norm of a symbol, with witness shadow.

    ``strategy="exact"`` takes the supremum over all ``2^(4^N) - 1``
    non-empty cell masks (depth <= 2) by scoring the ``2^(4^(N-1)) - 1``
    unions of finest rectangles, where it is attained;
    ``"heuristic"`` runs the candidate/greedy search (depth <= 4).
    """
    if strategy == "heuristic" and b.depth > HEURISTIC_MAX_DEPTH:
        raise ValueError(f"heuristic search is limited to depth <= {HEURISTIC_MAX_DEPTH}: "
                         f"its candidates are every pair of cancellative rectangles")
    obj = _MaskObjective(b, mu, lam, p)
    if strategy == "exact":
        value, mask = _exact_search(obj)
    elif strategy == "heuristic":
        value, mask = _heuristic_search(obj, restarts, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return BmoResult(value, strategy, Shadow(mask.reshape(1 << b.depth, -1).copy()))


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
    table = rectangle_table(b.depth)
    osc = np.abs(b.values - rectangle_means(b.values)[table.owner])
    num = (rectangle_sums(osc ** p * lam.values) * area) ** (1.0 / p)
    den = (rectangle_sums(mu.values) * area) ** (1.0 / p)
    ratios = num / den
    best = int(np.argmax(ratios))
    return BmoResult(float(ratios[best]), "exact", table.rects[best])
