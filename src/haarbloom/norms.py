"""Weighted norms, square functions, and BMO-type suprema on the grid.

The product BMO norm of a symbol against a weight pair is a supremum
over unions of cells ("shadows") of a localized square-function norm
divided by a measure of the union.  On a depth-N grid the supremum is a
finite max over the ``2^(4^N) - 1`` non-empty cell masks, and it is
attained on the ``2^(4^(N-1)) - 1`` unions of finest cancellative
rectangles, so an exact (exponential) search exists at small depth
alongside a practical heuristic search; both return the witness mask
they selected.  Both score a mask cell by cell through a per-symbol table
of the ``C(2N, N)`` sets of rectangles a mask can leave inside it at a
cell, so the energies are summed once per table entry, not once per mask;
``bmo_prod_norms`` builds the table once and hands it to each pair's objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import (
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    best_first,
    check_depths,
    check_exponent,
    check_finite,
    ensure_rng,
    haar_forward,
    level_pair_sums,
    rectangle_incidence,
    rectangle_means,
    rectangle_sums,
    rectangle_table,
    rectangles_inside,
)
from .weights import Weight

#: the BMO searches: every union of finest rectangles, or the best of the candidates
STRATEGIES = ("exact", "heuristic")
#: deepest grid the exact BMO search runs on (2^4 - 1 unions of finest rectangles)
EXACT_MAX_DEPTH = 2
#: deepest grid the heuristic BMO search, and the mask scoring of both searches,
#: run on: at depth 4 a symbol takes about 4 ms with one BLAS thread; the pairwise-union
#: candidates fill a 5.6 MB table and their pattern ids another 5.6 MB, cached per
#: depth (the first call builds both in about 0.13 s); each is 0.47 GB at depth 5, whose
#: 2^25 level-pair codes also outgrow the exact float32 product that finds them
HEURISTIC_MAX_DEPTH = 4
#: cells (masks x cells per mask) the BMO objective scores in one block
BLOCK_CELLS = 16384
#: seeded random masks among the heuristic search's candidates: a generator's later draws
#: (``jn``'s two-weight search, after its one-weight one in :func:`bmo_prod_norms`) and a
#: zero symbol's witness, the last one, hang on them
HEURISTIC_RESTARTS = 8


def lp_weighted_norm(f: GridFunction2D, w: Weight, p: float) -> float:
    """Norm of f in L^p of the weighted measure w dx."""
    check_exponent(p)
    check_depths("weight and function", w.depth, f.depth)
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
                    region: Shadow | list | tuple | None = None) -> GridFunction2D:
    """Rectangular Littlewood-Paley square function, optionally localized.

    ``region=None`` sums over every cancellative rectangle; a shadow
    restricts to rectangles inside the mask; a list or tuple of rectangles
    is used as given: a repeated rectangle counts once per occurrence, and
    rectangles too fine for the grid contribute nothing.
    """
    if region is None:
        counts = 1.0
    elif isinstance(region, Shadow):
        check_depths("shadow and function", region.depth, f.depth)
        counts = rectangle_sums(~region.mask) == 0
    elif isinstance(region, (list, tuple)):
        table = rectangle_table(f.depth)
        rows = [table.row(r) for r in region if max(r.x.level, r.y.level) < f.depth]
        counts = np.bincount(np.array(rows, dtype=int), minlength=len(table.area))
    else:
        raise TypeError(f"unsupported region {type(region).__name__}")
    return _square_sum(_energies(f) * counts, f.depth)


def triebel_lizorkin_square_function(f: GridFunction2D, w: Weight, p: float) -> GridFunction2D:
    """Square function with each rectangle term damped by <w>_R^{2/p}."""
    check_depths("weight and function", w.depth, f.depth)
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
        wit = ({"mask": self.witness.to_hex()} if isinstance(self.witness, Shadow)
               else {"rect": self.witness.as_dict()})
        return {"value": self.value, "strategy": self.strategy, "witness": wit}


@lru_cache(maxsize=None)
def _upset_tables(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached read-only ``(members, weights, lookup, covers)`` naming the pattern of each
    (mask, cell).

    The cancellative rectangles through a cell that lie inside a mask form
    an up-set of level pairs ``g = lx * N + ly``: a finer rectangle through
    the cell lies inside a coarser one.  An up-set keeps, for each ``lx``,
    the ``ly`` from a floor that does not rise with ``lx``, so there are
    ``C(2N, N)`` of them; ``members[k, g]`` says whether up-set k holds
    level pair g.  ``weights[r, c]`` is ``2^g`` on the cells of
    cancellative rectangle r of level pair g, so ``rectangles_inside @
    weights`` spells each pattern's level pairs in binary (exactly: a sum
    of distinct powers of two below ``2^16``), and ``lookup`` maps that
    code to the up-set's row.  ``covers[g, c]`` is the g-th rectangle holding
    cell c, in rectangle order (level pair g).
    """
    if depth > HEURISTIC_MAX_DEPTH:
        raise ValueError(f"BMO masks are scored up to depth <= {HEURISTIC_MAX_DEPTH}, "
                         f"got {depth}")
    floors = np.array(list(itertools.combinations_with_replacement(range(depth + 1), depth)))
    members = (np.arange(depth) >= floors[:, ::-1, None]).reshape(len(floors), -1)
    lookup = np.full(1 << depth * depth, 255, np.uint8)
    lookup[members @ (1 << np.arange(depth * depth))] = np.arange(len(members))
    table = rectangle_table(depth)
    levels = table.levels[table.cancellative]
    weights = (rectangle_incidence(depth) * (1 << levels @ [depth, 1])[:, None]).astype(np.float32)
    covers = np.nonzero(rectangle_incidence(depth).T)[1].reshape(4 ** depth, -1).T
    for array in (members, weights, lookup, covers):
        array.flags.writeable = False
    return members, weights, lookup, covers


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, ascending, as ``np.unique`` gives them, without
    its ``np.ma.is_masked`` check: that imports ``numpy.ma``, about 10 ms of a process start
    on a 2-vCPU Xeon."""
    ranked = np.sort(values)
    return ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]


def _pattern_ids(masks: np.ndarray) -> np.ndarray:
    """``ids[m, c]``: the up-set of raveled mask m's rectangles through cell c, as ``uint8``."""
    depth = (masks.shape[1].bit_length() - 1) // 2
    _, weights, lookup, _ = _upset_tables(depth)
    ids = np.empty(masks.shape, np.uint8)
    step = max(1, BLOCK_CELLS // masks.shape[1])
    for start in range(0, len(masks), step):
        codes = rectangles_inside(masks[start:start + step], depth).astype(np.float32) @ weights
        ids[start:start + step] = lookup[codes.astype(np.intp)]
    return ids


class _SymbolTable:
    """What the BMO objective takes from the symbol alone: ``sums[c, k]``, the energies of
    up-set k's rectangles through cell c summed in rectangle order, the bits a sum over one
    mask's rectangles through c gives whenever they are up-set k."""

    def __init__(self, b: GridFunction2D):
        check_finite("a symbol", b.values)
        self.depth, self.cells = b.depth, 4 ** b.depth
        self.energy = _energies(b)[rectangle_table(b.depth).cancellative]
        members, _, _, self.covers = _upset_tables(b.depth)
        self.sums = np.zeros((self.cells, len(members)))
        for member, cover in zip(members.T, self.covers):
            np.add(self.sums, self.energy[cover][:, None], out=self.sums, where=member)

    @cached_property
    def superlevel(self) -> tuple[np.ndarray, np.ndarray]:
        """The heuristic's candidates made from the symbol, with their ``_pattern_ids``, built
        on first use: superlevel sets of the squared square function and of the pointwise
        maximum ``max_R b_R^2 / |R|`` over the rectangles holding a cell, and the full square."""
        cover_energy = self.energy[self.covers]     # cumsum adds in rectangle order, as sums do
        fields = (cover_energy.cumsum(axis=0)[-1], cover_energy.max(axis=0))
        masks = np.concatenate([field >= _distinct(field)[:, None] for field in fields]
                               + [np.ones((1, self.cells), bool)])
        return masks, _pattern_ids(masks)


class _MaskObjective:
    """The localized ratio ``||S_mask b||_{L^p(lam)} / mu(mask)^{1/p}`` on stacks of cell masks:
    ``patterns`` is ``symbol.sums ** (p/2)`` of the symbol's table."""

    def __init__(self, symbol: _SymbolTable, mu: Weight, lam: Weight, p: float):
        check_exponent(p)
        check_depths("symbol and weights", symbol.depth, mu.depth, lam.depth)
        self.symbol, self.depth, self.cells, self.p = symbol, symbol.depth, symbol.cells, p
        self.lam_cell, self.mu_cell = (w.values.ravel() * 4.0 ** (-symbol.depth) for w in (lam, mu))
        sums = symbol.sums      # zeros stay zero, and pow is slow on them
        self.patterns = np.power(sums, p / 2.0, out=sums.copy(), where=sums > 0)
        # patterns.take(ids + offsets) reads patterns[c, ids[m, c]]
        self.offsets = np.arange(self.cells) * sums.shape[1]

    def values(self, masks: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Ratios of a stack of raveled boolean masks with their ``_pattern_ids``,
        ``BLOCK_CELLS`` cells at a time."""
        out = np.empty(len(masks))
        step = max(1, BLOCK_CELLS // self.cells)
        for start in range(0, len(masks), step):
            bits = masks[start:start + step]
            s2 = self.patterns.take(ids[start:start + step] + self.offsets)
            # einsum sums each row alike whatever the stack; BLAS gemv does not
            nums = np.einsum("mc,c->m", s2, self.lam_cell) ** (1.0 / self.p)
            dens = np.einsum("mc,c->m", bits, self.mu_cell) ** (1.0 / self.p)
            out[start:start + step] = nums / dens
        return out


@lru_cache(maxsize=None)
def _finest_unions(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached read-only ``(unions, ids)``: every non-empty union of finest cancellative
    rectangles, bit k of ``row + 1`` picking finest block k, with its ``_pattern_ids``."""
    table = rectangle_table(depth)
    finest = table.cells[(table.levels == depth - 1).all(axis=1)]
    picks = np.arange(1, 1 << len(finest))[:, None] >> np.arange(len(finest)) & 1
    unions = picks.astype(bool) @ finest
    ids = _pattern_ids(unions)
    unions.flags.writeable = ids.flags.writeable = False
    return unions, ids


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
    unions, ids = _finest_unions(obj.depth)
    ratios = obj.values(unions, ids)
    idx = int(np.argmax(ratios))
    if ratios[idx] == 0.0:
        return 0.0, np.arange(obj.cells) == 0
    return float(ratios[idx]), unions[idx]


@lru_cache(maxsize=None)
def _candidate_table(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached read-only distinct symbol-free candidates of the heuristic search.

    The candidates are every rectangle's cells, then the pairwise unions
    of the cancellative ones; ``rows[inverse]`` rebuilds that list, and
    ``ids`` are the rows' ``_pattern_ids``.  Two dyadic rectangles meet in
    one or not at all, so row r sums as table rows ``a + b - c`` for
    ``(a, b, c) = parts[:, r]``, where a row past the table is the empty set.
    """
    table, incidence = rectangle_table(depth), rectangle_incidence(depth)
    first, second = np.triu_indices(len(incidence), 1)
    a, b = np.flatnonzero(table.cancellative)[[first, second]]
    shared, none = incidence[first] & incidence[second], len(table.area)
    meet = table.owner.reshape(len(table.owner), -1)[      # the finer levels, a shared cell
        np.maximum(table.levels[a], table.levels[b]) @ [depth + 1, 1], shared.argmax(axis=1)]
    parts = np.concatenate([np.arange(none)[:, None] * [1, 0, 0] + [0, none, none],
                            np.stack([a, b, np.where(shared.any(axis=1), meet, none)], axis=1)])
    del shared
    pairs = incidence[first]        # in place, and freed before the ids: 6.5 MB at depth 4
    pairs |= incidence[second]
    masks = np.concatenate([table.cells, pairs])
    del pairs
    # np.unique sorts rows of uint64 words about 40 times as fast as rows of bools at depth 4
    words = np.packbits(masks, axis=1)
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8))).view(np.uint64)
    _, keep, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
    rows, parts, inverse = masks[keep], np.ascontiguousarray(parts[keep].T), inverse.reshape(-1)
    del masks, words
    ids = _pattern_ids(rows)
    for array in (rows, ids, inverse, parts):
        array.flags.writeable = False
    return rows, ids, inverse, parts


def _ceilings(obj: _MaskObjective, parts: np.ndarray) -> np.ndarray:
    """Bounds, with 1e-12 relative slack, of the candidate rows' ratios: energies are
    non-negative, so a cell adds at most its full up-set's term, and nothing off the mask."""
    weights = np.stack([obj.lam_cell * obj.patterns.max(axis=1), obj.mu_cell], axis=1)
    sums = np.append(rectangle_table(obj.depth).cells @ weights, [[0.0, 0.0]], axis=0)
    num, den = (np.add(*sums.take(parts[:2], axis=0)) - sums.take(parts[2], axis=0)).T
    return num ** (1.0 / obj.p) / den ** (1.0 / obj.p) * (1.0 + 1e-12)


def _heuristic_search(obj: _MaskObjective, seed) -> tuple[float, np.ndarray]:
    """The best candidate shadow, ties to the later one; the exact search's cheap rival.

    Candidates: every dyadic rectangle, pairwise unions of the cancellative ones (both
    from ``_candidate_table``), the symbol's own (``_SymbolTable.superlevel``) and seeded
    random masks.  :func:`~haarbloom.dyadic.best_first` scores the distinct table rows by
    ceiling until one falls below the best score so far; the rest rank last.  Every
    candidate scoring above 0, a random one aside, is a union of finest blocks: a cell
    added to it completes no block and only adds measure, so greedy growth could move
    nothing but a random start.
    """
    rows, ids, inverse, parts = _candidate_table(obj.depth)
    shared, shared_ids = obj.symbol.superlevel
    restarts = ensure_rng(seed).random((HEURISTIC_RESTARTS, obj.cells)) < 0.5
    restarts = restarts[restarts.any(axis=1)]
    own = np.concatenate([shared, restarts])
    own_values = obj.values(own, np.concatenate([shared_ids, _pattern_ids(restarts)]))
    reach = _ceilings(obj, parts)
    scored = best_first(reach, lambda r: obj.values(rows[r], ids[r]),
                        itertools.repeat(max(1, BLOCK_CELLS // obj.cells)), own_values)
    if (scored > reach).any():
        raise RuntimeError("a BMO candidate scored above its ceiling")
    # candidate i is rows[inverse[i]], then own[i - len(inverse)]; the last maximum wins
    values = np.concatenate([scored[inverse], own_values])
    i = len(values) - 1 - int(np.argmax(values[::-1]))
    return float(values[i]), rows[inverse[i]] if i < len(inverse) else own[i - len(inverse)]


def check_search(strategy: str, depth: int) -> None:
    """Refuse an unknown BMO strategy, or a grid deeper than its search's limit."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exact" and depth > (limit := EXACT_MAX_DEPTH):
        raise ValueError(f"exact search is limited to depth <= {limit} ({2 ** 4 ** (limit - 1) - 1}"
                         f" unions of finest rectangles); use strategy='heuristic'")
    if strategy == "heuristic" and depth > HEURISTIC_MAX_DEPTH:
        raise ValueError("heuristic search scores every pair of cancellative rectangles "
                         f"and is limited to depth <= {HEURISTIC_MAX_DEPTH}")


def bmo_prod_norms(b: GridFunction2D, pairs, strategy: str = "exact",
                   seed: int | np.random.Generator | None = 0) -> list[BmoResult]:
    """Two-weight product BMO norms of one symbol, with witness shadows, one for each
    ``(mu, lam, p)`` in ``pairs``; the pairs share one per-symbol table.

    ``strategy="exact"`` takes the supremum over all ``2^(4^N) - 1`` non-empty cell
    masks by scoring the ``2^(4^(N-1)) - 1`` unions of finest rectangles, where it is
    attained; ``"heuristic"`` takes the best candidate of a search seeded by ``seed`` for
    each pair in turn (a generator goes on drawing).  :func:`check_search` refuses a deeper grid.
    """
    check_search(strategy, b.depth)
    symbol, results = _SymbolTable(b), []
    for mu, lam, p in pairs:
        obj = _MaskObjective(symbol, mu, lam, p)
        value, mask = _exact_search(obj) if strategy == "exact" else _heuristic_search(obj, seed)
        results.append(BmoResult(value, strategy, Shadow(mask.reshape(1 << b.depth, -1).copy())))
    return results


def bmo_prod_two_weight(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                        strategy: str = "exact",
                        seed: int | np.random.Generator | None = 0) -> BmoResult:
    """Two-weight product BMO norm of a symbol, with witness shadow: one pair's case."""
    return bmo_prod_norms(b, [(mu, lam, p)], strategy, seed)[0]


def one_weight_pair(nu: Weight) -> tuple[Weight, Weight, float]:
    """The one-weight (Bloom) norm's pair: (nu, nu^{-1}) at exponent 2."""
    return nu, Weight._of(nu.depth, 1.0 / nu.values), 2.0


def bmo_prod_one_weight(b: GridFunction2D, nu: Weight, strategy: str = "exact",
                        seed: int | np.random.Generator | None = 0) -> BmoResult:
    """One-weight (Bloom) product BMO: the one pair :func:`one_weight_pair`."""
    return bmo_prod_norms(b, [one_weight_pair(nu)], strategy, seed)[0]


def little_bmo(b: GridFunction2D, mu: Weight, lam: Weight, p: float) -> BmoResult:
    """Rectangle-wise oscillation norm: sup over single dyadic rectangles.

    Exact by enumeration; ties keep the first rectangle coarse-first.
    """
    check_exponent(p)
    check_depths("symbol and weights", b.depth, mu.depth, lam.depth)
    check_finite("a symbol", b.values)
    area = 4.0 ** (-b.depth)
    table = rectangle_table(b.depth)
    osc = np.abs(b.values - rectangle_means(b.values)[table.owner])
    # slice k of the oscillation stack is summed over the level pair k rectangles only
    num = (level_pair_sums(osc ** p * lam.values, (), 1 << b.depth) * area) ** (1.0 / p)
    den = (rectangle_sums(mu.values) * area) ** (1.0 / p)
    ratios = num / den
    best = int(np.argmax(ratios))
    return BmoResult(float(ratios[best]), "exact", table.rects[best])
