import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    cancellative_rectangles,
    ensure_rng,
    haar_forward,
    haar_function,
    random_grid,
    random_symbol,
    rectangle_incidence,
    rectangle_table,
    rectangles_inside,
    unit_square,
)
from haarbloom import norms
from haarbloom.norms import (
    bmo_prod_norms,
    bmo_prod_one_weight,
    bmo_prod_two_weight,
    little_bmo,
    lp_weighted_norm,
    one_weight_pair,
    square_function,
    strong_maximal,
    triebel_lizorkin_square_function,
)
from haarbloom.operators import (
    SignChoice1D,
    SignChoice2D,
    axis_sign_rows,
    commutator_matrices,
    haar_multiplier,
    haar_multiplier_x,
    haar_multiplier_y,
    lambda_matrix,
    paraproduct_matrix,
    paraproduct_operator,
    restricted_projection,
    theta_operator,
)
from haarbloom.opnorm import opnorm, sup_commutator_norm
from haarbloom.weights import bloom_weight, constant_weight, random_cascade_weight


def rect(lx, ix, ly, iy):
    return DyadicRectangle(DyadicInterval(lx, ix), DyadicInterval(ly, iy))


def test_lp_weighted_norm():
    f = GridFunction2D(1, np.full((2, 2), 2.0))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert lp_weighted_norm(f, constant_weight(1), p) == pytest.approx(2.0)
    w = constant_weight(1, 4.0)
    assert lp_weighted_norm(f, w, 2) == pytest.approx(4.0)
    g = random_grid(2, 1)
    w = random_cascade_weight(2, 0.5, 2)
    direct = np.sqrt(((g.values ** 2) * w.values).mean())
    assert lp_weighted_norm(g, w, 2) == pytest.approx(direct, rel=1e-14)


def test_square_function_frozen():
    h = haar_function(unit_square(), 1)
    np.testing.assert_allclose(square_function(h).values, 1.0, atol=1e-14)


def test_square_function_localized():
    f = random_grid(2, 3)
    mask = np.zeros((4, 4), bool)
    mask[rect(1, 0, 0, 0).cell_box(2)] = True
    left = Shadow(mask)
    s = square_function(f, left)
    # rectangles inside the left half have x-interval (1,0); compare directly
    coeffs = haar_forward(f)
    expect = np.zeros((4, 4))
    for r in cancellative_rectangles(2):
        if r.x == DyadicInterval(1, 0):
            c = coeffs.coefficient(r)
            expect[r.cell_box(2)] += c * c / r.area
    np.testing.assert_allclose(s.values, np.sqrt(expect), atol=1e-14)
    # an explicit list or tuple is used verbatim
    c = coeffs.coefficient(unit_square())
    for coll in ([unit_square()], (unit_square(),)):
        np.testing.assert_allclose(square_function(f, coll).values, abs(c), atol=1e-14)
    # anything else is refused, by the projection onto the family too
    for region in ({unit_square()}, iter([unit_square()])):
        for consumer in (square_function, restricted_projection):
            with pytest.raises(TypeError, match="unsupported region"):
                consumer(f, region)


def test_square_function_counts_a_repeated_rectangle_per_occurrence():
    f = random_grid(2, 14)
    r = rect(1, 0, 0, 0)
    c = haar_forward(f).coefficient(r)
    once = square_function(f, [r]).values
    twice = square_function(f, [r, unit_square(), r]).values
    expect = np.zeros((4, 4))
    expect[r.cell_box(2)] = 2 * c * c / r.area
    expect += haar_forward(f).coefficient(unit_square()) ** 2
    np.testing.assert_allclose(twice, np.sqrt(expect), rtol=1e-14)
    np.testing.assert_allclose(once[r.cell_box(2)], abs(c) / np.sqrt(r.area), rtol=1e-14)


def test_square_function_skips_rectangles_too_fine_for_the_grid():
    f = random_grid(2, 15)
    fine = [rect(2, 1, 0, 0), rect(0, 0, 2, 3), rect(3, 5, 1, 1)]
    zero = square_function(f, fine).values
    np.testing.assert_array_equal(zero, 0.0)
    base = square_function(f, [rect(1, 1, 1, 0)]).values
    np.testing.assert_array_equal(square_function(f, fine + [rect(1, 1, 1, 0)]).values, base)
    # the projection onto the same family refuses them instead
    with pytest.raises(ValueError, match="no resolved Haar function"):
        restricted_projection(f, fine[:1])


def test_weighted_square_function_identity():
    # || S f ||_{L^2(w)}^2 equals the coefficient sum weighted by <w>_R --
    # the exact finite-grid form of the weighted Littlewood-Paley identity
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = random_grid(3, rng)
        w = random_cascade_weight(3, 0.8, rng)
        lhs = lp_weighted_norm(square_function(f), w, 2) ** 2
        coeffs = haar_forward(f)
        rhs = sum(coeffs.coefficient(r) ** 2 * w.values[r.cell_box(3)].mean()
                  for r in cancellative_rectangles(3))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_triebel_lizorkin_square_function():
    f = random_grid(2, 5)
    w = random_cascade_weight(2, 0.6, 6)
    np.testing.assert_allclose(
        triebel_lizorkin_square_function(f, constant_weight(2), 2).values,
        square_function(f).values, atol=1e-14)
    # at p = 2 its plain L2 norm matches the weighted norm of the plain one
    lhs = lp_weighted_norm(triebel_lizorkin_square_function(f, w, 2), constant_weight(2), 2)
    rhs = lp_weighted_norm(square_function(f), w, 2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_strong_maximal_frozen():
    f = GridFunction2D(1, np.array([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(strong_maximal(f).values,
                               [[1.0, 0.5], [0.5, 0.25]], atol=1e-15)


def test_strong_maximal_dominates_average():
    f = random_grid(2, 7)
    m = strong_maximal(f)
    assert np.all(m.values >= abs(f.integral()) - 1e-15)
    assert np.all(m.values >= np.abs(f.values) - 1e-15)  # finest rectangles are cells


# ---------------------------------------------------------------------------
# product BMO
# ---------------------------------------------------------------------------

def test_bmo_frozen_single_coefficient():
    # symbol with one unit coefficient on the full square: only the full
    # mask sees that rectangle, and it gives ratio exactly 1
    b = haar_function(unit_square(), 1)
    res = bmo_prod_two_weight(b, constant_weight(1), constant_weight(1), 2, "exact")
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert isinstance(res.witness, Shadow)
    assert res.witness.to_hex() == "f"
    assert res.strategy == "exact"


def test_bmo_homogeneity_and_weight_scaling():
    b = random_symbol(2, 8)
    mu, lam = constant_weight(2), constant_weight(2)
    base = bmo_prod_two_weight(b, mu, lam, 2, "exact").value
    doubled = bmo_prod_two_weight(b * 2.0, mu, lam, 2, "exact").value
    assert doubled == pytest.approx(2 * base, rel=1e-12)
    lam4 = constant_weight(2, 4.0)
    assert bmo_prod_two_weight(b, mu, lam4, 2, "exact").value == pytest.approx(2 * base, rel=1e-12)
    mu4 = constant_weight(2, 4.0)
    assert bmo_prod_two_weight(b, mu4, lam, 2, "exact").value == pytest.approx(base / 2, rel=1e-12)


def test_bmo_heuristic_never_beats_exact_and_usually_matches():
    rng = np.random.default_rng(9)
    hits = 0
    for trial in range(10):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, 0.5, rng)
        lam = random_cascade_weight(2, 0.5, rng)
        p = (1.5, 2.0, 3.0)[trial % 3]
        exact = bmo_prod_two_weight(b, mu, lam, p, "exact")
        heur = bmo_prod_two_weight(b, mu, lam, p, "heuristic", seed=trial)
        assert heur.value <= exact.value * (1 + 1e-12)
        if heur.value >= exact.value * (1 - 1e-12):
            hits += 1
        # reported witnesses must reproduce the reported values
        obj_val = bmo_prod_two_weight(b, mu, lam, p, "exact").value
        assert exact.value == pytest.approx(obj_val)
    assert hits >= 9


def mask_objective(b, mu, lam, p):
    """The BMO objective of symbol ``b`` at one pair, on a symbol table of its own."""
    return norms._MaskObjective(norms._SymbolTable(b), mu, lam, p)


def mask_ratios(obj, masks):
    """``obj``'s ratios of a stack of raveled masks, with the masks' pattern ids."""
    return obj.values(masks, norms._pattern_ids(masks))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_mask_objective_matches_the_literal_ratio(p):
    rng = np.random.default_rng(42)
    for depth in (1, 2, 3):
        n = 1 << depth
        b = random_symbol(depth, rng)
        mu = random_cascade_weight(depth, 0.7, rng)
        lam = random_cascade_weight(depth, 0.7, rng)
        masks = rng.random((40, n * n)) < rng.uniform(0.3, 0.95, (40, 1))
        masks[:, 0] = True
        got = mask_ratios(mask_objective(b, mu, lam, p), masks)
        for value, m in zip(got, masks):
            omega = Shadow(m.reshape(n, n))
            want = (lp_weighted_norm(square_function(b, omega), lam, p)
                    / (mu.values[omega.mask].sum() * 4.0 ** -depth) ** (1.0 / p))
            assert value == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_mask_scores_do_not_depend_on_the_stack(p):
    rng = np.random.default_rng(44)
    for depth in (1, 2, 3):
        cells = 4 ** depth
        b = random_symbol(depth, rng)
        mu = random_cascade_weight(depth, 0.7, rng)
        lam = random_cascade_weight(depth, 0.7, rng)
        masks = rng.random((300, cells)) < rng.uniform(0.3, 0.95, (300, 1))
        masks[:, 0] = True
        obj = mask_objective(b, mu, lam, p)
        stacked = mask_ratios(obj, masks)
        alone = np.array([mask_ratios(obj, m[None])[0] for m in masks])
        np.testing.assert_array_equal(stacked, alone)


def test_exact_search_does_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(43)
    draws = [(random_symbol(2, rng), random_cascade_weight(2, 0.7, rng),
              random_cascade_weight(2, 0.7, rng), p) for p in (1.5, 2.0, 3.0) * 10]
    default = [bmo_prod_two_weight(*d, "exact") for d in draws]
    monkeypatch.setattr(norms, "BLOCK_CELLS", 16 * 7)      # 7 masks per block
    for d, want in zip(draws, default):
        got = bmo_prod_two_weight(*d, "exact")
        assert got.value == want.value
        assert got.witness.to_hex() == want.witness.to_hex()


def _masked_add_values(obj, masks):
    """The objective before per-symbol pattern tables, word for word: ``N^2`` masked adds
    over every block of masks."""
    out = np.empty(len(masks))
    step = max(1, norms.BLOCK_CELLS // obj.cells)
    for start in range(0, len(masks), step):
        bits = masks[start:start + step]
        inside = rectangles_inside(bits, obj.depth)
        s2 = np.zeros(bits.shape)
        for cover in obj.symbol.covers:    # rectangle order: blocking cannot move a bit
            np.add(s2, obj.symbol.energy[cover], out=s2, where=inside[:, cover])
        # most cells see no rectangle; zeros stay zero, and pow is slow on them
        np.power(s2, obj.p / 2.0, out=s2, where=s2 > 0)
        # einsum sums each row alike whatever the stack; BLAS gemv does not
        nums = np.einsum("mc,c->m", s2, obj.lam_cell) ** (1.0 / obj.p)
        dens = np.einsum("mc,c->m", bits, obj.mu_cell) ** (1.0 / obj.p)
        out[start:start + step] = nums / dens
    return out


ORACLE_PS = (1.05, 1.5, 2.0, 3.0, 7.0)


def _objective(depth, p, rng):
    return mask_objective(random_symbol(depth, rng), random_cascade_weight(depth, 0.7, rng),
                          random_cascade_weight(depth, 0.7, rng), p)


def _assert_same_bits(obj, masks, ids):
    with np.errstate(invalid="ignore"):        # the empty mask scores 0 / 0
        got, want = obj.values(masks, ids), _masked_add_values(obj, masks)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", ORACLE_PS)
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pattern_table_scores_random_masks_as_the_masked_adds(depth, p):
    rng = np.random.default_rng(60 + depth)
    cells = 4 ** depth
    for _ in range(3):
        masks = rng.random((150, cells)) < rng.uniform(0.3, 0.98, (150, 1))
        masks[0], masks[1] = False, True        # the empty mask and the full square
        _assert_same_bits(_objective(depth, p, rng), masks, norms._pattern_ids(masks))


@pytest.mark.parametrize("p", ORACLE_PS)
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pattern_table_scores_the_candidate_table_as_the_masked_adds(depth, p):
    rows, ids, _, _ = norms._candidate_table(depth)
    _assert_same_bits(_objective(depth, p, np.random.default_rng(70 + depth)), rows, ids)


@pytest.mark.parametrize("p", ORACLE_PS)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pattern_table_scores_the_finest_unions_as_the_masked_adds(depth, p):
    unions, ids = norms._finest_unions(depth)
    assert len(unions) == (1 << 4 ** (depth - 1)) - 1
    _assert_same_bits(_objective(depth, p, np.random.default_rng(80 + depth)), unions, ids)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pattern_ids_name_the_up_set_of_rectangles_inside(depth):
    members, weights, lookup, covers = norms._upset_tables(depth)
    assert norms._upset_tables(depth) is norms._upset_tables(depth)
    assert len(members) == math.comb(2 * depth, depth)
    assert len(np.unique(members, axis=0)) == len(members)
    grid = members.reshape(-1, depth, depth)        # [k, lx, ly]
    assert (grid[:, 1:] >= grid[:, :-1]).all() and (grid[:, :, 1:] >= grid[:, :, :-1]).all()
    unions, finest_ids = norms._finest_unions(min(depth, 3))
    rows, row_ids, _, _ = norms._candidate_table(depth)
    for array in (members, weights, lookup, covers, unions, finest_ids, rows, row_ids):
        assert not array.flags.writeable
    rng = np.random.default_rng(90 + depth)
    masks = rng.random((200, 4 ** depth)) < rng.uniform(0.3, 0.98, (200, 1))
    masks[0], masks[1] = False, True
    ids = norms._pattern_ids(masks)
    assert ids.dtype == np.uint8 and ids.max() < len(members)
    inside = rectangles_inside(masks, depth)
    # covers[g, c]: the level-pair-g rectangle through cell c
    np.testing.assert_array_equal(covers, np.nonzero(rectangle_incidence(depth).T)[1]
                                  .reshape(4 ** depth, -1).T)
    # members[ids[m, c], g]: the level-pair-g rectangle through cell c lies inside mask m
    np.testing.assert_array_equal(members[ids], inside[:, covers].transpose(0, 2, 1))
    assert not members[ids[0]].any() and members[ids[1]].all()     # empty mask, full square


def test_pattern_tables_refuse_depths_beyond_the_heuristic_limit():
    with pytest.raises(ValueError, match="depth <= 4"):
        norms._upset_tables(norms.HEURISTIC_MAX_DEPTH + 1)


def _brute_force_search(b, mu, lam, p):
    """First maximiser in integer order over every non-empty cell mask."""
    cells = 4 ** b.depth
    masks = (np.arange(1, 1 << cells)[:, None] >> np.arange(cells) & 1).astype(bool)
    ratios = mask_ratios(mask_objective(b, mu, lam, p), masks)
    idx = int(np.argmax(ratios))
    return float(ratios[idx]), Shadow(masks[idx].reshape(1 << b.depth, -1)).to_hex()


@pytest.mark.parametrize("depth", [1, 2])
def test_exact_search_matches_the_brute_force_over_every_mask(depth):
    rng = np.random.default_rng(45 + depth)
    symbols = ([random_symbol(depth, rng) for _ in range(4)] + [GridFunction2D.zeros(depth)]
               + [haar_function(r, depth) for r in cancellative_rectangles(depth)])
    for i, b in enumerate(symbols):
        p = (1.5, 2.0, 3.0)[i % 3]
        mu = random_cascade_weight(depth, 0.7, rng)
        lam = random_cascade_weight(depth, 0.7, rng)
        got = bmo_prod_two_weight(b, mu, lam, p, "exact")
        assert (got.value, got.witness.to_hex()) == _brute_force_search(b, mu, lam, p)
        if not b.values.any():
            assert got.witness.to_hex() == "1"


def _grow_greedily(obj, mask):
    """The sequential steepest ascent before the starts grew in lockstep, word for word."""
    mask = mask.copy()
    best = float(mask_ratios(obj, mask[None])[0])
    while True:
        free = np.flatnonzero(~mask)
        grown = mask | np.eye(obj.cells, dtype=bool)[free]
        gain_cell, gain_value = -1, best
        for cell, v in zip(free, mask_ratios(obj, grown).tolist()):
            if v > gain_value * (1.0 + 1e-14):
                gain_cell, gain_value = cell, v
        if gain_cell < 0:
            return best, mask
        mask[gain_cell] = True
        best = gain_value


def _heuristic_search_oracle(obj, restarts, seed):
    """The search before distinct candidates were scored once, by ceiling, and grown in
    lockstep, word for word."""
    rng = ensure_rng(seed)
    incidence = rectangle_incidence(obj.depth)
    first, second = np.triu_indices(len(incidence), 1)
    # cumsum adds in rectangle order, as values() does
    cover_energy = obj.symbol.energy[obj.symbol.covers]
    candidates = np.concatenate(
        [rectangle_table(obj.depth).cells, incidence[first] | incidence[second]]
        + [field >= np.unique(field)[:, None]
           for field in (cover_energy.cumsum(axis=0)[-1], cover_energy.max(axis=0))]
        + [np.ones((1, obj.cells), bool), rng.random((restarts, obj.cells)) < 0.5])
    candidates = candidates[candidates.any(axis=1)]

    scored = sorted(zip(mask_ratios(obj, candidates).tolist(), range(len(candidates))),
                    reverse=True)
    best, best_mask = scored[0][0], candidates[scored[0][1]]
    for _, i in scored[:5]:
        value, mask = _grow_greedily(obj, candidates[i])
        if value > best:
            best, best_mask = value, mask
    return best, best_mask


def _heuristic_draws():
    """Depths 1-3 over several seeds at every p in {1.5, 2, 3} and delta in {0, 0.5, 1};
    three depth-4 draws, at p = 3, 1.1 and 8, where the ceilings skip most rows (about
    0.2 s per search pair there); and symbols without cancellative energy at depths 2
    and 3, where every score ties at 0."""
    rng = np.random.default_rng(47)
    grid = [(delta, p) for delta in (0.0, 0.5, 1.0) for p in (1.5, 2.0, 3.0)]
    for depth, seeds, combos in ((1, range(6), grid), (2, range(4), grid), (3, range(2), grid),
                                 (4, range(1), [(1.0, 3.0), (0.5, 1.1), (2.0, 8.0)])):
        for seed in seeds:
            b = random_symbol(depth, rng)
            for delta, p in combos:
                mu = random_cascade_weight(depth, delta, rng)
                lam = random_cascade_weight(depth, delta, rng)
                yield mask_objective(b, mu, lam, p), seed
    rng = np.random.default_rng(49)
    for depth in (2, 3):
        constant = GridFunction2D(depth, np.full((1 << depth,) * 2, 3.0))
        for b in (GridFunction2D.zeros(depth), constant):
            for seed, p in enumerate((1.5, 2.0, 3.0)):
                yield mask_objective(b, random_cascade_weight(depth, 0.5, rng),
                                     random_cascade_weight(depth, 0.5, rng), p), seed


def test_heuristic_search_matches_the_search_that_scored_every_candidate():
    for obj, seed in _heuristic_draws():
        value, mask = norms._heuristic_search(obj, seed)
        want_value, want_mask = _heuristic_search_oracle(obj, 8, seed)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        np.testing.assert_array_equal(mask, want_mask)


def _sparse_draws():
    """Symbols of one or two Haar terms at depths 1-3, two draws at every delta in
    {0, 1, 1e3} and p in {1.05, 2, 6}: few candidates score above 0, so zero-score random
    restarts reach the oracle's five starts, and at depth 1 some grow."""
    rng = np.random.default_rng(57)
    for depth, terms, delta, p, _ in itertools.product(
            (1, 2, 3), (1, 2), (0.0, 1.0, 1e3), (1.05, 2.0, 6.0), range(2)):
        rects = cancellative_rectangles(depth)
        picks = rng.choice(len(rects), min(terms, len(rects)), replace=False)
        b = GridFunction2D(depth, sum(c * haar_function(rects[k], depth).values
                                      for k, c in zip(picks, rng.standard_normal(len(picks)))))
        mu, lam = (random_cascade_weight(depth, delta, rng) for _ in range(2))
        yield mask_objective(b, mu, lam, p)


def test_heuristic_search_matches_the_growing_oracle_on_sparse_symbols(monkeypatch):
    grew, grow = [], _grow_greedily

    def counting(obj, mask):
        value, grown = grow(obj, mask)
        grew.append(not np.array_equal(grown, mask))
        return value, grown

    monkeypatch.setitem(globals(), "_grow_greedily", counting)
    for seed, obj in enumerate(_sparse_draws()):
        value, mask = norms._heuristic_search(obj, seed)
        want_value, want_mask = _heuristic_search_oracle(obj, 8, seed)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        np.testing.assert_array_equal(mask, want_mask)
    assert any(grew)        # the oracle's growth, the one branch that could differ, ran


def test_ceilings_bound_every_candidate_score():
    rng = np.random.default_rng(52)
    for depth in (1, 2, 3, 4):
        rows, ids, _, parts = norms._candidate_table(depth)
        for p in (1.1, 2.0, 8.0):
            obj = _objective(depth, p, rng)
            reach = norms._ceilings(obj, parts)
            scores = obj.values(rows, ids)
            assert (scores <= reach).all()
            # without the slack the bound is still within rounding of the scores it bounds
            assert (scores <= reach / (1.0 + 1e-12) * (1.0 + 1e-13)).all()


CEILING_ESCAPE = """
import numpy as np
from haarbloom import norms
from haarbloom.dyadic import DyadicInterval, DyadicRectangle, GridFunction2D, haar_function
from haarbloom.weights import Weight, constant_weight
one = constant_weight(2)
wide = DyadicRectangle(DyadicInterval(1, 0), DyadicInterval(0, 0))
small = DyadicRectangle(DyadicInterval(1, 1), DyadicInterval(1, 1))
b = GridFunction2D(2, 2 * haar_function(wide, 2).values + haar_function(small, 2).values)
# lam weighs the low-energy rectangle, so its table row beats every superlevel set and
# restart by more than the square root of 2 and the one-best search must score it
lam = np.ones((4, 4))
lam[2:, 2:] = 100.0
obj = norms._MaskObjective(norms._SymbolTable(b), one, Weight(GridFunction2D(2, lam)), 2.0)
# every cell's full up-set reads half its value, so that row's score escapes its ceiling
halve = lambda self, *args, **kwargs: np.ndarray.max(self, *args, **kwargs) / 2
halved = type("Halved", (np.ndarray,), {"max": halve})
obj.patterns = obj.patterns.view(halved)
try:
    norms._heuristic_search(obj, 0)
except RuntimeError as exc:
    print(exc)
"""


def test_ceiling_escape_raises(capsys):
    exec(CEILING_ESCAPE, {})
    assert capsys.readouterr().out == "a BMO candidate scored above its ceiling\n"


def test_ceiling_escape_raises_under_the_optimize_flag():
    # python -O strips assert statements; the guard must still fire
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", CEILING_ESCAPE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a BMO candidate scored above its ceiling\n"


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_candidate_table_holds_each_symbol_free_candidate_once(depth):
    rows, ids, inverse, parts = norms._candidate_table(depth)
    assert norms._candidate_table(depth) is norms._candidate_table(depth)
    assert not rows.flags.writeable and not inverse.flags.writeable
    assert not ids.flags.writeable and ids.dtype == np.uint8
    np.testing.assert_array_equal(ids, norms._pattern_ids(rows))
    assert len(np.unique(rows, axis=0)) == len(rows)
    incidence = rectangle_incidence(depth)
    literal = [rectangle_table(depth).cells] + [incidence[i] | incidence[j][None]
                                                 for i in range(len(incidence))
                                                 for j in range(i + 1, len(incidence))]
    np.testing.assert_array_equal(rows[inverse], np.concatenate(literal))


#: per search, the rows of each ``values`` call on candidate-table rows, as measured on the
#: one-best search: 12 depth-3 and 3 depth-4 draws
TABLE_BLOCKS = {3: [[256], [124], [35], [40], [27], [104], [256, 60], [89], [10], [94],
                    [106], [133]],
                4: [[64], [64, 20], [64, 50]]}


def test_heuristic_search_scores_table_rows_in_full_blocks(monkeypatch):
    # a one-row first block, or ignoring the own candidates' scores, would change how
    # many rows are scored
    calls, real = [], norms.best_first

    def best_first(bounds, score, *args):
        # only candidate-table rows are scored through best_first, one values call a block
        return real(bounds, lambda rows: calls.append(len(rows)) or score(rows), *args)

    monkeypatch.setattr(norms, "best_first", best_first)
    rng = np.random.default_rng(71)
    for depth, want in TABLE_BLOCKS.items():
        for k, blocks in enumerate(want):
            b = random_symbol(depth, rng)
            mu, lam = (random_cascade_weight(depth, 0.5, rng) for _ in range(2))
            calls.clear()
            norms._heuristic_search(mask_objective(b, mu, lam, (1.5, 2.0, 3.0)[k % 3]), k)
            assert calls == blocks
        assert max(blocks[0] for blocks in want) == norms.BLOCK_CELLS // 4 ** depth


def test_bmo_degenerate_symbol():
    b = GridFunction2D.zeros(2)
    res = bmo_prod_two_weight(b, constant_weight(2), constant_weight(2), 2, "exact")
    assert res.value == 0.0
    assert res.witness.to_hex() == "1"
    heur = bmo_prod_two_weight(b, constant_weight(2), constant_weight(2), 2, "heuristic")
    assert heur.value == 0.0


def test_heuristic_search_refuses_depths_beyond_its_limit(monkeypatch):
    # patched so that a missing guard fails here instead of allocating gigabytes
    def boom(*args, **kwargs):
        raise AssertionError("the search ran")
    monkeypatch.setattr(norms, "_MaskObjective", boom)
    depth = norms.HEURISTIC_MAX_DEPTH + 1
    b, one = random_grid(depth, 1), constant_weight(depth)
    with pytest.raises(ValueError, match="limited to depth <= 4"):
        bmo_prod_two_weight(b, one, one, 2.0, "heuristic")
    with pytest.raises(ValueError, match="limited to depth <= 4"):
        bmo_prod_one_weight(b, one, "heuristic")


def _shared_draws(depths):
    """Per depth, a symbol and its pairs: jn's Bloom pair, then one (mu, lam, p) per p."""
    rng = np.random.default_rng(54)
    for depth in depths:
        for delta in (0.0, 1.0):
            mu, lam = (random_cascade_weight(depth, delta, rng) for _ in range(2))
            nu = bloom_weight(mu, lam, 2.0)
            yield random_symbol(depth, rng), [one_weight_pair(nu)] + [
                (mu, lam, p) for p in (1.5, 2.0, 3.0)], nu


@pytest.mark.parametrize("strategy, depths", [("heuristic", (1, 2, 3, 4)), ("exact", (1, 2))])
def test_bmo_prod_norms_scores_each_pair_as_it_would_alone(strategy, depths):
    for b, pairs, nu in _shared_draws(depths):
        # a generator serves the pairs in turn, an integer seed each pair afresh
        for seed, alone in ((3, 3), (np.random.default_rng(b.depth),
                                     np.random.default_rng(b.depth))):
            got = bmo_prod_norms(b, pairs, strategy, seed)
            want = [bmo_prod_one_weight(b, nu, strategy, alone)]
            want += [bmo_prod_two_weight(b, *pair, strategy, alone) for pair in pairs[1:]]
            assert [np.float64(r.value).tobytes() for r in got] == \
                [np.float64(r.value).tobytes() for r in want]
            for r, w in zip(got, want):
                assert r.strategy == strategy and r.witness.to_hex() == w.witness.to_hex()
            if isinstance(seed, np.random.Generator):
                assert seed.bit_generator.state == alone.bit_generator.state
    assert bmo_prod_norms(b, [], strategy) == []


def test_superlevel_candidates_are_built_once_per_symbol_and_only_for_the_heuristic(monkeypatch):
    built, real = [], norms._SymbolTable.superlevel.func
    counting = functools.cached_property(lambda table: built.append(table) or real(table))
    counting.__set_name__(norms._SymbolTable, "superlevel")
    monkeypatch.setattr(norms._SymbolTable, "superlevel", counting)
    for b, pairs, _ in _shared_draws((1, 2)):
        bmo_prod_norms(b, pairs, "exact")
        bmo_prod_one_weight(b, pairs[0][0], "exact")
    assert built == []
    for b, pairs, _ in _shared_draws((1, 2, 3)):
        bmo_prod_norms(b, pairs, "heuristic", seed=np.random.default_rng(0))
        assert len(built) == 1
        built.clear()


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_superlevel_masks_match_those_from_np_unique(depth):
    rng = np.random.default_rng(80 + depth)
    # random symbols, and coarse ones whose fields repeat values
    symbols = [random_symbol(depth, rng) for _ in range(3)]
    symbols += [GridFunction2D(depth, np.round(random_symbol(depth, rng).values)) for _ in range(2)]
    for b in symbols:
        table = norms._SymbolTable(b)
        cover_energy = table.energy[table.covers]
        fields = (cover_energy.cumsum(axis=0)[-1], cover_energy.max(axis=0))
        want = np.concatenate([field >= np.unique(field)[:, None] for field in fields]
                              + [np.ones((1, table.cells), bool)])
        masks, ids = table.superlevel
        np.testing.assert_array_equal(masks, want)
        np.testing.assert_array_equal(ids, norms._pattern_ids(want))
        for field in fields:
            assert norms._distinct(field).tobytes() == np.unique(field).tobytes()


def test_a_heuristic_search_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call: some 9 ms of every process start
    script = ("import sys\nfrom haarbloom.dyadic import random_symbol\n"
              "from haarbloom.norms import bmo_prod_norms\n"
              "from haarbloom.weights import constant_weight\n"
              "w = constant_weight(3)\n"
              "bmo_prod_norms(random_symbol(3, 0), [(w, w, 2.0)], 'heuristic')\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("strategy", norms.STRATEGIES)
def test_bmo_prod_norms_builds_one_symbol_table_for_any_number_of_pairs(strategy, monkeypatch):
    built, real = [], norms._SymbolTable
    monkeypatch.setattr(norms, "_SymbolTable", lambda b: built.append(b) or real(b))
    for b, pairs, _ in _shared_draws((1, 2)):
        for count in range(len(pairs) + 1):
            bmo_prod_norms(b, pairs[:count], strategy)
            assert built == [b]
            built.clear()


def test_objectives_on_one_symbol_table_score_as_on_tables_of_their_own():
    rng = np.random.default_rng(55)
    for depth in (1, 2, 3):
        b = random_symbol(depth, rng)
        mu, lam = (random_cascade_weight(depth, 0.5, rng) for _ in range(2))
        masks = rng.random((50, 4 ** depth)) < 0.6
        masks[:, 0] = True
        table = norms._SymbolTable(b)
        sums = table.sums.copy()
        shared = [norms._MaskObjective(table, mu, lam, p) for p in (1.5, 2.0, 3.0)]
        for obj, p in zip(shared, (1.5, 2.0, 3.0)):
            assert obj.symbol is table and not np.shares_memory(obj.patterns, table.sums)
            alone = mask_objective(b, mu, lam, p)
            assert mask_ratios(obj, masks).tobytes() == mask_ratios(alone, masks).tobytes()
        assert table.sums.tobytes() == sums.tobytes()


def test_bmo_one_weight_delegation():
    b = random_symbol(2, 10)
    res1 = bmo_prod_one_weight(b, constant_weight(2))
    res2 = bmo_prod_two_weight(b, constant_weight(2), constant_weight(2), 2)
    assert res1.value == res2.value
    np.testing.assert_array_equal(res1.witness.mask, res2.witness.mask)
    nu = random_cascade_weight(2, 0.5, 11)
    res = bmo_prod_one_weight(b, nu)
    assert res.value > 0


def test_bmo_result_serialization():
    b = haar_function(unit_square(), 1)
    res = bmo_prod_two_weight(b, constant_weight(1), constant_weight(1), 2)
    d = res.as_dict()
    assert d == {"value": pytest.approx(1.0), "strategy": "exact", "witness": {"mask": "f"}}
    lit = little_bmo(b, constant_weight(1), constant_weight(1), 2)
    assert lit.as_dict()["witness"] == {"rect": {"lx": 0, "ix": 0, "ly": 0, "iy": 0}}


# ---------------------------------------------------------------------------
# little bmo
# ---------------------------------------------------------------------------

def test_little_bmo_frozen():
    # symbol depending on x only through the root Haar function: full
    # square and the y-halves tie at 1; coarse-first keeps the full square
    b = GridFunction2D(1, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    res = little_bmo(b, constant_weight(1), constant_weight(1), 2)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.witness == unit_square()


def test_little_bmo_constant_vanishes():
    b = GridFunction2D(2, np.full((4, 4), 3.0))
    assert little_bmo(b, constant_weight(2), constant_weight(2), 2).value == 0.0


def test_little_bmo_bounded_by_oscillation():
    rng = np.random.default_rng(12)
    b = random_grid(2, rng)
    res = little_bmo(b, constant_weight(2), constant_weight(2), 2)
    assert res.value <= np.ptp(b.values) + 1e-12


def test_validation():
    b = random_grid(2, 13)
    with pytest.raises(ValueError):
        lp_weighted_norm(b, constant_weight(2), 0.5)
    with pytest.raises(ValueError):
        lp_weighted_norm(b, constant_weight(1), 2)
    with pytest.raises(ValueError):
        bmo_prod_two_weight(b, constant_weight(2), constant_weight(2), 2, "annealing")
    with pytest.raises(ValueError):
        bmo_prod_two_weight(random_grid(3, 1), constant_weight(3), constant_weight(3), 2, "exact")
    with pytest.raises(ValueError):
        square_function(b, Shadow(np.ones((8, 8), bool)))


def test_every_grid_disagreement_is_refused_in_one_wording():
    one, two, w1, w2 = random_grid(1, 1), random_grid(2, 2), constant_weight(1), constant_weight(2)
    signs, cells = SignChoice1D(1, np.ones(2)), Shadow(np.ones((2, 2), bool))
    calls = [
        lambda: one + two,
        lambda: paraproduct_operator("11", one)(two),
        lambda: theta_operator(one)(two),
        lambda: haar_multiplier_x(two, signs),
        lambda: haar_multiplier_y(two, signs),
        lambda: haar_multiplier(two, SignChoice2D(1, np.ones((2, 2)))),
        lambda: restricted_projection(two, cells),
        lambda: square_function(two, cells),
        lambda: lp_weighted_norm(two, w1, 2.0),
        lambda: triebel_lizorkin_square_function(two, w1, 2.0),
        lambda: little_bmo(two, w2, w1, 2.0),
        lambda: bmo_prod_two_weight(two, w2, w1, 2.0),
        lambda: opnorm(lambda_matrix(two), w1, w1, 2.0),
        lambda: opnorm(lambda_matrix(two), w2, w1, 1.5),
        lambda: bloom_weight(w1, w2, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="disagree on depth"):
            call()


NON_FINITE_ENTRY_POINTS = {
    "lp_weighted_norm": lambda b, one, p: lp_weighted_norm(b, one, p),
    "bmo_prod_two_weight-exact": lambda b, one, p: bmo_prod_two_weight(b, one, one, p, "exact"),
    "bmo_prod_two_weight-heuristic":
        lambda b, one, p: bmo_prod_two_weight(b, one, one, p, "heuristic"),
    "little_bmo": lambda b, one, p: little_bmo(b, one, one, p),
    "opnorm": lambda b, one, p: opnorm(lambda_matrix(b), one, one, p),
    "sup_commutator_norm-exhaustive":
        lambda b, one, p: sup_commutator_norm(b, one, one, p, mode="exhaustive"),
    "sup_commutator_norm-sampled":
        lambda b, one, p: sup_commutator_norm(b, one, one, p, mode="sampled", trials=3, seed=0),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_non_finite_exponents_are_refused(p, entry):
    b, one = random_symbol(2, 14), constant_weight(2)
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)|needs p in \(1, inf\)"):
        NON_FINITE_ENTRY_POINTS[entry](b, one, p)


NON_FINITE_SYMBOL_ENTRY_POINTS = {
    "bmo_prod_two_weight-exact": (2, lambda b, w: bmo_prod_two_weight(b, w, w, 2.0, "exact")),
    "bmo_prod_two_weight-heuristic":
        (2, lambda b, w: bmo_prod_two_weight(b, w, w, 1.5, "heuristic")),
    "bmo_prod_two_weight-heuristic-d3":
        (3, lambda b, w: bmo_prod_two_weight(b, w, w, 3.0, "heuristic")),
    "bmo_prod_one_weight": (2, lambda b, w: bmo_prod_one_weight(b, w, "exact")),
    "bmo_prod_one_weight-d3": (3, lambda b, w: bmo_prod_one_weight(b, w, "heuristic")),
    "little_bmo": (2, lambda b, w: little_bmo(b, w, w, 3.0)),
    "paraproduct_matrix": (2, lambda b, w: paraproduct_matrix("10", b)),
    "lambda_matrix": (2, lambda b, w: lambda_matrix(b)),
    "commutator_matrices":
        (2, lambda b, w: commutator_matrices(b, axis_sign_rows(2)[:2], axis_sign_rows(2)[2:4])),
    "sup_commutator_norm-exhaustive": (2, lambda b, w: sup_commutator_norm(b, w, w, 2.0)),
    "sup_commutator_norm-sampled":
        (3, lambda b, w: sup_commutator_norm(b, w, w, 3.0, mode="sampled", trials=2)),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_SYMBOL_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_symbols_are_refused_in_one_wording(bad, entry, capfd):
    depth, call = NON_FINITE_SYMBOL_ENTRY_POINTS[entry]
    values = random_symbol(depth, 15).values.copy()
    values[1, 2] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^a symbol needs finite entries, got NaN or inf$"):
            call(GridFunction2D(depth, values), constant_weight(depth))
    assert not caught, [str(w.message) for w in caught]
    assert capfd.readouterr().err == ""
