import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    RectangleCollection,
    Shadow,
    cancellative_rectangles,
    ensure_rng,
    haar_forward,
    haar_function,
    random_grid,
    random_symbol,
    rectangle_incidence,
    rectangle_table,
    unit_square,
)
from haarbloom import norms
from haarbloom.norms import (
    BmoResult,
    _grow_greedily,
    bmo_prod_one_weight,
    bmo_prod_two_weight,
    little_bmo,
    lp_weighted_norm,
    square_function,
    strong_maximal,
    triebel_lizorkin_square_function,
)
from haarbloom.operators import restricted_projection
from haarbloom.weights import Weight, constant_weight, random_cascade_weight


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
    left = Shadow.from_rectangles([rect(1, 0, 0, 0)], 2)
    s = square_function(f, left)
    # rectangles inside the left half have x-interval (1,0); compare directly
    coeffs = haar_forward(f)
    expect = np.zeros((4, 4))
    for r in cancellative_rectangles(2):
        if r.x == DyadicInterval(1, 0):
            c = coeffs.coefficient(r)
            expect[r.cell_box(2)] += c * c / r.area
    np.testing.assert_allclose(s.values, np.sqrt(expect), atol=1e-14)
    # an explicit collection is used verbatim
    coll = RectangleCollection([unit_square()])
    c = coeffs.coefficient(unit_square())
    np.testing.assert_allclose(square_function(f, coll).values, abs(c), atol=1e-14)


def test_square_function_counts_a_repeated_rectangle_per_occurrence():
    f = random_grid(2, 14)
    r = rect(1, 0, 0, 0)
    c = haar_forward(f).coefficient(r)
    once = square_function(f, RectangleCollection([r])).values
    twice = square_function(f, RectangleCollection([r, unit_square(), r])).values
    expect = np.zeros((4, 4))
    expect[r.cell_box(2)] = 2 * c * c / r.area
    expect += haar_forward(f).coefficient(unit_square()) ** 2
    np.testing.assert_allclose(twice, np.sqrt(expect), rtol=1e-14)
    np.testing.assert_allclose(once[r.cell_box(2)], abs(c) / np.sqrt(r.area), rtol=1e-14)


def test_square_function_skips_rectangles_too_fine_for_the_grid():
    f = random_grid(2, 15)
    fine = [rect(2, 1, 0, 0), rect(0, 0, 2, 3), rect(3, 5, 1, 1)]
    zero = square_function(f, RectangleCollection(fine)).values
    np.testing.assert_array_equal(zero, 0.0)
    base = square_function(f, RectangleCollection([rect(1, 1, 1, 0)])).values
    np.testing.assert_array_equal(
        square_function(f, RectangleCollection(fine + [rect(1, 1, 1, 0)])).values, base)
    # the projection onto the same family refuses them instead
    with pytest.raises(ValueError, match="no resolved Haar function"):
        restricted_projection(f, RectangleCollection(fine[:1]))


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
        got = norms._MaskObjective(b, mu, lam, p).values(masks)
        for value, m in zip(got, masks):
            omega = Shadow(m.reshape(n, n))
            want = (lp_weighted_norm(square_function(b, omega), lam, p)
                    / mu.measure(omega) ** (1.0 / p))
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
        obj = norms._MaskObjective(b, mu, lam, p)
        stacked = obj.values(masks)
        alone = np.array([obj.values(m[None])[0] for m in masks])
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


def _brute_force_search(b, mu, lam, p):
    """First maximiser in integer order over every non-empty cell mask."""
    cells = 4 ** b.depth
    masks = (np.arange(1, 1 << cells)[:, None] >> np.arange(cells) & 1).astype(bool)
    ratios = norms._MaskObjective(b, mu, lam, p).values(masks)
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


def _heuristic_search_oracle(obj, restarts, seed):
    """The search before distinct candidates were scored once, word for word."""
    rng = ensure_rng(seed)
    first, second = np.triu_indices(len(obj.incidence), 1)
    cover_energy = obj.energy[obj.covers]      # cumsum adds in rectangle order, as values() does
    candidates = np.concatenate(
        [rectangle_table(obj.depth).cells, obj.incidence[first] | obj.incidence[second]]
        + [field >= np.unique(field)[:, None]
           for field in (cover_energy.cumsum(axis=0)[-1], cover_energy.max(axis=0))]
        + [np.ones((1, obj.cells), bool), rng.random((restarts, obj.cells)) < 0.5])
    candidates = candidates[candidates.any(axis=1)]

    scored = sorted(zip(obj.values(candidates).tolist(), range(len(candidates))), reverse=True)
    best, best_mask = scored[0][0], candidates[scored[0][1]]
    for _, i in scored[:5]:
        value, mask = _grow_greedily(obj, candidates[i])
        if value > best:
            best, best_mask = value, mask
    return best, best_mask


def _heuristic_draws():
    """Depths 1-3 over several seeds at every p in {1.5, 2, 3} and delta in {0, 0.5, 1};
    one depth-4 draw (about 0.8 s per search pair there)."""
    rng = np.random.default_rng(47)
    grid = [(delta, p) for delta in (0.0, 0.5, 1.0) for p in (1.5, 2.0, 3.0)]
    for depth, seeds, combos in ((1, range(6), grid), (2, range(4), grid), (3, range(2), grid),
                                 (4, range(1), [(1.0, 3.0)])):
        for seed in seeds:
            b = random_symbol(depth, rng)
            for delta, p in combos:
                mu = random_cascade_weight(depth, delta, rng)
                lam = random_cascade_weight(depth, delta, rng)
                yield norms._MaskObjective(b, mu, lam, p), seed


def test_heuristic_search_matches_the_search_that_scored_every_candidate():
    for obj, seed in _heuristic_draws():
        value, mask = norms._heuristic_search(obj, 8, seed)
        want_value, want_mask = _heuristic_search_oracle(obj, 8, seed)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        np.testing.assert_array_equal(mask, want_mask)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_candidate_table_holds_each_symbol_free_candidate_once(depth):
    rows, inverse = norms._candidate_table(depth)
    assert norms._candidate_table(depth) is norms._candidate_table(depth)
    assert not rows.flags.writeable and not inverse.flags.writeable
    assert len(np.unique(rows, axis=0)) == len(rows)
    incidence = rectangle_incidence(depth)
    literal = [rectangle_table(depth).cells] + [incidence[i] | incidence[j][None]
                                                 for i in range(len(incidence))
                                                 for j in range(i + 1, len(incidence))]
    np.testing.assert_array_equal(rows[inverse], np.concatenate(literal))


def test_heuristic_search_grows_each_distinct_start_once(monkeypatch):
    grown, grow = [], norms._grow_greedily

    def counting(obj, mask):
        grown.append(mask.tobytes())
        return grow(obj, mask)

    monkeypatch.setattr(norms, "_grow_greedily", counting)
    monkeypatch.setitem(globals(), "_grow_greedily", counting)
    repeats = 0
    rng = np.random.default_rng(48)
    for trial in range(6):
        obj = norms._MaskObjective(random_symbol(3, rng), random_cascade_weight(3, 0.5, rng),
                                   random_cascade_weight(3, 0.5, rng), (1.5, 2.0, 3.0)[trial % 3])
        grown.clear()
        _heuristic_search_oracle(obj, 8, trial)
        want = list(dict.fromkeys(grown))
        repeats += len(grown) - len(want)
        grown.clear()
        norms._heuristic_search(obj, 8, trial)
        assert grown == want
    assert repeats > 0      # the oracle did regrow some start


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
        square_function(b, Shadow.full(3))
