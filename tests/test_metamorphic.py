"""Metamorphic oracles for the operator layer at p = 2 and the BMO searches.

Three exact symmetries of the finite-grid theory give independent values
at every depth: lifting ``(b, mu, lam)`` to a finer grid by copying each
cell to its four children, swapping x and y, and reflecting one axis.
Lambda, the four paraproducts and ``little_bmo`` keep their values under
each, up to rounding; under a swap, pi_10 and pi_01 trade places.  So do
the one- and two-weight product BMO norms at every p.

A lifted symbol has no Haar coefficient at the new levels, so each
paraproduct of it is the coarse one composed with the conditional
expectation onto the coarse cells, a contraction in ``L^2`` of a lifted
weight.  A swap or a reflection permutes the rectangles, and a reflection
flips the sign of every Haar function it maps; the signs cancel in each
paraproduct, so the operators are conjugated by an isometry.  A lifted
symbol gives no mask a rectangle with energy, and a lifted mask's measure
is the coarse one, so the BMO supremum is unchanged; a swap or a
reflection maps masks onto masks and keeps every ratio.

The same moves keep the exhaustive sign supremum of the iterated
commutator at p = 2, and move its winning sign pair to its image: a swap
trades the two rows, and a reflection permutes one axis's slots by the
mirror of each interval.  A lifted symbol's commutator sees only the
coarse slots of each sign row, so a sampled pair on the finer grid has the
coarse norm of its restriction.  Away from 2, a lift keeps every certified
interpolation bracket, and the coarse witness, lifted, keeps its ratio; the
power iteration's lower bounds agree with the coarse ones except where the
lifted iteration stops at another local maximum (``LAMBDA_LOCAL_MAXIMA``).
"""

import importlib

import numpy as np
import pytest

from haarbloom.dyadic import (HAAR_KINDS, DyadicInterval, GridFunction2D, random_grid, slot_interval,
                              slot_of)
from haarbloom.norms import (
    EXACT_MAX_DEPTH,
    bmo_prod_norms,
    little_bmo,
    lp_weighted_norm,
    one_weight_pair,
)
from haarbloom.operators import lambda_matrix, paraproduct_matrix
from haarbloom.opnorm import opnorm, opnorm_p2_exact, sup_commutator_norm
from haarbloom.weights import Weight, bloom_weight, random_cascade_weight

opnorm_module = importlib.import_module("haarbloom.opnorm")
RTOL = 1e-13
NAMES = ("lambda",) + HAAR_KINDS + ("little_bmo",)


def draw(depth, seed):
    """A Gaussian symbol and two strength-0.5 cascade weights."""
    rng = np.random.default_rng([depth, seed])
    return (random_grid(depth, rng), random_cascade_weight(depth, 0.5, rng),
            random_cascade_weight(depth, 0.5, rng))


def moved(data, move):
    """``(b, mu, lam)`` with ``move`` applied to each one's cell values."""
    b, mu, lam = data
    values = move(b.values)
    depth = values.shape[0].bit_length() - 1
    return (GridFunction2D(depth, values), Weight(GridFunction2D(depth, move(mu.values))),
            Weight(GridFunction2D(depth, move(lam.values))))


def lift(levels):
    def move(v):
        for _ in range(levels):
            v = np.kron(v, np.ones((2, 2)))
        return v
    return move


def p2_norms(mats, mu, lam):
    """The exact p = 2 norm of each matrix."""
    return np.array([opnorm_p2_exact(mat, mu, lam).value for mat in mats])


def p2_values(data):
    """Every value of the operator layer at p = 2, by name."""
    b, mu, lam = data
    mats = [lambda_matrix(b)] + [paraproduct_matrix(kind, b) for kind in HAAR_KINDS]
    values = dict(zip(NAMES, p2_norms(mats, mu, lam)))
    values["little_bmo"] = little_bmo(b, mu, lam, 2.0).value
    return values


def assert_same_values(got, want):
    assert got.keys() == want.keys() == set(NAMES)
    for name in NAMES:
        assert got[name] > 0.0
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=0, err_msg=name)


@pytest.mark.parametrize("depth", [1, 2])
def test_lifting_to_a_finer_grid_keeps_every_value(depth):
    for seed in range(4):
        data = draw(depth, seed)
        want = p2_values(data)
        for levels in (1, 2):
            assert_same_values(p2_values(moved(data, lift(levels))), want)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_swapping_x_and_y_keeps_every_value_and_trades_the_mixed_paraproducts(depth):
    for seed in range(4):
        data = draw(depth, 10 + seed)
        want = p2_values(data)
        want["10"], want["01"] = want["01"], want["10"]
        assert_same_values(p2_values(moved(data, np.transpose)), want)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_reflecting_one_axis_keeps_every_value(depth, axis):
    for seed in range(4):
        data = draw(depth, 20 + seed)
        assert_same_values(p2_values(moved(data, lambda v: np.flip(v, axis))), p2_values(data))


BMO_PS = (1.5, 2.0, 3.0)
MOVES = {"swap": np.transpose, "flip-x": lambda v: np.flip(v, 0),
         "flip-y": lambda v: np.flip(v, 1)}


def bmo_values(data, p):
    """The one-weight norm of the Bloom weight and the two-weight norm at p, as ``jn``
    takes them: exact up to ``EXACT_MAX_DEPTH``, heuristic (seed 0) beyond."""
    b, mu, lam = data
    strategy = "exact" if b.depth <= EXACT_MAX_DEPTH else "heuristic"
    pairs = [one_weight_pair(bloom_weight(mu, lam, p)), (mu, lam, p)]
    values = [bmo.value for bmo in bmo_prod_norms(b, pairs, strategy)]
    assert min(values) > 0.0
    return values


@pytest.mark.parametrize("depth, levels", [(1, 1), (2, 1), (2, 2)])
def test_lifting_to_a_finer_grid_keeps_both_bmo_norms(depth, levels):
    for seed in range(4):
        data = draw(depth, 30 + seed)
        for p in BMO_PS:
            np.testing.assert_allclose(bmo_values(moved(data, lift(levels)), p),
                                       bmo_values(data, p), rtol=RTOL, atol=0, err_msg=f"p={p}")


@pytest.mark.parametrize("move", MOVES)
@pytest.mark.parametrize("depth", [1, 2])
def test_swapping_and_reflecting_keep_both_exact_bmo_norms(depth, move):
    for seed in range(4):
        data = draw(depth, 40 + seed)
        for p in BMO_PS:
            np.testing.assert_allclose(bmo_values(moved(data, MOVES[move]), p),
                                       bmo_values(data, p), rtol=RTOL, atol=0, err_msg=f"p={p}")


def assert_close(got, want, rtol=RTOL):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_lifting_keeps_the_exhaustive_sign_supremum_at_2():
    for seed in range(4):
        data = draw(1, 50 + seed)
        assert_close(sup_commutator_norm(*moved(data, lift(1)), 2.0).value,
                     sup_commutator_norm(*data, 2.0).value)


def mirrored_slots(depth):
    """Per slot, the slot of its interval's mirror image; slot 0, the scaling one, stays."""
    mirror = [slot_interval(slot) for slot in range(1, 1 << depth)]
    return np.array([0] + [slot_of(DyadicInterval(iv.level, (1 << iv.level) - 1 - iv.index))
                           for iv in mirror])


#: where each move sends a sign pair's rows (``sx``, ``sy``) at depth 2
PAIR_IMAGES = {"swap": lambda sx, sy: (sy, sx),
               "flip-x": lambda sx, sy: (sx[mirrored_slots(2)], sy),
               "flip-y": lambda sx, sy: (sx, sy[mirrored_slots(2)])}


@pytest.mark.parametrize("move", MOVES)
def test_swapping_and_reflecting_keep_the_exhaustive_sign_supremum_at_2(move):
    for seed in range(4):
        data = draw(2, 60 + seed)
        assert_close(sup_commutator_norm(*moved(data, MOVES[move]), 2.0).value,
                     sup_commutator_norm(*data, 2.0).value)


#: damps a depth-2 symbol off the quadrant [0, 1/2) x [1/2, 1): on the plain draws the
#: winning pair is (+, -, -) on both axes, which every move fixes
QUADRANT = np.outer([1.0, 1.0, 0.05, 0.05], [0.05, 0.05, 1.0, 1.0])


@pytest.mark.parametrize("move", MOVES)
def test_swapping_and_reflecting_move_the_exhaustive_winner_to_its_image(move):
    moved_winners = 0
    for seed in range(30):
        b, mu, lam = draw(2, 100 + seed)
        data = GridFunction2D(2, b.values * QUADRANT), mu, lam
        want = sup_commutator_norm(*data, 2.0)
        got = sup_commutator_norm(*moved(data, MOVES[move]), 2.0)
        assert_close(got.value, want.value)
        image = PAIR_IMAGES[move](*(s.signs for s in want.sign_pair))
        for g, w in zip(got.sign_pair, image):
            np.testing.assert_array_equal(g.signs, w)
        moved_winners += any((w != s.signs).any() for w, s in zip(image, want.sign_pair))
    assert moved_winners > 0        # some winner is not its own image


def test_lifting_keeps_each_sampled_sign_pair_and_the_sampled_supremum_at_2(monkeypatch):
    drawn, real = [], opnorm_module.commutator_matrices
    monkeypatch.setattr(opnorm_module, "commutator_matrices",
                        lambda b, sx, sy: drawn.append((sx, sy)) or real(b, sx, sy))
    for seed in range(12):
        b, mu, lam = data = draw(2, 90 + seed)
        fine, fine_mu, fine_lam = moved(data, lift(1))
        exhaustive = sup_commutator_norm(*data, 2.0).value
        drawn.clear()
        got = sup_commutator_norm(fine, fine_mu, fine_lam, 2.0, mode="sampled", seed=seed)
        [(sx, sy)] = drawn
        # a lifted symbol's commutator only sees the coarse slots 0-3 of each sign row
        coarse = p2_norms(real(b, sx[:, :4], sy[:, :4]), mu, lam)
        assert_close(p2_norms(real(fine, sx, sy), fine_mu, fine_lam), coarse)
        assert_close(got.value, coarse.max())
        assert got.value <= exhaustive * (1.0 + RTOL)


LP_PS = (1.5, 3.0)
LP_RTOL = 1e-8
#: (depth, seed, p, levels) of the draws below whose lifted Lambda iteration stops at
#: another local maximum: 1.44460 against the coarse 1.48521, under the same bracket
LAMBDA_LOCAL_MAXIMA = {(2, 0, 1.5, 1)}


def test_lifting_keeps_the_lambda_brackets_away_from_2():
    misses = set()
    for depth in (1, 2):
        for seed in range(4):
            b, mu, lam = data = draw(depth, 70 + seed)
            for p in LP_PS:
                want = opnorm(lambda_matrix(b), mu, lam, p)
                for levels in (1, 2):
                    fine, fine_mu, fine_lam = moved(data, lift(levels))
                    mat = lambda_matrix(fine)
                    got = opnorm(mat, fine_mu, fine_lam, p)
                    assert_close(got.upper_bound, want.upper_bound)
                    # the coarse witness, lifted, keeps its ratio
                    f = lift(levels)(want.witness.values)
                    image = GridFunction2D(fine.depth, (mat @ f.ravel()).reshape(f.shape))
                    assert_close(lp_weighted_norm(image, fine_lam, p)
                                 / lp_weighted_norm(GridFunction2D(fine.depth, f), fine_mu, p),
                                 want.value)
                    if not np.isclose(got.value, want.value, rtol=LP_RTOL, atol=0):
                        misses.add((depth, seed, p, levels))
    assert misses == LAMBDA_LOCAL_MAXIMA


def test_lifting_keeps_the_exhaustive_sign_supremum_brackets_away_from_2():
    for seed in range(4):
        data = draw(1, 80 + seed)
        for p in LP_PS:
            want = sup_commutator_norm(*data, p)
            got = sup_commutator_norm(*moved(data, lift(1)), p)
            assert_close(got.upper_bound, want.upper_bound)
            assert_close(got.value, want.value, LP_RTOL)
