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
"""

import numpy as np
import pytest

from haarbloom.dyadic import HAAR_KINDS, GridFunction2D, random_grid
from haarbloom.norms import EXACT_MAX_DEPTH, bmo_prod_norms, little_bmo, one_weight_pair
from haarbloom.operators import lambda_matrix, paraproduct_matrix
from haarbloom.opnorm import opnorm_p2_values
from haarbloom.weights import Weight, bloom_weight, random_cascade_weight

RTOL = 1e-13
NAMES = ("lambda",) + HAAR_KINDS + ("little_bmo",)


def draw(depth, seed):
    """A Gaussian symbol and two strength-0.5 cascade weights."""
    rng = np.random.default_rng([depth, seed])
    return (random_grid(depth, rng), random_cascade_weight(depth, 0.5, rng, role="mu"),
            random_cascade_weight(depth, 0.5, rng, role="lambda"))


def moved(data, move):
    """``(b, mu, lam)`` with ``move`` applied to each one's cell values."""
    b, mu, lam = data
    values = move(b.values)
    depth = values.shape[0].bit_length() - 1
    return (GridFunction2D(depth, values), Weight(GridFunction2D(depth, move(mu.values)), "mu"),
            Weight(GridFunction2D(depth, move(lam.values)), "lambda"))


def lift(levels):
    def move(v):
        for _ in range(levels):
            v = np.kron(v, np.ones((2, 2)))
        return v
    return move


def p2_values(data):
    """Every value of the operator layer at p = 2, by name."""
    b, mu, lam = data
    mats = np.stack([lambda_matrix(b)] + [paraproduct_matrix(kind, b) for kind in HAAR_KINDS])
    values = dict(zip(NAMES, opnorm_p2_values(mats, mu, lam)))
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
