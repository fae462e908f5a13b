"""Metamorphic oracles for the operator layer at p = 2.

Three exact symmetries of the finite-grid theory give independent values
at every depth: lifting ``(b, mu, lam)`` to a finer grid by copying each
cell to its four children, swapping x and y, and reflecting one axis.
Lambda, the four paraproducts and ``little_bmo`` keep their values under
each, up to rounding; under a swap, pi_10 and pi_01 trade places.

A lifted symbol has no Haar coefficient at the new levels, so each
paraproduct of it is the coarse one composed with the conditional
expectation onto the coarse cells, a contraction in ``L^2`` of a lifted
weight.  A swap or a reflection permutes the rectangles, and a reflection
flips the sign of every Haar function it maps; the signs cancel in each
paraproduct, so the operators are conjugated by an isometry.
"""

import numpy as np
import pytest

from haarbloom.dyadic import HAAR_KINDS, GridFunction2D, random_grid
from haarbloom.norms import little_bmo
from haarbloom.operators import lambda_matrix, paraproduct_matrix
from haarbloom.opnorm import opnorm_p2_values
from haarbloom.weights import Weight, random_cascade_weight

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
