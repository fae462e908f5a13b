import importlib
import math

import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    indicator,
    random_symbol,
    rectangle_means,
    rectangle_table,
    unit_square,
)
from haarbloom.experiments import ExperimentConfig
from haarbloom.opnorm import opnorm
from haarbloom.weights import (
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    ApReport,
    Weight,
    ap_characteristic,
    average_comparability_report,
    bloom_weight,
    conjugate_weight,
    constant_weight,
    random_cascade_weight,
)


def make_weight(depth, values):
    return Weight(GridFunction2D(depth, np.asarray(values, float)))


def test_characteristic_frozen_example():
    # depth 1, p = 2, weight 2 on the left x-half and 1 on the right:
    # <w> <1/w> on the full square is 1.5 * 0.75 = 9/8; rectangles constant
    # in x give 1; the y-halves of the full square tie at 9/8 and the tie
    # goes to the coarse rectangle.
    w = make_weight(1, [[2.0, 2.0], [1.0, 1.0]])
    rep = ap_characteristic(w, 2)
    assert rep.characteristic == pytest.approx(1.125, abs=1e-15)
    assert rep.rect == unit_square()
    assert rep.p == 2


def test_characteristic_constant_and_cache():
    w = constant_weight(2, 3.0)
    rep = ap_characteristic(w, 1.5)
    assert rep.characteristic == pytest.approx(1.0, abs=1e-14)
    assert ap_characteristic(w, 1.5) is rep  # cached per exponent
    assert ap_characteristic(w, 3).characteristic == pytest.approx(1.0, abs=1e-14)


def test_weight_values_cannot_change_under_the_cache():
    raw = np.random.default_rng(41).uniform(0.5, 2.0, (4, 4))
    w = Weight(GridFunction2D(2, raw))
    rep = ap_characteristic(w, 2)
    with pytest.raises(ValueError):
        w.values[0, 0] = 100.0
    raw[0, 0] = 100.0
    assert w.values[0, 0] != 100.0
    fresh = Weight(GridFunction2D(2, w.values.copy()))
    assert ap_characteristic(fresh, 2).characteristic == rep.characteristic


def test_characteristic_at_least_one():
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 3.0):
        for _ in range(5):
            w = random_cascade_weight(3, 0.8, rng)
            assert ap_characteristic(w, p).characteristic >= 1.0


def test_conjugation_identity():
    # the p'-characteristic of w^{-1/(p-1)} is exactly [w]_p^{p'-1},
    # rectangle by rectangle, so values and witnesses both transfer
    rng = np.random.default_rng(3)
    for p in (1.5, 2.0, 3.0):
        pp = p / (p - 1.0)
        w = random_cascade_weight(2, 0.6, rng)
        wc = conjugate_weight(w, p)
        a, b = ap_characteristic(w, p), ap_characteristic(wc, pp)
        assert b.characteristic == pytest.approx(a.characteristic ** (pp - 1.0), rel=1e-12)
        assert b.rect == a.rect


def test_bloom_pointwise_identity():
    # nu can be computed from either side of the duality:
    # mu^{1/p} lam^{-1/p} = (lam')^{1/p'} (mu')^{-1/p'}
    rng = np.random.default_rng(4)
    for p in (1.5, 2.0, 3.0):
        pp = p / (p - 1.0)
        mu = random_cascade_weight(2, 0.5, rng)
        lam = random_cascade_weight(2, 0.5, rng)
        nu = bloom_weight(mu, lam, p)
        other = (conjugate_weight(lam, p).values ** (1.0 / pp)
                 * conjugate_weight(mu, p).values ** (-1.0 / pp))
        np.testing.assert_allclose(nu.values, other, rtol=1e-12)


def test_bloom_bounds_hold():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = random_cascade_weight(2, 0.9, rng)
        lam = random_cascade_weight(2, 0.9, rng)
        bloom_weight(mu, lam, 2.5)  # asserts internally
    # unweighted pair collapses to the constant 1
    nu = bloom_weight(constant_weight(2), constant_weight(2), 2)
    np.testing.assert_array_equal(nu.values, 1.0)


def test_average_comparability():
    w = constant_weight(2, 7.0)
    rep = average_comparability_report(w, 3)
    np.testing.assert_allclose(rep.table, 7.0 ** (1 / 3), rtol=1e-13)
    rng = np.random.default_rng(6)
    for p in (1.5, 2.0, 3.0):
        rep = average_comparability_report(random_cascade_weight(2, 0.8, rng), p)
        assert rep.table.shape == (49, 4)
        q1, q2, q3, q4 = rep.table.T
        assert (q1 / q2).max() <= 1.0 + 1e-12
        assert (q4 / q1).max() <= 1.0 + 1e-12
        # empirically the full chain q3 <= q4 holds as well
        assert (q3 / q4).max() <= 1.0 + 1e-12


def test_cascade_determinism_and_degenerate_strength():
    a = random_cascade_weight(3, 0.7, 42)
    b = random_cascade_weight(3, 0.7, 42)
    np.testing.assert_array_equal(a.values, b.values)
    c = random_cascade_weight(3, 0.7, 43)
    assert np.abs(a.values - c.values).max() > 0
    flat = random_cascade_weight(3, 0.0, 42)
    np.testing.assert_array_equal(flat.values, 1.0)
    strong = random_cascade_weight(4, 5.0, 1)
    assert strong.values.min() >= 1e-8 and strong.values.max() <= 1e8
    assert ap_characteristic(strong, 2).characteristic > ap_characteristic(a, 2).characteristic


def kron_cascade(depth, strength, rng):
    """Oracle: the cascade drawn level by level with a Kronecker expansion."""
    vals = np.ones((1, 1))
    for lev in range(depth):
        m = 1 << lev
        eps = rng.uniform(0.0, strength, (m, m)) if strength > 0 else np.zeros((m, m))
        axis = rng.integers(0, 2, (m, m))
        flip = rng.integers(0, 2, (m, m))
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
    return np.clip(vals, WEIGHT_FLOOR, WEIGHT_CEIL)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("strength", [0.0, 0.25, 2.0])
def test_cascade_matches_the_kron_oracle_bit_for_bit(depth, strength):
    for seed in range(20):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_cascade_weight(depth, strength, rng).values
        assert got.tobytes() == kron_cascade(depth, strength, oracle_rng).tobytes()
        # the same draws in the same order: the streams continue alike
        assert rng.random() == oracle_rng.random()


def broadcast_cascade(depth, strength, rng):
    """Oracle: the cascade before each child's factor was picked by one ``np.where``; here
    it is an x factor times a y factor (one of them 1.0), computed at strength 0 too."""
    vals = np.ones((1, 1))
    for lev in range(depth):
        m = 1 << lev
        eps = rng.uniform(0.0, strength, (m, m)) if strength > 0 else np.zeros((m, m))
        axis = rng.integers(0, 2, (m, m))      # 0: split along x, 1: along y
        flip = rng.integers(0, 2, (m, m))      # which half gets the boost
        up = np.where(flip == 0, 1.0 + eps, 1.0 / (1.0 + eps))
        down = np.where(flip == 0, 1.0 / (1.0 + eps), 1.0 + eps)
        halves = np.stack([up, down])
        x_split = axis == 0
        fx = np.where(x_split, halves, 1.0)
        fy = np.where(x_split, 1.0, halves)
        # child (2i + a, 2j + c) of cell (i, j) takes fx[a, i, j] * fy[c, i, j]
        factors = (fx[:, None] * fy[None, :]).transpose(2, 0, 3, 1)
        with np.errstate(over="ignore"):
            vals = (vals[:, None, :, None] * factors).reshape(2 * m, 2 * m)
    return np.clip(vals, WEIGHT_FLOOR, WEIGHT_CEIL)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("strength", [0.0, 0.5, 2.0, 40.0, 1e300])
def test_cascade_matches_the_broadcast_oracle_bit_for_bit(depth, strength):
    # at 1e300 the products overflow and the clip gives WEIGHT_CEIL; no warning is raised
    for seed in range(200):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_cascade_weight(depth, strength, rng).values
        assert got.tobytes() == broadcast_cascade(depth, strength, oracle_rng).tobytes()
        assert rng.random() == oracle_rng.random()


def test_measure():
    # weighted measures of a rectangle and of a cell mask, through the grid
    w = make_weight(1, [[2.0, 2.0], [1.0, 1.0]])
    assert w.grid.integral() == pytest.approx(1.5)
    left = DyadicRectangle(DyadicInterval(1, 0), DyadicInterval(0, 0))
    assert w.grid.values[left.cell_box(1)].mean() * left.area == pytest.approx(1.0)
    mask = Shadow(np.array([[True, False], [False, True]]))
    assert (w.grid * indicator(mask)).integral() == pytest.approx(0.75)


def test_report_serialization():
    rep = ApReport(2.0, 1.25, DyadicRectangle(DyadicInterval(1, 0), DyadicInterval(2, 3)))
    d = rep.as_dict()
    assert d == {
        "p": 2.0,
        "characteristic": 1.25,
        "rect": {"lx": 1, "ix": 0, "ly": 2, "iy": 3},
    }


def test_validation():
    with pytest.raises(ValueError):
        make_weight(1, [[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        make_weight(1, [[1.0, np.inf], [1.0, 1.0]])
    w = constant_weight(1)
    with pytest.raises(ValueError):
        ap_characteristic(w, 1.0)
    with pytest.raises(ValueError):
        conjugate_weight(w, 0.5)
    with pytest.raises(ValueError):
        bloom_weight(constant_weight(1), constant_weight(2), 2)
    with pytest.raises(ValueError):
        random_cascade_weight(2, -0.1)


@pytest.mark.parametrize("strength", [float("nan"), float("inf"), -1.0])
def test_cascade_refuses_a_non_finite_or_negative_strength(strength):
    # nan failed ``strength > 0`` and drew the constant weight; inf overflowed in numpy
    with pytest.raises(ValueError, match="strength must be finite and non-negative"):
        random_cascade_weight(2, strength, 0)


@pytest.mark.parametrize("depth", [0, -2])
def test_random_constructors_refuse_a_depth_below_one(depth):
    # the public constructors of Weight and GridFunction2D refuse these depths too
    for strength in (0.0, 0.5):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            random_cascade_weight(depth, strength, 0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        random_symbol(depth, 0)


@pytest.mark.parametrize("depth", [0, -2])
def test_every_depth_below_one_is_refused_in_one_wording(depth):
    calls = (lambda: GridFunction2D(depth, np.zeros((1, 1))),
             lambda: random_symbol(depth, 0),
             lambda: random_cascade_weight(depth, 0.5, 0),
             lambda: ExperimentConfig("jn", depth=depth))
    for call in calls:
        with pytest.raises(ValueError, match=rf"^depth must be >= 1, got {depth}$"):
            call()


@pytest.mark.parametrize("p", [1.0, 0.5, -3.0, math.inf, math.nan])
def test_every_exponent_without_a_finite_dual_is_refused_in_one_wording(p):
    w = constant_weight(2)
    calls = (lambda: ap_characteristic(w, p), lambda: conjugate_weight(w, p),
             lambda: bloom_weight(w, w, p), lambda: average_comparability_report(w, p),
             lambda: opnorm(np.eye(16), w, w, p))
    for call in calls:
        with pytest.raises(ValueError, match=r"^a finite dual exponent needs p in \(1, inf\)"):
            call()


def test_guards_raise_instead_of_asserting(monkeypatch):
    # the checks must survive ``python -O``, so they are exceptions, not asserts
    weights = importlib.import_module("haarbloom.weights")
    w = random_cascade_weight(2, 0.5, 3)
    monkeypatch.setattr(weights, "rectangle_means", lambda stack: np.zeros((len(stack), 1)))
    with pytest.raises(RuntimeError, match="Jensen floor"):
        ap_characteristic(w, 2.0)
    monkeypatch.undo()
    # nu is the last of the three weights bloom_weight scores
    fake = lambda pairs: [ApReport(p, 2.0 if i == 2 else 1.0, unit_square())
                          for i, (_, p) in enumerate(pairs)]
    monkeypatch.setattr(weights, "_characteristics", fake)
    with pytest.raises(RuntimeError, match="exceeds the cap"):
        bloom_weight(w, constant_weight(2), 2.0)
    monkeypatch.undo()
    # nu's slices, last in the stacked pass, average to zero: its characteristic reads 0
    real = weights.rectangle_means
    monkeypatch.setattr(weights, "rectangle_means",
                        lambda stack: np.concatenate([real(stack[:-2]), 0.0 * real(stack[-2:])]))
    with pytest.raises(RuntimeError, match="characteristic 0.0 below the Jensen floor"):
        bloom_weight(w, constant_weight(2), 2.0)


# ---------------------------------------------------------------------------
# one stacked pass for a trial's characteristics, against the per-weight path
# ---------------------------------------------------------------------------

def characteristic_per_weight(w, p):
    """The characteristic before the stacked pass: two rectangle_means calls per weight."""
    prod = rectangle_means(w.values) * rectangle_means(w.values ** (-1.0 / (p - 1.0))) ** (p - 1.0)
    row = int(np.argmax(prod))
    return float(prod[row]), rectangle_table(w.depth).rects[row]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_bloom_weight_fills_the_per_weight_characteristics_bit_for_bit(depth):
    rng = np.random.default_rng(140 + depth)
    for p in (1.1, 1.5, 2.0, 3.0, 8.0):
        mu, lam = random_cascade_weight(depth, 2.0, rng), random_cascade_weight(depth, 2.0, rng)
        nu = bloom_weight(mu, lam, p)
        for w, q in ((mu, p), (lam, p), (nu, 2)):
            report = w._ap_cache[q]
            assert ap_characteristic(w, q) is report       # read from the cache
            value, rect = characteristic_per_weight(w, q)
            assert np.float64(report.characteristic).tobytes() == np.float64(value).tobytes()
            assert report.rect == rect and report.p == q


def test_weights_the_package_builds_are_read_only():
    mu, lam = random_cascade_weight(2, 0.5, 150), random_cascade_weight(2, 0.5, 151)
    nu = bloom_weight(mu, lam, 1.5)
    for w in (mu, lam, nu):
        assert not w.values.flags.writeable and w.values.dtype == np.float64
        assert w._ap_cache and isinstance(w.grid, GridFunction2D)
    np.testing.assert_array_equal(nu.values, (mu.values / lam.values) ** (1.0 / 1.5))
