import importlib

import numpy as np
import pytest

from haarbloom.dyadic import DyadicInterval, DyadicRectangle, GridFunction2D, Shadow, unit_square
from haarbloom.weights import (
    ApReport,
    Weight,
    ap_characteristic,
    average_comparability_report,
    bloom_weight,
    conjugate_weight,
    constant_weight,
    random_cascade_weight,
)


def make_weight(depth, values, role="generic"):
    return Weight(GridFunction2D(depth, np.asarray(values, float)), role)


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
        mu = random_cascade_weight(2, 0.5, rng, role="mu")
        lam = random_cascade_weight(2, 0.5, rng, role="lambda")
        nu = bloom_weight(mu, lam, p)
        assert nu.role == "nu"
        other = (conjugate_weight(lam, p).values ** (1.0 / pp)
                 * conjugate_weight(mu, p).values ** (-1.0 / pp))
        np.testing.assert_allclose(nu.values, other, rtol=1e-12)


def test_bloom_bounds_hold():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = random_cascade_weight(2, 0.9, rng)
        lam = random_cascade_weight(2, 0.9, rng)
        bloom_weight(mu, lam, 2.5, check=True)  # asserts internally
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
        ratios = rep.worst_ratios()
        assert ratios["max_q1_over_q2"] <= 1.0 + 1e-12
        assert ratios["max_q4_over_q1"] <= 1.0 + 1e-12
        # empirically the full chain q3 <= q4 holds as well
        assert ratios["max_q3_over_q4"] <= 1.0 + 1e-12


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


def test_measure():
    w = make_weight(1, [[2.0, 2.0], [1.0, 1.0]])
    assert w.measure(unit_square()) == pytest.approx(1.5)
    left = DyadicRectangle(DyadicInterval(1, 0), DyadicInterval(0, 0))
    assert w.measure(left) == pytest.approx(1.0)
    mask = Shadow(np.array([[True, False], [False, True]]))
    assert w.measure(mask) == pytest.approx(0.75)


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


def test_guards_raise_instead_of_asserting(monkeypatch):
    # the checks must survive ``python -O``, so they are exceptions, not asserts
    weights = importlib.import_module("haarbloom.weights")
    w = random_cascade_weight(2, 0.5, 3)
    monkeypatch.setattr(weights, "rectangle_means", lambda values: np.zeros(1))
    with pytest.raises(RuntimeError, match="Jensen floor"):
        ap_characteristic(w, 2.0)
    monkeypatch.undo()
    fake = lambda w, p: ApReport(p, 2.0 if w.role == "nu" else 1.0, unit_square())
    monkeypatch.setattr(weights, "ap_characteristic", fake)
    with pytest.raises(RuntimeError, match="exceeds the cap"):
        bloom_weight(w, constant_weight(2), 2.0)
