import itertools

import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    cancellative_rectangles,
    haar_forward,
    haar_function,
    haar_project,
    haar_project_x,
    haar_project_y,
    indicator,
    partial_haar_sum,
    random_grid,
    random_symbol,
    slot_interval,
    unit_square,
)
from haarbloom.operators import (
    OperatorMatrix,
    SignChoice1D,
    SignChoice2D,
    axis_sign_rows,
    bi_cancellative_part,
    commutator_apply,
    commutator_matrices,
    haar_multiplier,
    haar_multiplier_x,
    haar_multiplier_y,
    iterated_commutator,
    iterated_projection_commutator,
    lambda_apply,
    lambda_matrix,
    lambda_operator,
    materialize,
    multiplication_operator,
    nested_commutator_apply,
    multiplier_operator_x,
    multiplier_operator_y,
    paraproduct_apply,
    paraproduct_matrix,
    paraproduct_operator,
    rectangle_average_table,
    restricted_projection,
    theta_apply,
    theta_operator,
)


def lambda_second_form(b, f):
    """Independent oracle: sum over rectangles of (local projection of b) f_R h_R."""
    out = GridFunction2D.zeros(f.depth)
    coeffs = haar_forward(f)
    for r in cancellative_rectangles(f.depth):
        c = coeffs.coefficient(r)
        out = out + partial_haar_sum(b, r) * haar_function(r, f.depth) * c
    return out


def theta_brute_force(b, f):
    out = GridFunction2D.zeros(f.depth)
    coeffs = haar_forward(f)
    for r in cancellative_rectangles(f.depth):
        osc = b - b.average(r)
        out = out + osc * haar_function(r, f.depth) * coeffs.coefficient(r)
    return out


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------

def test_paraproduct_frozen_example():
    # symbol = argument = root Haar function at depth 1: the "00" pairing
    # reproduces the normalized indicator (constant 1), the other three
    # vanish, so the four-term sum is the constant function 1
    h = haar_function(unit_square(), 1)
    np.testing.assert_allclose(paraproduct_apply("00", h, h).values, 1.0, atol=1e-14)
    for kind in ("10", "01", "11"):
        assert paraproduct_apply(kind, h, h).max_abs() < 1e-14
    np.testing.assert_allclose(lambda_apply(h, h).values, 1.0, atol=1e-14)


def test_paraproduct_11_coefficients():
    # the fully non-cancellative pairing is diagonal: output coefficient
    # on R is b_R <f>_R
    b, f = random_symbol(2, 1), random_grid(2, 2)
    out = haar_forward(paraproduct_apply("11", b, f))
    bcc = haar_forward(b)
    avg = rectangle_average_table(f)
    for r in cancellative_rectangles(2):
        expect = bcc.coefficient(r) * f.average(r)
        assert abs(out.coefficient(r) - expect) < 1e-13
    assert abs(avg[0, 0] - f.integral()) < 1e-15


def test_average_table():
    f = random_grid(2, rng=8)
    avg = rectangle_average_table(f)
    for r in cancellative_rectangles(2):
        from haarbloom.dyadic import slot_of
        assert abs(avg[slot_of(r.x), slot_of(r.y)] - f.average(r)) < 1e-14


def test_lambda_two_forms_agree_on_bi_cancellative_input():
    rng = np.random.default_rng(10)
    for _ in range(10):
        b = random_grid(2, rng)            # arbitrary symbol
        f = random_symbol(2, rng)          # bi-cancellative argument
        got = lambda_apply(b, f)
        want = lambda_second_form(b, f)
        assert (got - want).max_abs() < 1e-12


def test_lambda_apply_is_the_sum_of_the_four_paraproducts_bit_for_bit():
    rng = np.random.default_rng(12)
    for depth in (1, 2, 3):
        b, f = random_grid(depth, rng), random_grid(depth, rng)
        want = paraproduct_apply("00", b, f)
        for kind in ("10", "01", "11"):
            want = want + paraproduct_apply(kind, b, f)
        assert np.array_equal(lambda_apply(b, f).values, want.values)
    with pytest.raises(ValueError):
        lambda_apply(random_grid(2, rng), random_grid(3, rng))


def test_lambda_two_forms_differ_off_the_cancellative_span():
    # deliberate negative control: with a non-trivial scaling component in
    # the argument the two expressions are genuinely different operators
    b = random_symbol(2, 3)
    f = random_grid(2, 4)
    gap = (lambda_apply(b, f) - lambda_second_form(b, f)).max_abs()
    assert gap > 1e-3


# ---------------------------------------------------------------------------
# commutator identities
# ---------------------------------------------------------------------------

def test_projection_commutators_see_only_the_paraproduct_sum():
    # replacing multiplication by b with the four-paraproduct sum leaves
    # every nested projection commutator unchanged -- on arbitrary input
    rng = np.random.default_rng(11)
    for _ in range(5):
        b, f = random_grid(2, rng), random_grid(2, rng)
        lam = lambda_operator(b)
        for p in range(1, 4):
            for q in range(1, 4):
                ix, jy = slot_interval(p), slot_interval(q)
                got = iterated_projection_commutator(b, f, ix, jy)
                via_lambda = nested_commutator_apply(
                    lambda g: haar_project_x(g, ix),
                    lambda g: haar_project_y(g, jy), lam, f)
                assert (got - via_lambda).max_abs() < 1e-12


def test_multiplier_commutators_see_only_the_paraproduct_sum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        b, f = random_grid(2, rng), random_grid(2, rng)
        sx, sy = SignChoice1D.random(2, rng), SignChoice1D.random(2, rng)
        got = iterated_commutator(b, f, sx, sy)
        via_lambda = nested_commutator_apply(
            multiplier_operator_x(sx), multiplier_operator_y(sy),
            lambda_operator(b), f)
        assert (got - via_lambda).max_abs() < 1e-12


def test_one_parameter_projections_annihilate_lambda():
    # Q1 Lambda_b Q1 = 0 = Q2 Lambda_b Q2, checked at matrix level
    b = random_grid(2, 13)
    lam = lambda_operator(b)
    for p in range(1, 4):
        iv = slot_interval(p)
        m1 = materialize(lambda g: haar_project_x(lam(haar_project_x(g, iv)), iv), 2)
        m2 = materialize(lambda g: haar_project_y(lam(haar_project_y(g, iv)), iv), 2)
        assert np.abs(m1.matrix).max() < 1e-13
        assert np.abs(m2.matrix).max() < 1e-13


def test_restricted_projection_recovers_symbol_from_lambda():
    # P_Omega b = P_Omega(Lambda_b 1_Omega) for any cell mask
    rng = np.random.default_rng(14)
    for _ in range(10):
        b = random_grid(2, rng)
        mask = rng.random((4, 4)) < 0.5
        if not mask.any():
            mask[0, 0] = True
        omega = Shadow(mask)
        left = restricted_projection(b, omega)
        right = restricted_projection(lambda_apply(b, indicator(omega)), omega)
        assert (left - right).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# oscillation operator
# ---------------------------------------------------------------------------

def test_theta_matches_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(5):
        b, f = random_grid(2, rng), random_grid(2, rng)
        assert (theta_apply(b, f) - theta_brute_force(b, f)).max_abs() < 1e-12


def test_theta_replaces_symbol_in_single_commutators():
    rng = np.random.default_rng(16)
    for _ in range(5):
        b = random_grid(2, rng)
        f = random_symbol(2, rng)          # domain restriction is essential
        th = theta_operator(b)
        for r in cancellative_rectangles(2):
            qr = lambda g, r=r: haar_project(g, r)
            with_b = commutator_apply(qr, multiplication_operator(b), f)
            with_theta = commutator_apply(qr, th, f)
            assert (with_b - with_theta).max_abs() < 1e-12
        sigma = SignChoice2D.random(2, rng)
        t = lambda g: haar_multiplier(g, sigma)
        with_b = commutator_apply(t, multiplication_operator(b), f)
        with_theta = commutator_apply(t, th, f)
        assert (with_b - with_theta).max_abs() < 1e-12


def test_theta_operator_snapshots_its_symbol():
    # the average table is built once, so later edits to b must not reach it
    rng = np.random.default_rng(18)
    b, f = random_grid(2, rng), random_grid(2, rng)
    want = theta_apply(b, f)
    th = theta_operator(b)
    b.values[:] = 0.0
    np.testing.assert_array_equal(th(f).values, want.values)


@pytest.mark.parametrize("name", ["lambda", "multiplication", "00", "10", "01", "11"])
def test_symbol_operators_ignore_later_edits_to_their_symbol(name):
    # like Theta: each operator reads its symbol once, when it is built
    factory = {"lambda": lambda_operator, "multiplication": multiplication_operator}.get(
        name, lambda b: paraproduct_operator(name, b))
    rng = np.random.default_rng(19)
    b, f = random_grid(2, rng), random_grid(2, rng)
    want = factory(b.copy())(f)
    op = factory(b)
    b.values[:] = 0.0
    np.testing.assert_array_equal(op(f).values, want.values)


def test_theta_sandwiched_by_one_rectangle_vanishes():
    rng = np.random.default_rng(17)
    b, f = random_grid(2, rng), random_grid(2, rng)   # no restriction here
    for r in cancellative_rectangles(2):
        out = haar_project(theta_apply(b, haar_project(f, r)), r)
        assert out.max_abs() < 1e-13


# ---------------------------------------------------------------------------
# multipliers and sign choices
# ---------------------------------------------------------------------------

def test_multiplier_is_sum_of_projections():
    rng = np.random.default_rng(18)
    f = random_grid(2, rng)
    sx = SignChoice1D.random(2, rng)
    total = GridFunction2D.zeros(2)
    for p in range(1, 4):
        iv = slot_interval(p)
        total = total + haar_project_x(f, iv) * sx.sign(iv)
    assert (haar_multiplier_x(f, sx) - total).max_abs() < 1e-13
    sy = SignChoice1D.random(2, rng)
    total = GridFunction2D.zeros(2)
    for q in range(1, 4):
        iv = slot_interval(q)
        total = total + haar_project_y(f, iv) * sy.sign(iv)
    assert (haar_multiplier_y(f, sy) - total).max_abs() < 1e-13


def test_tensor_multiplier_is_composition():
    rng = np.random.default_rng(19)
    f = random_grid(2, rng)
    sx, sy = SignChoice1D.random(2, rng), SignChoice1D.random(2, rng)
    sigma = SignChoice2D.from_tensor(sx, sy)
    composed = haar_multiplier_x(haar_multiplier_y(f, sy), sx)
    assert (haar_multiplier(f, sigma) - composed).max_abs() < 1e-13


def test_pm_one_multiplier_squares_to_cancellative_projection():
    f = random_grid(2, 20)
    sigma = SignChoice2D.random(2, 21)
    twice = haar_multiplier(haar_multiplier(f, sigma), sigma)
    assert (twice - bi_cancellative_part(f)).max_abs() < 1e-13


def test_sign_choice_json_round_trip():
    sx = SignChoice1D.random(3, 22)
    back = SignChoice1D.from_json(sx.to_json(), 3)
    np.testing.assert_array_equal(back.signs, sx.signs)
    s2 = SignChoice2D.random(2, 23)
    back2 = SignChoice2D.from_json(s2.to_json(), 2)
    np.testing.assert_array_equal(back2.signs, s2.signs)
    entry = sx.to_json()[0]
    assert set(entry) == {"level", "index", "sign"}
    entry2 = s2.to_json()[0]
    assert set(entry2) == {"lx", "ix", "ly", "iy", "sign"}


def test_scaling_slot_is_forced_to_zero():
    s = SignChoice1D(1, np.array([5.0, 1.0]))
    assert s.signs[0] == 0.0
    f = random_grid(1, 24)
    g = haar_multiplier_x(f, SignChoice1D.constant(1))
    # constant-sign multiplier removes the x-average
    expect = f.values - f.values.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(g.values, expect, atol=1e-14)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def test_materialize_round_trip():
    b = random_symbol(2, 25)
    op = lambda_operator(b)
    mat = materialize(op, 2)
    f = random_grid(2, 26)
    assert (mat.apply(f) - op(f)).max_abs() < 1e-12


def test_transpose_is_unweighted_adjoint():
    b = random_symbol(2, 27)
    mat = materialize(lambda_operator(b), 2)
    f, g = random_grid(2, 28), random_grid(2, 29)
    lhs = (mat.apply(f) * g).integral()
    rhs = (f * mat.transpose().apply(g)).integral()
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_paraproduct_matrices_match_the_literal_operators(depth):
    b = random_grid(depth, 30 + depth)
    for kind in ("00", "10", "01", "11"):
        want = materialize(paraproduct_operator(kind, b), depth).matrix
        got = paraproduct_matrix(kind, b).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    want = materialize(lambda_operator(b), depth).matrix
    np.testing.assert_allclose(lambda_matrix(b).matrix, want,
                               rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_commutator_blocks_match_literal_projection_commutators(depth):
    # unit sign rows pick out one block C_pq = [Q1_p, [Q2_q, M_b]]
    b = random_grid(depth, 40 + depth)
    n = 1 << depth
    pairs = list(itertools.product(range(1, n), repeat=2))
    eye = np.eye(n)
    blocks = commutator_matrices(b, eye[[p for p, _ in pairs]], eye[[q for _, q in pairs]])
    for (p, q), got in zip(pairs, blocks):
        ix, jy = slot_interval(p), slot_interval(q)
        want = materialize(lambda f: iterated_projection_commutator(b, f, ix, jy), depth).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(b.values).max())


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_commutator_matrices_match_literal_nested_commutators(depth):
    rng = np.random.default_rng(50 + depth)
    b = random_symbol(depth, rng)
    draws = [SignChoice1D.random(depth, rng, values=values)
             for values in [(-1.0, 1.0)] * 4 + [(-1.0, 0.0, 1.0)] * 4]
    mats = commutator_matrices(b, np.array([s.signs for s in draws[0::2]]),
                               np.array([s.signs for s in draws[1::2]]))
    assert mats.shape == (4, 4 ** depth, 4 ** depth)
    for sx, sy, got in zip(draws[0::2], draws[1::2], mats):
        want = materialize(lambda f: iterated_commutator(b, f, sx, sy), depth).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(b.values).max())


def test_axis_sign_rows_enumeration_order():
    for depth in (1, 2, 3):
        rows = axis_sign_rows(depth)
        combos = list(itertools.product((-1.0, 1.0), repeat=(1 << depth) - 1))
        assert rows.shape == (len(combos), 1 << depth)
        assert np.all(rows[:, 0] == 0.0)
        np.testing.assert_array_equal(rows[:, 1:], np.array(combos))
    with pytest.raises(ValueError):
        axis_sign_rows(5)       # 2^31 rows: refused before anything is allocated


def test_validation():
    b, f = random_grid(1, 1), random_grid(2, 2)
    with pytest.raises(ValueError):
        paraproduct_apply("11", b, f)
    with pytest.raises(ValueError):
        paraproduct_apply("2", b, b)
    with pytest.raises(ValueError):
        haar_multiplier_x(f, SignChoice1D.constant(1))
    with pytest.raises(ValueError):
        theta_apply(b, f)
    with pytest.raises(ValueError):
        OperatorMatrix(1, np.ones((3, 3)))
    with pytest.raises(ValueError):
        SignChoice2D.from_tensor(SignChoice1D.constant(1), SignChoice1D.constant(2))
    with pytest.raises(ValueError):
        commutator_matrices(f, np.ones((2, 4)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        commutator_matrices(f, np.ones((2, 2)), np.ones((2, 2)))
