import itertools

import numpy as np
import pytest

from haarbloom.dyadic import (
    GridFunction2D,
    HAAR_KINDS,
    HaarCoefficients2D,
    Shadow,
    axis_table,
    cancellative_rectangles,
    haar_forward,
    haar_function,
    haar_inverse,
    haar_project,
    haar_project_x,
    haar_project_y,
    indicator,
    partial_haar_sum,
    random_grid,
    random_symbol,
    slot_interval,
    slot_of,
    unit_square,
)
from haarbloom.operators import (
    MATRIX_MAX_DEPTH,
    _cc_table,
    _pairing_kernels,
    SignChoice1D,
    SignChoice2D,
    axis_sign_rows,
    commutator_apply,
    commutator_matrices,
    haar_multiplier,
    haar_multiplier_x,
    haar_multiplier_y,
    iterated_commutator,
    iterated_projection_commutator,
    lambda_matrix,
    lambda_operator,
    materialize,
    multiplication_operator,
    nested_commutator_apply,
    multiplier_operator_x,
    multiplier_operator_y,
    paraproduct_matrix,
    paraproduct_operator,
    rectangle_average_table,
    restricted_projection,
    theta_operator,
)


def boxes_inside(shadow):
    """The cancellative rectangles all of whose cells lie in the shadow, box by box."""
    depth = shadow.depth
    return [r for r in cancellative_rectangles(depth) if shadow.mask[r.cell_box(depth)].all()]


def lambda_second_form(b, f):
    """Independent oracle: sum over rectangles of (local projection of b) f_R h_R."""
    out = GridFunction2D.zeros(f.depth)
    coeffs = haar_forward(f)
    for r in cancellative_rectangles(f.depth):
        c = coeffs.coefficient(r)
        out = out + partial_haar_sum(b, r) * haar_function(r, f.depth) * c
    return out


def mixed_table(f, x_scaling, y_scaling):
    """Slot-indexed coefficients of f against the chosen tensor Haar types."""
    table = axis_table(f.depth)
    left = table.hn if x_scaling else table.hc
    right = table.hn if y_scaling else table.hc
    return (left @ f.values @ right.T) * 4.0 ** (-f.depth)


def paraproduct_from_cc(kind, cc, f):
    """Literal paraproduct of one kind, given the symbol's fully cancellative table."""
    table = axis_table(f.depth)
    hc, hn = table.hc, table.hn
    coef = cc * table.scale * mixed_table(f, kind[0] == "1", kind[1] == "1")
    out_x = hc if kind[0] == "1" else hn   # output carries the complementary type
    out_y = hc if kind[1] == "1" else hn
    values = np.einsum("pq,pi,qj->ij", coef[1:, 1:], out_x[1:], out_y[1:])
    return GridFunction2D(f.depth, values)


def literal_paraproduct(kind, b):
    """Oracle closure: one paraproduct, evaluated from coefficient tables on every call."""
    cc = _cc_table(b)
    return lambda f: paraproduct_from_cc(kind, cc, f)


def literal_lambda(b):
    """Oracle closure: the four literal paraproducts, added in ``HAAR_KINDS`` order."""
    cc = _cc_table(b)

    def apply(f):
        out = paraproduct_from_cc("00", cc, f)
        for kind in ("10", "01", "11"):
            out = out + paraproduct_from_cc(kind, cc, f)
        return out
    return apply


def theta_brute_force(b, f):
    out = GridFunction2D.zeros(f.depth)
    coeffs = haar_forward(f)
    for r in cancellative_rectangles(f.depth):
        osc = b - b.values[r.cell_box(b.depth)].mean()
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
    np.testing.assert_allclose(paraproduct_operator("00", h)(h).values, 1.0, atol=1e-14)
    for kind in ("10", "01", "11"):
        assert paraproduct_operator(kind, h)(h).max_abs() < 1e-14
    np.testing.assert_allclose(lambda_operator(h)(h).values, 1.0, atol=1e-14)


def test_paraproduct_11_coefficients():
    # the fully non-cancellative pairing is diagonal: output coefficient
    # on R is b_R <f>_R
    b, f = random_symbol(2, 1), random_grid(2, 2)
    out = haar_forward(paraproduct_operator("11", b)(f))
    bcc = haar_forward(b)
    avg = rectangle_average_table(f)
    for r in cancellative_rectangles(2):
        expect = bcc.coefficient(r) * f.values[r.cell_box(2)].mean()
        assert abs(out.coefficient(r) - expect) < 1e-13
    assert abs(avg[0, 0] - f.integral()) < 1e-15


def test_average_table():
    f = random_grid(2, rng=8)
    avg = rectangle_average_table(f)
    for r in cancellative_rectangles(2):
        from haarbloom.dyadic import slot_of
        assert abs(avg[slot_of(r.x), slot_of(r.y)] - f.values[r.cell_box(2)].mean()) < 1e-14


def test_lambda_two_forms_agree_on_bi_cancellative_input():
    rng = np.random.default_rng(10)
    for _ in range(10):
        b = random_grid(2, rng)            # arbitrary symbol
        f = random_symbol(2, rng)          # bi-cancellative argument
        got = lambda_operator(b)(f)
        want = lambda_second_form(b, f)
        assert (got - want).max_abs() < 1e-12


def test_lambda_two_forms_differ_off_the_cancellative_span():
    # deliberate negative control: with a non-trivial scaling component in
    # the argument the two expressions are genuinely different operators
    b = random_symbol(2, 3)
    f = random_grid(2, 4)
    gap = (lambda_operator(b)(f) - lambda_second_form(b, f)).max_abs()
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
        assert np.abs(m1).max() < 1e-13
        assert np.abs(m2).max() < 1e-13


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
        right = restricted_projection(lambda_operator(b)(indicator(omega)), omega)
        assert (left - right).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# oscillation operator
# ---------------------------------------------------------------------------

def test_theta_matches_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(5):
        b, f = random_grid(2, rng), random_grid(2, rng)
        assert (theta_operator(b)(f) - theta_brute_force(b, f)).max_abs() < 1e-12


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
    want = theta_operator(b)(f)
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
        out = haar_project(theta_operator(b)(haar_project(f, r)), r)
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
    sigma = SignChoice2D(2, np.outer(sx.signs, sy.signs))
    composed = haar_multiplier_x(haar_multiplier_y(f, sy), sx)
    assert (haar_multiplier(f, sigma) - composed).max_abs() < 1e-13


def test_pm_one_multiplier_squares_to_cancellative_projection():
    f = random_grid(2, 20)
    sigma = SignChoice2D.random(2, 21)
    twice = haar_multiplier(haar_multiplier(f, sigma), sigma)
    assert (twice - checked_inverse(2, _cc_table(f))).max_abs() < 1e-13


def test_random_sign_choice_draws_unit_signs_from_the_generator():
    # one rng.choice over (-1, 1) per call, slot 0 then cleared: the same bits and stream
    for depth in (1, 2, 3):
        rng, again = np.random.default_rng([60, depth]), np.random.default_rng([60, depth])
        got = SignChoice1D.random(depth, rng)
        want = again.choice((-1.0, 1.0), size=1 << depth)
        want[0] = 0.0
        assert got.signs.tobytes() == want.tobytes()
        assert rng.bit_generator.state == again.bit_generator.state
        assert set(got.signs[1:]) <= {-1.0, 1.0}


def test_sign_choice_json_round_trip():
    # one entry per cancellative slot (pair), in slot (rectangle) order, with its sign
    sx = SignChoice1D.random(3, 22)
    intervals = [slot_interval(p) for p in range(1, 8)]
    assert sx.to_json() == [{"level": iv.level, "index": iv.index, "sign": sign}
                            for iv, sign in zip(intervals, sx.signs[1:])]
    s2 = SignChoice2D.random(2, 23)
    want2 = [{**r.as_dict(), "sign": s2.signs[slot_of(r.x), slot_of(r.y)]}
             for r in cancellative_rectangles(2)]
    assert s2.to_json() == want2
    assert set(sx.to_json()[0]) == {"level", "index", "sign"}
    assert set(s2.to_json()[0]) == {"lx", "ix", "ly", "iy", "sign"}


def test_scaling_slot_is_forced_to_zero():
    s = SignChoice1D(1, np.array([5.0, 1.0]))
    assert s.signs[0] == 0.0
    f = random_grid(1, 24)
    g = haar_multiplier_x(f, SignChoice1D(1, np.ones(2)))
    # constant-sign multiplier removes the x-average
    expect = f.values - f.values.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(g.values, expect, atol=1e-14)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def apply(mat, f):
    """A dense matrix applied to a grid function's raveled cell values."""
    return GridFunction2D(f.depth, (mat @ f.values.ravel()).reshape(f.values.shape))


def test_materialize_round_trip():
    b = random_symbol(2, 25)
    op = lambda_operator(b)
    mat = materialize(op, 2)
    assert mat.shape == (16, 16) and mat.dtype == float
    f = random_grid(2, 26)
    assert (apply(mat, f) - op(f)).max_abs() < 1e-12


def test_transpose_is_unweighted_adjoint():
    b = random_symbol(2, 27)
    mat = materialize(lambda_operator(b), 2)
    f, g = random_grid(2, 28), random_grid(2, 29)
    lhs = (apply(mat, f) * g).integral()
    rhs = (f * apply(mat.transpose(), g)).integral()
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_paraproduct_matrices_match_the_literal_operators(depth):
    b = random_grid(depth, 30 + depth)
    for kind in ("00", "10", "01", "11"):
        want = materialize(literal_paraproduct(kind, b), depth)
        got = paraproduct_matrix(kind, b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(materialize(paraproduct_operator(kind, b), depth),
                                   want, rtol=0, atol=1e-13 * np.abs(want).max())
    want = materialize(literal_lambda(b), depth)
    np.testing.assert_allclose(lambda_matrix(b), want,
                               rtol=0, atol=1e-13 * np.abs(want).max())
    np.testing.assert_allclose(materialize(lambda_operator(b), depth), want,
                               rtol=0, atol=1e-13 * np.abs(want).max())


def held_arrays(op):
    """The arrays an operator closure holds."""
    return [cell.cell_contents for cell in op.__closure__ or ()
            if isinstance(cell.cell_contents, np.ndarray)]


@pytest.mark.parametrize("name", ["lambda", "00", "10", "01", "11"])
def test_paraproduct_operators_hold_read_only_matrices(name):
    b = random_grid(2, 36)
    op = lambda_operator(b) if name == "lambda" else paraproduct_operator(name, b)
    (mat,) = held_arrays(op)
    assert mat.shape == (16, 16)
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat.flat[0] = 1.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_lambda_operator_is_lambda_matrix(depth):
    # one Lambda: the operator the identity suite applies is the matrix the CLI prints
    rng = np.random.default_rng(150 + depth)
    for _ in range(20):
        b = random_grid(depth, rng)
        op = lambda_operator(b)
        (held,) = held_arrays(op)
        assert not held.flags.writeable
        assert np.array_equal(held, lambda_matrix(b))
        assert np.array_equal(materialize(op, depth), lambda_matrix(b))


def uncached_paraproduct_matrix(b, x_kinds, y_kinds):
    """Oracle: the pairing kernels and the einsum path built afresh on each call."""
    table = axis_table(b.depth)
    hc, hn = table.hc, table.hn

    def kernel(kinds):
        out = np.zeros((hc.shape[0] - 1, hc.shape[1], hc.shape[1]))
        for kind in kinds:
            inp, emit = (hn, hc) if kind == "1" else (hc, hn)
            out += emit[1:, :, None] * inp[1:, None, :]
        return out
    coef = (_cc_table(b) * table.scale)[1:, 1:]
    mat = np.einsum("pq,pik,qjl->ijkl", coef, kernel(x_kinds), kernel(y_kinds), optimize=True)
    m = 4 ** b.depth
    return mat.reshape(m, m) * 4.0 ** (-b.depth)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_paraproduct_matrices_match_the_uncached_einsum_bit_for_bit(depth):
    for seed in range(3):
        b = random_grid(depth, 70 + 10 * depth + seed)
        for kind in HAAR_KINDS:
            want = uncached_paraproduct_matrix(b, kind[0], kind[1])
            assert paraproduct_matrix(kind, b).tobytes() == want.tobytes()
        want = uncached_paraproduct_matrix(b, "01", "01")
        assert lambda_matrix(b).tobytes() == want.tobytes()


def test_pairing_kernels_and_axis_bases_are_cached_read_only():
    for depth in (1, 2, 3):
        names = ("0", "1", "01")
        kernels = [_pairing_kernels(depth, kinds) for kinds in names]
        assert all(_pairing_kernels(depth, kinds) is kernel
                   for kinds, kernel in zip(names, kernels))
        axes = axis_table(depth)
        for table in kernels + [axes.hc, axes.hn, axes.scale]:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 1.0


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
        want = materialize(lambda f: iterated_projection_commutator(b, f, ix, jy), depth)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(b.values).max())


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_commutator_matrices_match_literal_nested_commutators(depth):
    rng = np.random.default_rng(50 + depth)
    b = random_symbol(depth, rng)
    draws = [SignChoice1D(depth, rng.choice(values, size=1 << depth))
             for values in [(-1.0, 1.0)] * 4 + [(-1.0, 0.0, 1.0)] * 4]
    mats = commutator_matrices(b, np.array([s.signs for s in draws[0::2]]),
                               np.array([s.signs for s in draws[1::2]]))
    assert mats.shape == (4, 4 ** depth, 4 ** depth)
    for sx, sy, got in zip(draws[0::2], draws[1::2], mats):
        want = materialize(lambda f: iterated_commutator(b, f, sx, sy), depth)
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
        paraproduct_operator("11", b)(f)
    with pytest.raises(ValueError):
        paraproduct_operator("2", b)
    with pytest.raises(ValueError):
        haar_multiplier_x(f, SignChoice1D(1, np.ones(2)))
    with pytest.raises(ValueError):
        theta_operator(b)(f)
    with pytest.raises(ValueError):     # refused before allocating: 2 GiB at depth 7
        materialize(lambda g: g, MATRIX_MAX_DEPTH + 1)
    with pytest.raises(ValueError):
        commutator_matrices(f, np.ones((2, 4)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        commutator_matrices(f, np.ones((2, 2)), np.ones((2, 2)))


def test_paraproduct_matrices_refuse_depths_beyond_their_limit(monkeypatch):
    # patched so that a missing guard fails here instead of allocating 128 MB
    from haarbloom import operators

    def boom(*args, **kwargs):
        raise AssertionError("a matrix was built")
    for name in ("axis_table", "_cc_table", "_pairing_kernels"):
        monkeypatch.setattr(operators, name, boom)
    depth = operators.MATRIX_MAX_DEPTH + 1
    b, f = random_grid(depth, 1), random_grid(depth, 2)
    calls = [lambda: lambda_operator(b)(f), lambda: lambda_matrix(b)]
    for kind in HAAR_KINDS:
        calls += [lambda kind=kind: paraproduct_operator(kind, b)(f),
                  lambda kind=kind: paraproduct_matrix(kind, b)]
    for call in calls:
        with pytest.raises(ValueError, match="limited to depth <= 5"):
            call()


def test_commutator_matrices_refuse_depths_beyond_their_limit(monkeypatch):
    # patched so that a missing guard fails here instead of allocating 134 MB per pair
    from haarbloom import operators

    def boom(*args, **kwargs):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(operators, "axis_table", boom)
    depth = operators.MATRIX_MAX_DEPTH + 1
    signs = np.ones((2, 1 << depth))
    with pytest.raises(ValueError, match="limited to depth <= 5"):
        commutator_matrices(random_grid(depth, 1), signs, signs)


# ---------------------------------------------------------------------------
# unchecked synthesis and matrix products against the checked forms they replaced
# ---------------------------------------------------------------------------

def assert_same_grid(got, want):
    assert got.depth == want.depth
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.shape == want.values.shape == (1 << got.depth,) * 2
    np.testing.assert_array_equal(got.values, want.values)


def checked_inverse(depth, table):
    """Oracle: the validated coefficient table, then the public inverse transform."""
    return haar_inverse(HaarCoefficients2D(depth, table))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_literal_operators_match_the_checked_synthesis(depth):
    rng = np.random.default_rng(120 + depth)
    n = 1 << depth
    for _ in range(3):
        b, f = random_grid(depth, rng), random_grid(depth, rng)
        sx, sy = SignChoice1D.random(depth, rng), SignChoice1D.random(depth, rng)
        sigma = SignChoice2D.random(depth, rng)
        table = haar_forward(f).table
        assert_same_grid(haar_multiplier_x(f, sx),
                         checked_inverse(depth, table * sx.signs[:, None]))
        assert_same_grid(haar_multiplier_y(f, sy),
                         checked_inverse(depth, table * sy.signs[None, :]))
        assert_same_grid(haar_multiplier(f, sigma), checked_inverse(depth, table * sigma.signs))
        cc = _cc_table(f)
        want = (b * checked_inverse(depth, cc)
                - checked_inverse(depth, cc * rectangle_average_table(b)))
        assert_same_grid(theta_operator(b)(f), want)
        omega = Shadow(rng.random((n, n)) < 0.6)
        keep = np.zeros((n, n), bool)
        for r in boxes_inside(omega):
            keep[slot_of(r.x), slot_of(r.y)] = True
        assert_same_grid(restricted_projection(f, omega), checked_inverse(depth, table * keep))
        assert_same_grid(restricted_projection(f, omega),
                         restricted_projection(f, boxes_inside(omega)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_matrix_operators_apply_their_held_matrix(depth):
    rng = np.random.default_rng(130 + depth)
    n = 1 << depth
    b = random_grid(depth, rng)
    ops = [lambda_operator(b)] + [paraproduct_operator(kind, b) for kind in HAAR_KINDS]
    for _ in range(3):
        f = random_grid(depth, rng)
        for op in ops:
            (mat,) = held_arrays(op)
            want = GridFunction2D(depth, (mat @ f.values.ravel()).reshape(n, n))
            assert_same_grid(op(f), want)
    for op in ops:
        with pytest.raises(ValueError, match="disagree on depth"):
            op(random_grid(depth % 4 + 1, rng))
