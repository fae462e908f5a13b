import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    HaarCoefficients2D,
    HaarFunctionSpec,
    Shadow,
    all_rectangles,
    axis_haar_values,
    cancellative_rectangles,
    grid_from_csv,
    grid_to_csv,
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
    rectangle_means,
    rectangle_table,
    rectangles_in_shadow,
    slot_interval,
    slot_of,
    unit_square,
)
from haarbloom import dyadic
from haarbloom.operators import _axis_bases


def rect(lx, ix, ly, iy):
    return DyadicRectangle(DyadicInterval(lx, ix), DyadicInterval(ly, iy))


# ---------------------------------------------------------------------------
# intervals / rectangles
# ---------------------------------------------------------------------------

def test_interval_geometry():
    i = DyadicInterval(2, 3)
    assert i.length == 0.25
    assert (i.left, i.right) == (0.75, 1.0)
    lo, hi = i.halves()
    assert lo == DyadicInterval(3, 6) and hi == DyadicInterval(3, 7)
    assert lo.parent() == i
    assert i.cell_slice(4) == slice(12, 16)


def test_interval_validation():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(1, 2)
    with pytest.raises(ValueError):
        DyadicInterval(0, 0).parent()
    with pytest.raises(ValueError):
        DyadicInterval(3, 0).cell_slice(2)


def test_containment():
    root = DyadicInterval(0, 0)
    assert root.contains(DyadicInterval(3, 5))
    assert DyadicInterval(1, 1).contains(DyadicInterval(2, 2))
    assert not DyadicInterval(1, 1).contains(DyadicInterval(2, 1))
    assert not DyadicInterval(2, 1).contains(DyadicInterval(1, 0))
    big = rect(0, 0, 1, 1)
    assert big.contains(rect(2, 3, 1, 1))
    assert not big.contains(rect(2, 3, 1, 0))


def test_slots_round_trip():
    for level in range(4):
        for index in range(1 << level):
            i = DyadicInterval(level, index)
            assert slot_interval(slot_of(i)) == i
    with pytest.raises(ValueError):
        slot_interval(0)


def test_rectangle_enumeration():
    rects = all_rectangles(2)
    assert len(rects) == 49  # (2^3 - 1)^2
    assert rects[0] == unit_square()
    assert len(set(rects)) == 49
    assert len(cancellative_rectangles(2)) == 9
    # enumeration is coarse-first in levels
    levels = [(r.x.level, r.y.level) for r in rects]
    assert levels == sorted(levels, key=lambda t: (t[0], t[1]))


# ---------------------------------------------------------------------------
# Haar basis
# ---------------------------------------------------------------------------

def test_sign_convention_frozen():
    # The root tensor Haar function is -1/+1 on the cells like a checkerboard:
    # negative where exactly one coordinate is in the left half.
    c = HaarCoefficients2D.zeros(1)
    c.table[1, 1] = 1.0
    f = haar_inverse(c)
    np.testing.assert_array_equal(f.values, [[1.0, -1.0], [-1.0, 1.0]])

    g = haar_function(unit_square(), 1)
    np.testing.assert_array_equal(g.values, [[1.0, -1.0], [-1.0, 1.0]])


def test_axis_values_scaling():
    v = axis_haar_values(DyadicInterval(1, 0), 2, cancellative=False)
    np.testing.assert_allclose(v, [np.sqrt(2), np.sqrt(2), 0, 0])
    h = axis_haar_values(DyadicInterval(1, 1), 2)
    np.testing.assert_allclose(h, [0, 0, -np.sqrt(2), np.sqrt(2)])
    with pytest.raises(ValueError):
        axis_haar_values(DyadicInterval(2, 0), 2)


def test_basis_is_orthonormal():
    # Gram matrix of all 16 tensor Haar functions at depth 2, evaluated
    # directly from the geometry (no fast transform involved).
    depth = 2
    members = []
    for kx in "01":
        for ky in "01":
            # in the multiresolution basis the scaling direction appears
            # exactly once per axis (the root constant)
            xs = ([unit_square().x] if kx == "1"
                  else [slot_interval(s) for s in range(1, 4)])
            for ix in xs:
                ys = ([unit_square().y] if ky == "1"
                      else [slot_interval(s) for s in range(1, 4)])
                for iy in ys:
                    spec = HaarFunctionSpec(DyadicRectangle(ix, iy), kx + ky)
                    members.append(haar_function(spec, depth).values.ravel())
    mat = np.array(members)
    gram = (mat @ mat.T) * 4.0 ** (-depth)
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)


def test_forward_matches_direct_inner_products():
    f = random_grid(3, rng=7)
    table = haar_forward(f).table
    area = 4.0 ** (-3)
    for r in cancellative_rectangles(3):
        direct = float(haar_function(r, 3).values.ravel() @ f.values.ravel()) * area
        assert abs(table[slot_of(r.x), slot_of(r.y)] - direct) < 1e-13
    # mixed block: x-scaling against the root, y cancellative
    spec = HaarFunctionSpec(rect(0, 0, 1, 1), "10")
    direct = float(haar_function(spec, 3).values.ravel() @ f.values.ravel()) * area
    assert abs(table[0, slot_of(DyadicInterval(1, 1))] - direct) < 1e-13
    assert abs(table[0, 0] - f.integral()) < 1e-14


def test_round_trip_and_plancherel():
    for depth in range(1, 5):
        f = random_grid(depth, rng=depth)
        c = haar_forward(f)
        back = haar_inverse(c)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)
        # Plancherel: the basis is orthonormal in L2 of the square
        assert abs(c.energy() - (f * f).integral()) < 1e-12


def level_loop_forward(f):
    """The transform as the per-level loops run it, axis 0 then axis 1."""
    return dyadic._forward_axis0(dyadic._forward_axis0(f.values).T).T


def level_loop_inverse(c):
    return dyadic._inverse_axis0(dyadic._inverse_axis0(c.table.T).T)


def test_transform_matrices_are_read_only_and_match_the_haar_bases():
    # the cached matrices come from the level loops; the bases from the
    # interval geometry (axis_haar_values), so the two are independent
    for depth in range(1, 7):
        a, s = dyadic._transform_matrices(depth)
        assert dyadic._transform_matrices(depth)[0] is a
        for mat in (a, s):
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 0.0
        hc = _axis_bases(depth)[0]
        np.testing.assert_allclose(a, hc / (1 << depth), rtol=0, atol=1e-15)
        np.testing.assert_allclose(s, hc.T, rtol=0, atol=1e-15)


def test_transform_matches_the_level_loops():
    rng = np.random.default_rng(21)
    for depth in range(1, 7):
        for _ in range(3):
            f = random_grid(depth, rng)
            want = level_loop_forward(f)
            got = haar_forward(f).table
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            c = HaarCoefficients2D(depth, rng.standard_normal(f.values.shape))
            want = level_loop_inverse(c)
            got = haar_inverse(c).values
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_axis_values_are_cached_read_only():
    iv = DyadicInterval(1, 1)
    v = axis_haar_values(iv, 3)
    assert axis_haar_values(iv, 3) is v
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 1.0
    assert axis_haar_values(iv, 3, cancellative=False) is not v


def test_block_views():
    f = random_grid(2, rng=3)
    c = haar_forward(f)
    assert c.c00.shape == (3, 3)
    assert c.c10.shape == (3,)
    np.testing.assert_array_equal(c.c10, c.table[0, 1:])
    assert c.c11 == c.table[0, 0]
    s = random_symbol(2, rng=4)
    cs = haar_forward(s)
    assert np.abs(cs.c10).max() < 1e-14
    assert np.abs(cs.c01).max() < 1e-14
    assert abs(cs.c11) < 1e-14
    assert np.abs(cs.c00).min() > 0


# ---------------------------------------------------------------------------
# projections and partial sums
# ---------------------------------------------------------------------------

def test_haar_project():
    f = random_grid(2, rng=11)
    r = rect(1, 0, 0, 0)
    p = haar_project(f, r)
    c = haar_forward(f).coefficient(r)
    np.testing.assert_allclose(p.values, c * haar_function(r, 2).values, atol=1e-13)
    # idempotent, and annihilates orthogonal rectangles
    np.testing.assert_allclose(haar_project(p, r).values, p.values, atol=1e-13)
    other = rect(1, 1, 0, 0)
    assert haar_project(p, other).max_abs() < 1e-14
    with pytest.raises(ValueError):
        haar_project(f, rect(2, 0, 0, 0))  # finest level: no resolved children


def test_one_parameter_projections():
    f = random_grid(2, rng=12)
    # summing the x-projections over every resolved I removes the x-average
    total = GridFunction2D.zeros(2)
    for s in range(1, 4):
        total = total + haar_project_x(f, slot_interval(s))
    expect = f.values - f.values.mean(axis=0, keepdims=True)
    np.testing.assert_allclose(total.values, expect, atol=1e-13)
    total = GridFunction2D.zeros(2)
    for s in range(1, 4):
        total = total + haar_project_y(f, slot_interval(s))
    expect = f.values - f.values.mean(axis=1, keepdims=True)
    np.testing.assert_allclose(total.values, expect, atol=1e-13)


def test_partial_sum_inclusion_exclusion():
    # independent oracle: on R the partial sum is f minus its one-variable
    # block averages plus the full block average; off R it vanishes
    rng = np.random.default_rng(5)
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        f = random_grid(depth, rng)
        lx = int(rng.integers(0, depth + 1))
        ly = int(rng.integers(0, depth + 1))
        r = rect(lx, int(rng.integers(0, 1 << lx)), ly, int(rng.integers(0, 1 << ly)))
        got = partial_haar_sum(f, r)
        expect = np.zeros_like(f.values)
        box = r.cell_box(depth)
        blk = f.values[box]
        expect[box] = (blk - blk.mean(axis=0, keepdims=True)
                       - blk.mean(axis=1, keepdims=True) + blk.mean())
        np.testing.assert_allclose(got.values, expect, atol=1e-12)


def test_partial_sum_is_sum_of_projections():
    f = random_grid(2, rng=13)
    r = rect(1, 1, 0, 0)
    total = GridFunction2D.zeros(2)
    for q in cancellative_rectangles(2):
        if r.contains(q):
            total = total + haar_project(f, q)
    np.testing.assert_allclose(partial_haar_sum(f, r).values, total.values, atol=1e-13)


# ---------------------------------------------------------------------------
# shadows and IO
# ---------------------------------------------------------------------------

def test_shadow_hex_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(10):
        mask = rng.random((4, 4)) < 0.5
        s = Shadow(mask)
        back = Shadow.from_hex(s.to_hex(), 2)
        np.testing.assert_array_equal(back.mask, mask)
    assert Shadow.full(1).to_hex() == "f"
    with pytest.raises(ValueError):
        Shadow.from_hex("1ffff", 2)


def test_shadow_rectangles():
    s = Shadow.from_rectangles([rect(1, 0, 0, 0)], 2)  # left half in x
    assert s.area() == 0.5
    assert s.contains_rect(rect(1, 0, 1, 1))
    assert not s.contains_rect(unit_square())
    inside = rectangles_in_shadow(s)
    # cancellative rectangles with x-interval inside [0, 1/2): x in {(1,0)}, y any of 3
    assert len(inside) == 3
    assert all(r.x == DyadicInterval(1, 0) for r in inside)
    assert len(rectangles_in_shadow(Shadow.full(2))) == 9


def test_rectangles_in_shadow_matches_contains_rect():
    rng = np.random.default_rng(40)
    for depth in (1, 2, 3):
        n = 1 << depth
        for _ in range(20):
            s = Shadow(rng.random((n, n)) < rng.uniform(0.3, 0.95))
            want = [r for r in cancellative_rectangles(depth) if s.contains_rect(r)]
            assert list(rectangles_in_shadow(s)) == want


def test_indicator():
    s = Shadow.from_rectangles([rect(1, 1, 1, 0)], 1)
    f = indicator(s)
    np.testing.assert_array_equal(f.values, [[0.0, 0.0], [1.0, 0.0]])
    assert f.integral() == 0.25
    with pytest.raises(ValueError):
        indicator(s, depth=2)


def test_block_means_and_average():
    f = random_grid(2, rng=30)
    m = rectangle_means(f.values)
    assert m.shape == (49,)
    r = rect(1, 1, 2, 3)
    assert abs(f.average(r) - m[rectangle_table(2).row(r)]) < 1e-15
    np.testing.assert_allclose(m[0], f.values.mean())


def test_csv_round_trip(tmp_path):
    f = random_grid(3, rng=9)
    p = tmp_path / "grid.csv"
    grid_to_csv(f, p)
    text = p.read_text()
    assert text.startswith("# depth=3\n")
    g = grid_from_csv(p)
    assert g.depth == 3
    np.testing.assert_array_equal(g.values, f.values)
    # re-serialization is byte identical
    q = tmp_path / "again.csv"
    grid_to_csv(g, q)
    assert q.read_text() == text


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction2D(0, np.ones((1, 1)))
    with pytest.raises(ValueError):
        GridFunction2D(2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        GridFunction2D(1, np.ones((2, 2))) + GridFunction2D(2, np.ones((4, 4)))
