import itertools

import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    HaarCoefficients2D,
    Shadow,
    all_rectangles,
    axis_haar_values,
    best_first,
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
    slot_interval,
    slot_of,
    unit_square,
)
from haarbloom import dyadic


def rect(lx, ix, ly, iy):
    return DyadicRectangle(DyadicInterval(lx, ix), DyadicInterval(ly, iy))


def rectangles_in_shadow(shadow):
    """The cancellative rectangles :func:`dyadic.rectangles_inside` finds in a shadow."""
    inside = dyadic.rectangles_inside(shadow.mask.reshape(1, -1), shadow.depth)[0]
    return [r for r, keep in zip(cancellative_rectangles(shadow.depth), inside) if keep]


# ---------------------------------------------------------------------------
# intervals / rectangles
# ---------------------------------------------------------------------------

def test_interval_geometry():
    i = DyadicInterval(2, 3)
    assert i.length == 0.25
    assert (i.left, i.right) == (0.75, 1.0)
    lo, hi = i.halves()
    assert lo == DyadicInterval(3, 6) and hi == DyadicInterval(3, 7)
    assert i.cell_slice(4) == slice(12, 16)


def test_interval_validation():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(1, 2)
    with pytest.raises(ValueError):
        DyadicInterval(3, 0).cell_slice(2)


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
                    members.append(haar_function(DyadicRectangle(ix, iy), depth, kx + ky)
                                   .values.ravel())
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
    h = haar_function(rect(0, 0, 1, 1), 3, "10")
    direct = float(h.values.ravel() @ f.values.ravel()) * area
    assert abs(table[0, slot_of(DyadicInterval(1, 1))] - direct) < 1e-13
    assert abs(table[0, 0] - f.integral()) < 1e-14


def test_haar_function_refuses_an_unknown_kind():
    for kind in ("2", "0", "000", "ab", None):
        with pytest.raises(ValueError, match="kind must be one of"):
            haar_function(unit_square(), 2, kind)


def test_round_trip_and_plancherel():
    for depth in range(1, 5):
        f = random_grid(depth, rng=depth)
        c = haar_forward(f)
        back = haar_inverse(c)
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)
        # Plancherel: the basis is orthonormal in L2 of the square
        assert abs(c.energy() - (f * f).integral()) < 1e-12


def forward_axis0(values):
    """1D Haar analysis along axis 0 by per-level averages and differences."""
    out = np.empty_like(values)
    avg = values
    depth = values.shape[0].bit_length() - 1
    for lev in range(depth - 1, -1, -1):
        even, odd = avg[0::2], avg[1::2]
        out[1 << lev: 2 << lev] = (odd - even) * 2.0 ** (-lev / 2 - 1)
        avg = (even + odd) * 0.5
    out[0] = avg[0]
    return out


def inverse_axis0(coeffs):
    depth = coeffs.shape[0].bit_length() - 1
    avg = coeffs[0:1].copy()
    for lev in range(depth):
        step = coeffs[1 << lev: 2 << lev] * 2.0 ** (lev / 2)
        nxt = np.empty((2 << lev,) + coeffs.shape[1:], dtype=coeffs.dtype)
        nxt[0::2] = avg - step
        nxt[1::2] = avg + step
        avg = nxt
    return avg


def level_loop_forward(f):
    """The transform as the per-level loops run it, axis 0 then axis 1."""
    return forward_axis0(forward_axis0(f.values).T).T


def level_loop_inverse(c):
    return inverse_axis0(inverse_axis0(c.table.T).T)


def test_transform_matrices_are_read_only_and_match_the_haar_bases():
    # the table's matrices come from the interval geometry (axis_haar_values);
    # the level loops on the identity are an independent construction, and
    # both give the same bits
    for depth in range(1, 9):
        table = dyadic.axis_table(depth)
        assert dyadic.axis_table(depth) is table
        eye = np.eye(1 << depth)
        for got, want in ((table.analysis, forward_axis0(eye)),
                          (table.synthesis, inverse_axis0(eye))):
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        for mat in (table.hc, table.hn, table.scale, table.analysis, table.synthesis):
            assert not mat.flags.writeable
            with pytest.raises(ValueError):
                mat[0, 0] = 0.0


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


def test_axis_table_rows_are_the_axis_values():
    # one row per slot, each the geometry's values; the scale grid is
    # 2^((level_p + level_q) / 2), slot 0 standing for the root level
    for depth in range(1, 5):
        table = dyadic.axis_table(depth)
        np.testing.assert_array_equal(table.hc[0], 1.0)
        np.testing.assert_array_equal(table.hn[0], 1.0)
        levels = [0]
        for p in range(1, 1 << depth):
            iv = slot_interval(p)
            np.testing.assert_array_equal(table.hc[p], axis_haar_values(iv, depth))
            np.testing.assert_array_equal(table.hn[p],
                                          axis_haar_values(iv, depth, cancellative=False))
            np.testing.assert_array_equal(dyadic._axis_row(iv, depth), table.hc[p])
            np.testing.assert_array_equal(dyadic._axis_row(iv, depth, False), table.hn[p])
            levels.append(iv.level)
        half = 2.0 ** (np.array(levels) / 2.0)
        np.testing.assert_array_equal(table.scale, np.outer(half, half))


def test_block_views():
    # a random symbol has coefficients in the bi-cancellative block only
    cs = haar_forward(random_symbol(2, rng=4))
    assert np.abs(cs.table[0, 1:]).max() < 1e-14
    assert np.abs(cs.table[1:, 0]).max() < 1e-14
    assert abs(cs.table[0, 0]) < 1e-14
    assert np.abs(cs.table[1:, 1:]).min() > 0


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


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_projections_refuse_unresolved_intervals(depth):
    # an interval at level >= depth has no cancellative Haar function on the
    # grid, and its slot lies past the table's last row
    f = random_grid(depth, rng=depth)
    root = DyadicInterval(0, 0)
    for level in (depth, depth + 1):
        iv = DyadicInterval(level, (1 << level) - 1)
        for call in (lambda: haar_project(f, DyadicRectangle(iv, root)),
                     lambda: haar_project(f, DyadicRectangle(root, iv)),
                     lambda: haar_project_x(f, iv),
                     lambda: haar_project_y(f, iv)):
            with pytest.raises(ValueError, match="not resolved at depth"):
                call()


def test_haar_function_scaling_rows_reach_the_finest_level():
    # a scaling axis may sit on a single cell (level N), a row the axis table
    # does not hold
    depth = 2
    cell = np.array([0.0, 0.0, 0.0, 2.0])
    h = np.array([-np.sqrt(2), np.sqrt(2), 0.0, 0.0])
    r = rect(2, 3, 1, 0)
    np.testing.assert_array_equal(haar_function(r, depth, "10").values, np.outer(cell, h))
    np.testing.assert_array_equal(haar_function(rect(2, 3, 2, 3), depth, "11").values,
                                  np.outer(cell, cell))
    with pytest.raises(ValueError, match="not resolved at depth"):
        haar_function(r, depth, "01")


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
    inside = np.zeros((4, 4), bool)
    inside[r.cell_box(2)] = True
    total = GridFunction2D.zeros(2)
    for q in cancellative_rectangles(2):
        if inside[q.cell_box(2)].all():
            total = total + haar_project(f, q)
    np.testing.assert_allclose(partial_haar_sum(f, r).values, total.values, atol=1e-13)


# ---------------------------------------------------------------------------
# shadows and IO
# ---------------------------------------------------------------------------

def test_shadow_hex_round_trip():
    # raveled cell k is bit k of the hex number
    rng = np.random.default_rng(21)
    for _ in range(10):
        mask = rng.random((4, 4)) < 0.5
        assert Shadow(mask).to_hex() == format(sum(1 << int(k) for k in np.flatnonzero(mask)), "x")
    assert Shadow(np.ones((2, 2), bool)).to_hex() == "f"
    assert Shadow(np.array([[False, True], [False, False]])).to_hex() == "2"


def test_shadow_rectangles():
    mask = np.zeros((4, 4), bool)
    mask[rect(1, 0, 0, 0).cell_box(2)] = True           # left half in x
    s = Shadow(mask)
    assert s.mask.mean() == 0.5
    inside = rectangles_in_shadow(s)
    # cancellative rectangles with x-interval inside [0, 1/2): x in {(1,0)}, y any of 3
    assert len(inside) == 3
    assert all(r.x == DyadicInterval(1, 0) for r in inside)
    assert len(rectangles_in_shadow(Shadow(np.ones((4, 4), bool)))) == 9
    for bad in (np.ones((1, 1), bool), np.ones((3, 3), bool), np.ones((2, 4), bool),
                np.array(True)):
        with pytest.raises(ValueError):     # depth 0 holds no Haar function to localize
            Shadow(bad)


def test_rectangles_in_shadow_matches_the_mask_boxes():
    rng = np.random.default_rng(40)
    for depth in (1, 2, 3):
        n = 1 << depth
        for _ in range(20):
            s = Shadow(rng.random((n, n)) < rng.uniform(0.3, 0.95))
            want = [r for r in cancellative_rectangles(depth) if s.mask[r.cell_box(depth)].all()]
            assert list(rectangles_in_shadow(s)) == want


def test_indicator():
    f = indicator(Shadow(np.array([[False, False], [True, False]])))
    np.testing.assert_array_equal(f.values, [[0.0, 0.0], [1.0, 0.0]])
    assert f.integral() == 0.25


def test_block_means_and_average():
    f = random_grid(2, rng=30)
    m = rectangle_means(f.values)
    assert m.shape == (49,)
    r = rect(1, 1, 2, 3)
    assert abs(f.values[r.cell_box(2)].mean() - m[rectangle_table(2).row(r)]) < 1e-15
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


def test_csv_without_a_depth_header_is_refused(tmp_path):
    for text in ("", "\n  \n", "1,2\n3,4\n"):
        p = tmp_path / "grid.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="# depth=N"):
            grid_from_csv(p)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridFunction2D(0, np.ones((1, 1)))
    with pytest.raises(ValueError):
        GridFunction2D(2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        GridFunction2D(1, np.ones((2, 2))) + GridFunction2D(2, np.ones((4, 4)))


# ---------------------------------------------------------------------------
# unchecked internal wraps against the checked forms they replaced
# ---------------------------------------------------------------------------

def assert_same_grid(got, want):
    assert got.depth == want.depth
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.shape == want.values.shape == (1 << got.depth,) * 2
    np.testing.assert_array_equal(got.values, want.values)


def test_of_wraps_without_copy_or_check():
    for depth in (1, 2, 3, 4):
        values = np.random.default_rng(depth).standard_normal((1 << depth,) * 2)
        g = GridFunction2D._of(depth, values)
        c = HaarCoefficients2D._of(depth, values)
        assert g.depth == c.depth == depth and g.values is values and c.table is values


def test_internal_results_are_float64_grids_of_the_grid_shape():
    rng = np.random.default_rng(80)
    for depth in (1, 2, 3, 4):
        f, g = random_grid(depth, rng), random_grid(depth, rng)
        iv = DyadicInterval(depth - 1, 0)
        r = DyadicRectangle(iv, iv)
        results = [f + g, f - g, f * g, f * 0.5, 2.0 * f, f + np.float64(3.0), -f,
                   haar_inverse(haar_forward(f)),
                   dyadic.haar_synthesis(depth, haar_forward(f).table),
                   haar_function(r, depth), haar_project(f, r), haar_project_x(f, iv),
                   haar_project_y(f, iv), partial_haar_sum(f, r)]
        for out in results + [haar_forward(f)]:
            arr = out.table if isinstance(out, HaarCoefficients2D) else out.values
            assert out.depth == depth
            assert arr.dtype == np.float64 and arr.shape == (1 << depth,) * 2


def test_operands_other_than_grids_and_floats_stay_checked():
    f = random_grid(2, rng=81)
    assert_same_grid(f + 1, GridFunction2D(2, f.values + 1))
    assert_same_grid(f * np.float32(0.5), GridFunction2D(2, f.values * np.float32(0.5)))
    assert_same_grid(f * np.ones(4), GridFunction2D(2, f.values))
    with pytest.raises(ValueError):
        f + np.ones((1, 4, 4))                 # broadcasts to the wrong shape
    with pytest.raises(ValueError):
        HaarCoefficients2D(2, np.ones((2, 2)))
    with pytest.raises(ValueError):
        HaarCoefficients2D(2, np.ones((4, 4, 1)))
    with pytest.raises(ValueError):
        GridFunction2D(2, np.ones(16))
    with pytest.raises(ValueError):
        GridFunction2D(0, np.ones((1, 1)))
    assert HaarCoefficients2D(1, [[1, 2], [3, 4]]).table.dtype == np.float64
    assert GridFunction2D(1, [[1, 2], [3, 4]]).values.dtype == np.float64


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_rank_one_broadcasts_match_np_outer(depth):
    rng = np.random.default_rng(90 + depth)
    for _ in range(3):
        f = random_grid(depth, rng)
        for s in range(1, 1 << depth):
            iv = slot_interval(s)
            vx = axis_haar_values(iv, depth)
            r = DyadicRectangle(iv, slot_interval(int(rng.integers(1, 1 << depth))))
            vy = axis_haar_values(r.y, depth)
            coef = float(vx @ f.values @ vy) * 4.0 ** (-depth)
            assert_same_grid(haar_project(f, r), GridFunction2D(depth, coef * np.outer(vx, vy)))
            per = (vx @ f.values) * 2.0 ** (-depth)
            assert_same_grid(haar_project_x(f, iv), GridFunction2D(depth, np.outer(vx, per)))
            per = (f.values @ vx) * 2.0 ** (-depth)
            assert_same_grid(haar_project_y(f, iv), GridFunction2D(depth, np.outer(per, vx)))
            for kind in ("00", "10", "01", "11"):
                ax = axis_haar_values(r.x, depth, cancellative=kind[0] == "0")
                ay = axis_haar_values(r.y, depth, cancellative=kind[1] == "0")
                assert_same_grid(haar_function(r, depth, kind),
                                 GridFunction2D(depth, np.outer(ax, ay)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_synthesis_matches_the_checked_inverse(depth):
    rng = np.random.default_rng(100 + depth)
    a, s = dyadic.axis_table(depth).analysis, dyadic.axis_table(depth).synthesis
    for _ in range(5):
        table = rng.standard_normal((1 << depth,) * 2)
        want = GridFunction2D(depth, s @ HaarCoefficients2D(depth, table).table @ s.T)
        assert_same_grid(dyadic.haar_synthesis(depth, table), want)
        assert_same_grid(haar_inverse(HaarCoefficients2D(depth, table)), want)
        f = random_grid(depth, rng)
        got = haar_forward(f)
        assert got.table.dtype == np.float64
        np.testing.assert_array_equal(got.table, HaarCoefficients2D(depth, a @ f.values @ a.T).table)
        iv = slot_interval(int(rng.integers(1, 1 << depth)))
        r = DyadicRectangle(iv, DyadicInterval(0, 0))
        masks = np.outer(dyadic.descendant_slot_mask(r.x, depth),
                         dyadic.descendant_slot_mask(r.y, depth))
        want = haar_inverse(HaarCoefficients2D(depth, haar_forward(f).table * masks))
        assert_same_grid(partial_haar_sum(f, r), want)


def test_incidence_columns_are_cached_read_only():
    for depth in (1, 2, 3):
        cols = dyadic._incidence_columns(depth)
        assert dyadic._incidence_columns(depth) is cols
        assert cols.dtype == np.float32
        np.testing.assert_array_equal(cols, dyadic.rectangle_incidence(depth).T)
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols.flat[0] = 1.0


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_rectangles_inside_matches_the_per_call_conversion(depth):
    rng = np.random.default_rng(110 + depth)
    incidence = dyadic.rectangle_incidence(depth)
    for density in (0.3, 0.7, 0.95, 1.0):
        masks = rng.random((40, 4 ** depth)) < density
        want = (~masks).astype(np.float32) @ incidence.T == 0
        got = dyadic.rectangles_inside(masks, depth)
        assert got.dtype == bool and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# the best-first scorer, against scoring every row
# ---------------------------------------------------------------------------

def _best_first_cases():
    """Random bounds with scores at most the bounds, some equal; with and without ties
    and ``seen``; sizes ``(1, n)`` and ``repeat(k)``."""
    rng = np.random.default_rng(120)
    for n, k, tied, with_seen in itertools.product(
            (0, 1, 7, 60), (None, 1, 4, 16), (False, True), (False, True)):
        bounds = rng.random(n) * 10
        if tied:
            bounds = np.round(bounds / 3)
        scores = bounds * rng.random(n)
        scores[::3] = bounds[::3]
        seen = rng.random(3) * 5 if with_seen else ()
        yield bounds, scores, (1, n) if k is None else itertools.repeat(k), seen


def test_best_first_keeps_every_winner_of_the_search_that_scored_every_row():
    for bounds, want, sizes, seen in _best_first_cases():
        blocks = []
        got = best_first(bounds, lambda rows: blocks.append(rows.copy()) or want[rows],
                         sizes, seen)
        assert got.shape == bounds.shape
        assert all(len(block) for block in blocks)            # no empty block
        order = np.concatenate([[]] + blocks).astype(int)
        assert len(set(order.tolist())) == len(order)         # each row scored once
        assert (np.diff(bounds[order]) <= 0).all()            # by descending bound
        scored = np.isin(np.arange(len(bounds)), order)
        np.testing.assert_array_equal(got[scored], want[scored])
        assert (got[~scored] == -np.inf).all()

        def best(scores):
            return np.concatenate([seen, scores, [-np.inf]]).max()

        # pruning hides no winner: every unscored bound is below the final best
        assert (bounds[~scored] < best(got)).all()
        assert best(got) == best(want)
        # and every row tying the best is scored
        assert scored[want == best(want)].all()


def best_first_sorting(bounds, score, sizes, seen=()):
    """The scorer before its ``np.maximum`` fold: the best kept by a sort at every step."""
    order, scores = np.argsort(-bounds), np.full(len(bounds), -np.inf)
    best = np.sort(np.append(seen, -np.inf))[-1:]
    for size in sizes:
        block, order = order[:size], order[size:]
        if (block := block[bounds[block] >= best[0]]).size == 0:
            return scores
        scores[block] = score(block)
        best = np.sort(np.append(best, scores[block]))[-1:]
    return scores


def test_best_first_keeps_the_rows_and_order_of_the_sorting_fold():
    # NaN scores included: a NaN best ends the search on both paths
    rng = np.random.default_rng(121)
    for bounds, want, sizes, seen in _best_first_cases():
        sizes = list(itertools.islice(sizes, len(bounds) + 1))
        for scores in (want, np.where(rng.random(len(want)) < 0.3, np.nan, want)):
            runs = []
            for scorer in (best_first, best_first_sorting):
                blocks = []
                got = scorer(bounds, lambda rows: blocks.append(rows.tolist()) or scores[rows],
                             sizes, seen)
                runs.append((blocks, got.tobytes()))
            assert runs[0] == runs[1]


def test_best_first_scores_nothing_on_no_rows():
    calls = []
    for sizes in ((1, 0), itertools.repeat(3)):
        got = best_first(np.zeros(0), calls.append, sizes, [1.0, 2.0])
        assert got.shape == (0,) and calls == []
