"""The rectangle pyramid and table against literal per-rectangle loops.

Every function routed through ``dyadic.rectangle_sums``/``rectangle_means``
and ``dyadic.rectangle_table`` is compared here with the loop it replaced,
which walks one ``DyadicRectangle`` at a time.
"""

import numpy as np
import pytest

from haarbloom.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    RectangleCollection,
    Shadow,
    all_rectangles,
    cancellative_rectangles,
    haar_forward,
    random_grid,
    rectangle_incidence,
    rectangle_means,
    rectangle_sums,
    rectangle_table,
    rectangles_in_shadow,
    unit_square,
)
from haarbloom.norms import (
    little_bmo,
    square_function,
    strong_maximal,
    triebel_lizorkin_square_function,
)
from haarbloom.operators import rectangle_average_table
from haarbloom.weights import (
    ap_characteristic,
    average_comparability_report,
    constant_weight,
    random_cascade_weight,
)

DEPTHS = (1, 2, 3)
EXPONENTS = (1.5, 2.0, 3.0)


def nested_loop_rectangles(depth, finest):
    out = []
    for lx in range(finest + 1):
        for ly in range(finest + 1):
            for ix in range(1 << lx):
                for iy in range(1 << ly):
                    out.append(DyadicRectangle(DyadicInterval(lx, ix), DyadicInterval(ly, iy)))
    return out


def block_means(values, lx, ly):
    """The level-pair averages the pyramid replaced, as a 2^lx x 2^ly array."""
    n = values.shape[0]
    return values.reshape(1 << lx, n >> lx, 1 << ly, n >> ly).mean(axis=(1, 3))


def draws(seed):
    """(depth, p, symbol, mu, lam) over every depth and exponent, cascade weights."""
    rng = np.random.default_rng(seed)
    for depth in DEPTHS:
        for p in EXPONENTS:
            yield (depth, p, random_grid(depth, rng), random_cascade_weight(depth, 0.8, rng),
                   random_cascade_weight(depth, 0.8, rng))


# ---------------------------------------------------------------------------
# the literal loops
# ---------------------------------------------------------------------------

def little_bmo_loop(b, mu, lam, p):
    area = 4.0 ** (-b.depth)
    best, best_rect = -np.inf, None
    for r in all_rectangles(b.depth):
        box = r.cell_box(b.depth)
        osc = np.abs(b.values[box] - b.values[box].mean())
        num = float((osc ** p * lam.values[box]).sum() * area) ** (1.0 / p)
        den = float(mu.values[box].sum() * area) ** (1.0 / p)
        if num / den > best:
            best, best_rect = num / den, r
    return best, best_rect


def square_function_loop(f, region=None, damp_weight=None, p=2.0):
    if region is None:
        rects = cancellative_rectangles(f.depth)
    elif isinstance(region, Shadow):
        rects = list(rectangles_in_shadow(region))
    else:
        rects = list(region)
    coeffs = haar_forward(f)
    s2 = np.zeros_like(f.values)
    for r in rects:
        if r.x.level >= f.depth or r.y.level >= f.depth:
            continue
        c = coeffs.coefficient(r)
        box = r.cell_box(f.depth)
        damp = 1.0 if damp_weight is None else damp_weight.values[box].mean() ** (2.0 / p)
        s2[box] += c * c / r.area * damp
    return np.sqrt(s2)


def strong_maximal_loop(f):
    out = np.zeros_like(f.values)
    for r in all_rectangles(f.depth):
        box = r.cell_box(f.depth)
        out[box] = np.maximum(out[box], np.abs(f.values[box]).mean())
    return out


def ap_characteristic_loop(w, p):
    # level pair by level pair with block_means, as before the pyramid
    recip = w.values ** (-1.0 / (p - 1.0))
    best, best_rect = -np.inf, None
    for lx in range(w.depth + 1):
        for ly in range(w.depth + 1):
            prod = block_means(w.values, lx, ly) * block_means(recip, lx, ly) ** (p - 1.0)
            flat = int(np.argmax(prod))
            if prod.flat[flat] > best:
                best = float(prod.flat[flat])
                ix, iy = divmod(flat, prod.shape[1])
                best_rect = DyadicRectangle(DyadicInterval(lx, ix), DyadicInterval(ly, iy))
    return best, best_rect


def comparability_loop(w, p):
    rows = []
    for r in all_rectangles(w.depth):
        box = w.values[r.cell_box(w.depth)]
        rows.append(((box ** (1.0 / p)).mean(), box.mean() ** (1.0 / p),
                     (box ** (-1.0 / (p - 1.0))).mean() ** (-(p - 1.0) / p),
                     1.0 / (box ** (-1.0 / p)).mean()))
    return np.array(rows)


def average_table_loop(f):
    n = 1 << f.depth
    out = np.empty((n, n))
    for lx in range(f.depth):
        for ly in range(f.depth):
            means = block_means(f.values, lx, ly)
            out[1 << lx: 2 << lx, 1 << ly: 2 << ly] = means
            if lx == 0:
                out[0, 1 << ly: 2 << ly] = means[0]
            if ly == 0:
                out[1 << lx: 2 << lx, 0] = means[:, 0]
    out[0, 0] = f.values.mean()
    return out


# ---------------------------------------------------------------------------
# the primitives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_table_rows_follow_the_nested_loops(depth):
    table = rectangle_table(depth)
    assert all_rectangles(depth) == nested_loop_rectangles(depth, depth)
    assert cancellative_rectangles(depth) == nested_loop_rectangles(depth, depth - 1)
    for row, r in enumerate(all_rectangles(depth)):
        assert table.rects[row] == r and table.row(r) == row
        assert table.area[row] == r.area
        assert table.cancellative[row] == (r.x.level < depth and r.y.level < depth)
        assert np.array_equal(table.cells[row], Shadow.from_rectangles([r], depth).mask.ravel())
    np.testing.assert_array_equal(rectangle_incidence(depth), table.cells[table.cancellative])


def test_table_is_cached_and_read_only():
    table = rectangle_table(2)
    assert rectangle_table(2) is table
    for name in ("levels", "slots", "area", "cancellative", "owner", "cells"):
        with pytest.raises(ValueError):
            getattr(table, name).flat[0] = 0
    with pytest.raises(ValueError):
        rectangle_incidence(2)[0, 0] = False


@pytest.mark.parametrize("depth", DEPTHS)
def test_pyramid_matches_the_boxes(depth):
    f = random_grid(depth, depth)
    rects = all_rectangles(depth)
    np.testing.assert_allclose(rectangle_sums(f.values),
                               [f.values[r.cell_box(depth)].sum() for r in rects], rtol=1e-13)
    means = rectangle_means(f.values)
    np.testing.assert_allclose(means, [f.average(r) for r in rects], rtol=1e-13)
    # the level-pair blocks, bit for bit
    want = [block_means(f.values, r.x.level, r.y.level)[r.x.index, r.y.index] for r in rects]
    np.testing.assert_array_equal(means, want)
    # spreading puts every rectangle's value on its own cells
    spread = np.arange(len(rects))[rectangle_table(depth).owner]
    for k, lx_ly in enumerate((lx, ly) for lx in range(depth + 1) for ly in range(depth + 1)):
        rows = {rects[i] for i in np.unique(spread[k])}
        assert {(r.x.level, r.y.level) for r in rows} == {lx_ly}
        for i in np.unique(spread[k]):
            assert np.array_equal(spread[k] == i, Shadow.from_rectangles([rects[i]], depth).mask)


# ---------------------------------------------------------------------------
# routed functions against their loops
# ---------------------------------------------------------------------------

def test_little_bmo_matches_the_loop():
    for depth, p, b, mu, lam in draws(70):
        got = little_bmo(b, mu, lam, p)
        value, rect = little_bmo_loop(b, mu, lam, p)
        assert got.value == pytest.approx(value, rel=1e-14, abs=0)
        assert got.witness == rect


def test_little_bmo_tie_keeps_the_coarse_rectangle():
    # the root Haar function in x: every rectangle with x-interval [0,1)
    # ties at ratio 1, and the full square comes first
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    b = GridFunction2D(2, np.repeat(x[:, None], 4, axis=1))
    got = little_bmo(b, constant_weight(2), constant_weight(2), 2)
    assert little_bmo_loop(b, constant_weight(2), constant_weight(2), 2) == (1.0, unit_square())
    assert (got.value, got.witness) == (1.0, unit_square())


def test_square_functions_match_the_loop():
    rng = np.random.default_rng(71)
    for depth, p, f, w, _ in draws(72):
        np.testing.assert_array_equal(square_function(f).values, square_function_loop(f))
        mask = rng.random((1 << depth, 1 << depth)) < 0.6
        shadow = Shadow(mask)
        np.testing.assert_array_equal(square_function(f, shadow).values,
                                      square_function_loop(f, shadow))
        picks = rng.choice(len(all_rectangles(depth + 1)), 12)
        coll = RectangleCollection([all_rectangles(depth + 1)[i] for i in picks])
        np.testing.assert_allclose(square_function(f, coll).values,
                                   square_function_loop(f, coll), rtol=1e-14, atol=0)
        np.testing.assert_allclose(triebel_lizorkin_square_function(f, w, p).values,
                                   square_function_loop(f, damp_weight=w, p=p),
                                   rtol=1e-14, atol=0)


def test_strong_maximal_matches_the_loop():
    for _, _, f, _, _ in draws(73):
        np.testing.assert_allclose(strong_maximal(f).values, strong_maximal_loop(f),
                                   rtol=1e-14, atol=0)


def test_ap_characteristic_matches_the_loop_bit_for_bit():
    for _, p, _, mu, lam in draws(74):
        for w in (mu, lam):
            rep = ap_characteristic(w, p)
            assert (rep.characteristic, rep.rect) == ap_characteristic_loop(w, p)


def test_average_tables_match_the_loop():
    for _, p, f, w, _ in draws(75):
        rep = average_comparability_report(w, p)
        assert rep.rects == tuple(all_rectangles(w.depth))
        np.testing.assert_allclose(rep.table, comparability_loop(w, p), rtol=1e-14, atol=0)
        np.testing.assert_array_equal(rectangle_average_table(f), average_table_loop(f))
