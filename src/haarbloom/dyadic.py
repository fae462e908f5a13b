"""Finite dyadic geometry on the unit square.

Everything downstream works on a grid of 2^N x 2^N congruent cells of
[0,1)^2.  This module owns the interval/rectangle types, grid functions,
the tensor Haar basis, one- and two-parameter Haar projections, partial
sums over a rectangle, cell masks ("shadows"), and CSV round-tripping of
grids.  The 1D Haar system of each depth is one cached read-only
:func:`axis_table`: the forward/inverse transform is two products with
its analysis and synthesis matrices, and the projections read their rows
from it by slot.  Every per-rectangle loop goes through the pyramid
(:func:`rectangle_sums`, :func:`rectangle_means`), which sums a cell array
or any stack of them over every rectangle, and the cached
:func:`rectangle_table`, whose rows also list the rectangles in a shadow.

Orientation convention used everywhere: ``values[i, j]`` is the value on
the cell with x-index ``i`` and y-index ``j``.

Flat Haar slot layout along one axis: slot ``0`` is the scaling
direction (the constant function on [0,1)), and slot ``2**level + index``
is the cancellative Haar function of that interval.  A coefficient table
is indexed ``table[x_slot, y_slot]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Pass through a Generator, or build one from a seed (None = fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_depths(what: str, *depths) -> None:
    """Raise ``ValueError("<what> disagree on depth")`` unless all ``depths`` are equal."""
    if len(set(depths)) > 1:
        raise ValueError(f"{what} disagree on depth")


def check_finite(what: str, values) -> None:
    """Raise ``ValueError("<what> needs finite entries, got NaN or inf")`` on any NaN or inf."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} needs finite entries, got NaN or inf")


def check_depth(depth: int) -> None:
    """Raise ``ValueError`` unless the grid has at least one level."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def check_exponent(p: float) -> None:
    """Raise ``ValueError`` unless ``1 <= p < inf``; nan is refused too."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")


def check_dual_exponent(p: float) -> None:
    """Raise ``ValueError`` unless ``1 < p < inf``, so ``p / (p - 1)`` is finite; nan too."""
    if not 1 < p < np.inf:
        raise ValueError(f"a finite dual exponent needs p in (1, inf), got {p}")


def best_first(bounds: np.ndarray, score, sizes, seen=()):
    """Branch and bound: ``score`` blocks of rows, ``sizes`` long, by descending bound
    until a bound falls below the best of ``seen`` and the scores so far.  Returns each
    row's score, or ``-inf``: no unscored row can be the best if no score tops its bound,
    and every row tying the best is scored.  A NaN best ends the search."""
    order, scores = np.argsort(-bounds), np.full(len(bounds), -np.inf)
    best = np.maximum.reduce(seen, initial=-np.inf)
    for size in sizes:
        block, order = order[:size], order[size:]
        if (block := block[bounds[block] >= best]).size == 0:
            return scores
        scores[block] = score(block)
        best = np.maximum.reduce(scores[block], initial=best)
    return scores


# ---------------------------------------------------------------------------
# intervals and rectangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The dyadic interval [index * 2^-level, (index+1) * 2^-level)."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def length(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def left(self) -> float:
        return self.index * self.length

    @property
    def right(self) -> float:
        return (self.index + 1) * self.length

    def halves(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        """Left and right dyadic children."""
        return (
            DyadicInterval(self.level + 1, 2 * self.index),
            DyadicInterval(self.level + 1, 2 * self.index + 1),
        )

    def cell_slice(self, depth: int) -> slice:
        """Index range of the depth-N cells covering this interval."""
        if self.level > depth:
            raise ValueError(f"interval at level {self.level} is finer than depth {depth}")
        width = 1 << (depth - self.level)
        return slice(self.index * width, (self.index + 1) * width)

    def __str__(self) -> str:
        return f"[{self.left:g}, {self.right:g})"


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """Axis-parallel product I x J of two dyadic intervals."""

    x: DyadicInterval
    y: DyadicInterval

    @property
    def area(self) -> float:
        return self.x.length * self.y.length

    def cell_box(self, depth: int) -> tuple[slice, slice]:
        return self.x.cell_slice(depth), self.y.cell_slice(depth)

    def as_dict(self) -> dict:
        return {"lx": self.x.level, "ix": self.x.index, "ly": self.y.level, "iy": self.y.index}

    def __str__(self) -> str:
        return f"{self.x} x {self.y}"


def unit_square() -> DyadicRectangle:
    return DyadicRectangle(DyadicInterval(0, 0), DyadicInterval(0, 0))


def slot_of(interval: DyadicInterval) -> int:
    """Flat slot of a cancellative interval: 2**level + index."""
    return (1 << interval.level) + interval.index


def slot_interval(slot: int) -> DyadicInterval:
    """Inverse of :func:`slot_of`; slot 0 (the scaling slot) has no interval."""
    if slot < 1:
        raise ValueError("slot 0 is the scaling direction, not an interval")
    level = slot.bit_length() - 1
    return DyadicInterval(level, slot - (1 << level))


def all_rectangles(depth: int) -> list[DyadicRectangle]:
    """Every dyadic rectangle resolved on the grid, the rows of :func:`rectangle_table`.

    Enumeration order is the canonical one used for arg-max reporting:
    x-level, then y-level, then x-index, then y-index, all ascending -- so
    ties are broken towards coarse rectangles, and [0,1)^2 comes first.
    """
    return list(rectangle_table(depth).rects)


def cancellative_rectangles(depth: int) -> list[DyadicRectangle]:
    """Rectangles both of whose Haar functions are resolved (levels <= depth-1).

    They keep their :func:`all_rectangles` order.
    """
    table = rectangle_table(depth)
    return [r for r, keep in zip(table.rects, table.cancellative.tolist()) if keep]


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass
class GridFunction2D:
    """A function on [0,1)^2 constant on the 2^depth x 2^depth dyadic cells.

    The constructor converts and checks what it is given; inside the
    package, arrays it has just built itself as float64 ``(2^N, 2^N)`` are
    wrapped by :meth:`_of`, without a copy or a check.
    """

    depth: int
    values: np.ndarray

    def __post_init__(self) -> None:
        check_depth(self.depth)
        self.values = np.asarray(self.values, dtype=float)
        n = 1 << self.depth
        if self.values.shape != (n, n):
            raise ValueError(f"expected values of shape {(n, n)}, got {self.values.shape}")

    @classmethod
    def _of(cls, depth: int, values: np.ndarray) -> "GridFunction2D":
        """Wrap a float64 ``(2^depth, 2^depth)`` array as is: no copy, no check."""
        out = object.__new__(cls)
        out.depth, out.values = depth, values
        return out

    @classmethod
    def zeros(cls, depth: int) -> "GridFunction2D":
        n = 1 << depth
        return cls(depth, np.zeros((n, n)))

    def copy(self) -> "GridFunction2D":
        return GridFunction2D(self.depth, self.values.copy())

    def integral(self) -> float:
        """Lebesgue integral over the square; cells all carry area 4^-depth."""
        return float(self.values.mean())

    # pointwise algebra -- enough to write operator expressions naturally
    def _binary(self, other, op) -> "GridFunction2D":
        if isinstance(other, GridFunction2D):
            if other.depth != self.depth:
                raise ValueError("grid functions disagree on depth")
            return GridFunction2D._of(self.depth, op(self.values, other.values))
        if isinstance(other, float):        # a Python float or np.float64
            return GridFunction2D._of(self.depth, op(self.values, other))
        return GridFunction2D(self.depth, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction2D":
        return GridFunction2D._of(self.depth, -self.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def rectangle_sums(values: np.ndarray) -> np.ndarray:
    """Sums over every rectangle in :func:`all_rectangles` order: a cell array gives
    ``(rows,)``, a stack ``(..., 2^N, 2^N)`` gives ``(..., rows)``."""
    return level_pair_sums(itertools.repeat(values), values.shape[:-2], values.shape[-1])


def level_pair_sums(slices, lead: tuple, n: int) -> np.ndarray:
    """Slice k of ``slices``, each shaped ``lead + (n, n)``, summed over the rectangles of
    level pair k only by one reshape-reduce, the bits it has alone; ``lead + (rows,)``."""
    pairs = itertools.product(range(n.bit_length()), repeat=2)
    return np.concatenate([np.add.reduce(v.reshape(*lead, 1 << lx, n >> lx, 1 << ly, n >> ly),
                                         (-3, -1)).reshape(*lead, -1)
                           for v, (lx, ly) in zip(slices, pairs)], axis=-1)


def rectangle_means(values: np.ndarray) -> np.ndarray:
    """Average over every rectangle: a sum over a cell count, the bits of ``ndarray.mean``."""
    depth = values.shape[-1].bit_length() - 1
    return rectangle_sums(values) / (rectangle_table(depth).area * 4.0 ** depth)


class RectangleTable:
    """Every dyadic rectangle of a depth-N grid, one row each in :func:`all_rectangles` order.

    Read-only arrays: each row's x and y ``levels`` and Haar ``slots``
    (``2^level + index``), ``area``, and whether it is ``cancellative``;
    ``owner[k, i, j]`` is the row of the level-pair-k rectangle holding cell
    (i, j), so ``per_rect[owner]`` spreads per-rectangle values onto the grid.
    ``cells`` and the tuple ``rects`` are built on first use.
    """

    def __init__(self, depth: int):
        pairs = np.array(list(itertools.product(range(depth + 1), repeat=2)))
        sizes = 1 << pairs.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        self.depth, self.levels = depth, np.repeat(pairs, sizes, axis=0)
        rows = np.arange(len(self.levels))
        local, ly = rows - np.repeat(starts, sizes), self.levels[:, 1]
        self.slots = (1 << self.levels) + np.stack([local >> ly, local & ((1 << ly) - 1)], axis=1)
        self.area = np.ldexp(1.0, -self.levels.sum(axis=1))
        self.cancellative = (self.levels < depth).all(axis=1)
        lx, ly = pairs.T[:, :, None, None]
        cell = np.arange(1 << depth)
        self.owner = (starts[:, None, None] + ((cell[:, None] >> depth - lx) << ly)
                      + (cell >> depth - ly))
        for table in (self.levels, self.slots, self.area, self.cancellative, self.owner):
            table.flags.writeable = False

    @cached_property
    def cells(self) -> np.ndarray:
        """``cells[r, i * 2^N + j]``: cell (i, j) lies in rectangle r."""
        owner = self.owner.reshape(len(self.owner), -1)
        out = np.zeros((len(self.levels), owner.shape[1]), bool)
        out[owner, np.arange(owner.shape[1])] = True
        out.flags.writeable = False
        return out

    @cached_property
    def rects(self) -> tuple[DyadicRectangle, ...]:
        return tuple(DyadicRectangle(slot_interval(px), slot_interval(py))
                     for px, py in self.slots.tolist())

    def row(self, rect: DyadicRectangle) -> int:
        """Row of a rectangle resolved on the grid (levels <= N)."""
        x, y = rect.x.cell_slice(self.depth), rect.y.cell_slice(self.depth)
        return int(self.owner[rect.x.level * (self.depth + 1) + rect.y.level, x.start, y.start])


@lru_cache(maxsize=None)
def rectangle_table(depth: int) -> RectangleTable:
    return RectangleTable(depth)


# ---------------------------------------------------------------------------
# Haar basis and transforms
# ---------------------------------------------------------------------------

@dataclass
class HaarCoefficients2D:
    """Tensor Haar coefficients of a depth-N grid function.

    ``table[p, q]`` is the coefficient against ``u_p (x) u_q`` where slot 0
    is the constant scaling direction and slot 2**level + index the
    cancellative Haar function of that interval.
    """

    depth: int
    table: np.ndarray

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=float)
        n = 1 << self.depth
        if self.table.shape != (n, n):
            raise ValueError(f"expected table of shape {(n, n)}, got {self.table.shape}")

    @classmethod
    def _of(cls, depth: int, table: np.ndarray) -> "HaarCoefficients2D":
        """Wrap a float64 ``(2^depth, 2^depth)`` table as is: no copy, no check."""
        out = object.__new__(cls)
        out.depth, out.table = depth, table
        return out

    @classmethod
    def zeros(cls, depth: int) -> "HaarCoefficients2D":
        n = 1 << depth
        return cls(depth, np.zeros((n, n)))

    def coefficient(self, rect: DyadicRectangle) -> float:
        """Fully cancellative coefficient of one rectangle."""
        return float(self.table[slot_of(rect.x), slot_of(rect.y)])

    def energy(self) -> float:
        """Sum of squared coefficients (equals the squared L2 norm)."""
        return float(np.square(self.table).sum())


def axis_haar_values(interval: DyadicInterval, depth: int, cancellative: bool = True) -> np.ndarray:
    """Cell values of a 1D Haar (or L2-normalized indicator) function, from the geometry."""
    out = np.zeros(1 << depth)
    scale = 2.0 ** (interval.level / 2)
    if cancellative:
        if interval.level >= depth:
            raise ValueError(f"level-{interval.level} Haar function is not resolved "
                             f"at depth {depth}")
        lo, hi = interval.halves()
        out[lo.cell_slice(depth)] = -scale
        out[hi.cell_slice(depth)] = scale
    else:
        out[interval.cell_slice(depth)] = scale
    return out


class AxisTable:
    """The 1D Haar system of a depth-N axis, one row per flat slot, read-only.

    ``hc[p]`` holds the cell values of the slot-p Haar function (row 0 the
    constant), ``hn[p]`` those of the L2-normalized indicator, and
    ``scale[p, q] = 2^((level_p + level_q)/2)`` is the inverse square-root
    area of the slot-pair rectangle.  ``analysis = hc / 2^N`` and
    ``synthesis = hc^T`` are the transform matrices: :func:`haar_forward`
    is ``A f A^T`` and :func:`haar_synthesis` is ``S c S^T``.
    """

    def __init__(self, depth: int):
        n = 1 << depth
        self.hc, self.hn = np.ones((n, n)), np.ones((n, n))
        for p in range(1, n):
            iv = slot_interval(p)
            self.hc[p] = axis_haar_values(iv, depth)
            self.hn[p] = axis_haar_values(iv, depth, cancellative=False)
        scale = 2.0 ** (np.array([max(p.bit_length() - 1, 0) for p in range(n)]) / 2.0)
        self.scale = np.outer(scale, scale)
        self.analysis, self.synthesis = self.hc / n, np.ascontiguousarray(self.hc.T)
        for table in (self.hc, self.hn, self.scale, self.analysis, self.synthesis):
            table.flags.writeable = False


@lru_cache(maxsize=None)
def axis_table(depth: int) -> AxisTable:
    return AxisTable(depth)


def _axis_row(interval: DyadicInterval, depth: int, cancellative: bool = True) -> np.ndarray:
    """:func:`axis_haar_values`, read from the axis table by slot where the table holds it."""
    if interval.level >= depth:    # an unresolved Haar function (raises) or a cell indicator
        return axis_haar_values(interval, depth, cancellative)
    table = axis_table(depth)
    return (table.hc if cancellative else table.hn)[slot_of(interval)]


def haar_forward(f: GridFunction2D) -> HaarCoefficients2D:
    """Full tensor Haar analysis of a grid function."""
    a = axis_table(f.depth).analysis
    return HaarCoefficients2D._of(f.depth, a @ f.values @ a.T)


def haar_inverse(c: HaarCoefficients2D) -> GridFunction2D:
    return haar_synthesis(c.depth, c.table)


def haar_synthesis(depth: int, table: np.ndarray) -> GridFunction2D:
    """:func:`haar_inverse` of a float64 ``(2^depth, 2^depth)`` table, taken unchecked."""
    s = axis_table(depth).synthesis
    return GridFunction2D._of(depth, s @ table @ s.T)


#: the four tensor Haar types; first character is the x-axis, "0" =
#: cancellative, "1" = scaling (L2-normalized indicator).
HAAR_KINDS = ("00", "10", "01", "11")


def haar_function(rect: DyadicRectangle, depth: int, kind: str = "00") -> GridFunction2D:
    """Evaluate the tensor Haar function of type ``kind`` on ``rect`` on the grid."""
    if kind not in HAAR_KINDS:
        raise ValueError(f"kind must be one of {HAAR_KINDS}, got {kind!r}")
    vx = _axis_row(rect.x, depth, cancellative=kind[0] == "0")
    vy = _axis_row(rect.y, depth, cancellative=kind[1] == "0")
    return GridFunction2D._of(depth, vx[:, None] * vy)


# ---------------------------------------------------------------------------
# projections and partial sums
# ---------------------------------------------------------------------------

def haar_project(f: GridFunction2D, rect: DyadicRectangle) -> GridFunction2D:
    """Rank-one projection onto the fully cancellative Haar function of ``rect``."""
    vx, vy = _axis_row(rect.x, f.depth), _axis_row(rect.y, f.depth)
    coef = float(vx @ f.values @ vy) * 4.0 ** (-f.depth)
    return GridFunction2D._of(f.depth, coef * (vx[:, None] * vy))


def haar_project_x(f: GridFunction2D, interval: DyadicInterval) -> GridFunction2D:
    """One-parameter Haar projection in x only: h_I(x) <f(., y), h_I>."""
    vx = _axis_row(interval, f.depth)
    per_y = (vx @ f.values) * 2.0 ** (-f.depth)
    return GridFunction2D._of(f.depth, vx[:, None] * per_y)


def haar_project_y(f: GridFunction2D, interval: DyadicInterval) -> GridFunction2D:
    vy = _axis_row(interval, f.depth)
    per_x = (f.values @ vy) * 2.0 ** (-f.depth)
    return GridFunction2D._of(f.depth, per_x[:, None] * vy)


def descendant_slot_mask(interval: DyadicInterval, depth: int) -> np.ndarray:
    """Boolean mask over flat slots: True where the slot's interval is inside."""
    mask = np.zeros(1 << depth, bool)
    for lev in range(interval.level, depth):
        shift = lev - interval.level
        start = (1 << lev) + (interval.index << shift)
        mask[start: start + (1 << shift)] = True
    return mask


def partial_haar_sum(f: GridFunction2D, rect: DyadicRectangle) -> GridFunction2D:
    """Sum of the fully cancellative Haar expansion over rectangles inside ``rect``.

    Equals, pointwise on ``rect``, the function minus its one-variable
    averages plus the full average (and vanishes elsewhere); the grid makes
    that an exact finite identity rather than an L2 limit.
    """
    mx = descendant_slot_mask(rect.x, f.depth)
    my = descendant_slot_mask(rect.y, f.depth)
    return haar_synthesis(f.depth, haar_forward(f).table * np.outer(mx, my))


# ---------------------------------------------------------------------------
# shadows and indicators
# ---------------------------------------------------------------------------

@dataclass
class Shadow:
    """A union of depth-N cells (N >= 1), stored as a boolean mask ``mask[i, j]``."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        n = self.mask.shape[0] if self.mask.ndim == 2 else 0
        if self.mask.shape != (n, n) or n < 2 or n & (n - 1):
            raise ValueError("mask must be square with a power-of-two side of at least 2")

    @property
    def depth(self) -> int:
        return self.mask.shape[0].bit_length() - 1

    def to_hex(self) -> str:
        """Row-major bit packing, cell (0,0) in the least significant bit."""
        packed = np.packbits(self.mask.ravel(), bitorder="little").tobytes()
        return format(int.from_bytes(packed, "little"), "x")


@lru_cache(maxsize=None)
def rectangle_incidence(depth: int) -> np.ndarray:
    """Cached read-only cancellative rows of ``rectangle_table(depth).cells``, in their order."""
    table = rectangle_table(depth)
    rows = table.cells[table.cancellative]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _incidence_columns(depth: int) -> np.ndarray:
    """Cached read-only ``float32`` transpose of :func:`rectangle_incidence`, the matmul operand."""
    cols = np.ascontiguousarray(rectangle_incidence(depth).T, dtype=np.float32)
    cols.flags.writeable = False
    return cols


def rectangles_inside(masks: np.ndarray, depth: int) -> np.ndarray:
    """``out[m, r]``: every cell of cancellative rectangle r lies in raveled mask ``masks[m]``."""
    return (~masks).astype(np.float32) @ _incidence_columns(depth) == 0


def indicator(shadow: Shadow) -> GridFunction2D:
    """Indicator grid function of a cell mask."""
    return GridFunction2D._of(shadow.depth, shadow.mask.astype(float))


# ---------------------------------------------------------------------------
# randomness and IO
# ---------------------------------------------------------------------------

def random_grid(depth: int, rng: int | np.random.Generator | None = None) -> GridFunction2D:
    """Grid function with i.i.d. standard normal cell values."""
    rng = ensure_rng(rng)
    n = 1 << depth
    return GridFunction2D(depth, rng.standard_normal((n, n)))


def random_symbol(depth: int, rng: int | np.random.Generator | None = None) -> GridFunction2D:
    """Random bi-cancellative function: normal coefficients in the c00 block only."""
    check_depth(depth)
    rng = ensure_rng(rng)
    c = HaarCoefficients2D.zeros(depth)
    c.table[1:, 1:] = rng.standard_normal((c.table.shape[0] - 1, c.table.shape[1] - 1))
    return haar_inverse(c)


def grid_to_csv(f: GridFunction2D, path: str | Path) -> None:
    """Write a grid as CSV: a ``# depth=N`` header line, then one row per x-cell."""
    lines = [f"# depth={f.depth}"]
    for row in f.values:
        lines.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def grid_from_csv(path: str | Path) -> GridFunction2D:
    lines = Path(path).read_text().strip().splitlines()
    head = lines[0].strip() if lines else ""
    if not head.startswith("# depth="):
        raise ValueError(f"missing '# depth=N' header in {path}")
    depth = int(head.removeprefix("# depth="))
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:] if line.strip()]
    return GridFunction2D(depth, np.array(rows))
