"""Finite dyadic geometry on the unit square.

Everything downstream works on a grid of 2^N x 2^N congruent cells of
[0,1)^2.  This module owns the interval/rectangle types, grid functions,
the tensor Haar basis with its forward/inverse transform (two products
with cached per-depth matrices), one- and two-parameter Haar
projections, partial sums over a rectangle, cell masks ("shadows"), and
CSV round-tripping of grids.  Every per-rectangle
loop goes through the pyramid (:func:`rectangle_sums`,
:func:`rectangle_means`) and the cached :func:`rectangle_table`.

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
from typing import Iterable, Iterator, Sequence

import numpy as np


def ensure_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Pass through a Generator, or build one from a seed (None = fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValueError("the unit interval has no parent")
        return DyadicInterval(self.level - 1, self.index // 2)

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

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

    def contains(self, other: "DyadicRectangle") -> bool:
        return self.x.contains(other.x) and self.y.contains(other.y)

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
    """A function on [0,1)^2 constant on the 2^depth x 2^depth dyadic cells."""

    depth: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.values = np.asarray(self.values, dtype=float)
        n = 1 << self.depth
        if self.values.shape != (n, n):
            raise ValueError(f"expected values of shape {(n, n)}, got {self.values.shape}")

    @classmethod
    def zeros(cls, depth: int) -> "GridFunction2D":
        n = 1 << depth
        return cls(depth, np.zeros((n, n)))

    def copy(self) -> "GridFunction2D":
        return GridFunction2D(self.depth, self.values.copy())

    def integral(self) -> float:
        """Lebesgue integral over the square; cells all carry area 4^-depth."""
        return float(self.values.mean())

    def average(self, rect: DyadicRectangle) -> float:
        return float(self.values[rect.cell_box(self.depth)].mean())

    # pointwise algebra -- enough to write operator expressions naturally
    def _binary(self, other, op) -> "GridFunction2D":
        if isinstance(other, GridFunction2D):
            if other.depth != self.depth:
                raise ValueError("depth mismatch")
            return GridFunction2D(self.depth, op(self.values, other.values))
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
        return GridFunction2D(self.depth, -self.values)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def rectangle_sums(values: np.ndarray) -> np.ndarray:
    """Sums over every rectangle in :func:`all_rectangles` order, one reshape per level pair.

    ``values`` is a cell array, or one per level pair (the layout of
    ``per_rect[rectangle_table(N).owner]``), each summed over its own pair.
    """
    n = values.shape[-1]
    stack = itertools.cycle(values.reshape(-1, n, n))
    pairs = itertools.product(range(n.bit_length()), repeat=2)
    return np.concatenate([np.add.reduce(v.reshape(1 << lx, n >> lx, 1 << ly, n >> ly), (1, 3))
                           .ravel() for v, (lx, ly) in zip(stack, pairs)])


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
        local, ly = np.arange(len(self.levels)) - np.repeat(starts, sizes), self.levels[:, 1]
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
    cancellative Haar function of that interval.  Named block views (the
    second letter refers to the y-axis; "1" marks the scaling direction):

    - ``c00``: fully cancellative block, indexed (I, J);
    - ``c10``: x-scaling block indexed by J (functions constant in x);
    - ``c01``: y-scaling block indexed by I;
    - ``c11``: the global mean, a scalar.
    """

    depth: int
    table: np.ndarray

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=float)
        n = 1 << self.depth
        if self.table.shape != (n, n):
            raise ValueError(f"expected table of shape {(n, n)}, got {self.table.shape}")

    @classmethod
    def zeros(cls, depth: int) -> "HaarCoefficients2D":
        n = 1 << depth
        return cls(depth, np.zeros((n, n)))

    def copy(self) -> "HaarCoefficients2D":
        return HaarCoefficients2D(self.depth, self.table.copy())

    @property
    def c00(self) -> np.ndarray:
        return self.table[1:, 1:]

    @property
    def c10(self) -> np.ndarray:
        return self.table[0, 1:]

    @property
    def c01(self) -> np.ndarray:
        return self.table[1:, 0]

    @property
    def c11(self) -> float:
        return float(self.table[0, 0])

    def coefficient(self, rect: DyadicRectangle) -> float:
        """Fully cancellative coefficient of one rectangle."""
        return float(self.table[slot_of(rect.x), slot_of(rect.y)])

    def energy(self) -> float:
        """Sum of squared coefficients (equals the squared L2 norm)."""
        return float(np.square(self.table).sum())


def _forward_axis0(values: np.ndarray) -> np.ndarray:
    """1D Haar analysis along axis 0, slot layout as in the module docstring."""
    out = np.empty_like(values)
    avg = values
    depth = values.shape[0].bit_length() - 1
    for lev in range(depth - 1, -1, -1):
        even, odd = avg[0::2], avg[1::2]
        out[1 << lev: 2 << lev] = (odd - even) * 2.0 ** (-lev / 2 - 1)
        avg = (even + odd) * 0.5
    out[0] = avg[0]
    return out


def _inverse_axis0(coeffs: np.ndarray) -> np.ndarray:
    depth = coeffs.shape[0].bit_length() - 1
    avg = coeffs[0:1].copy()
    for lev in range(depth):
        step = coeffs[1 << lev: 2 << lev] * 2.0 ** (lev / 2)
        nxt = np.empty((2 << lev,) + coeffs.shape[1:], dtype=coeffs.dtype)
        nxt[0::2] = avg - step
        nxt[1::2] = avg + step
        avg = nxt
    return avg


@lru_cache(maxsize=None)
def _transform_matrices(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 1D analysis and synthesis matrices ``(A, S)`` of a depth-N axis.

    Built once per depth by running the level loops on the identity, so
    those loops stay the only definition of the transform:
    :func:`haar_forward` is ``A f A^T`` and :func:`haar_inverse` is
    ``S c S^T``.
    """
    eye = np.eye(1 << depth)
    out = _forward_axis0(eye), _inverse_axis0(eye)
    for mat in out:
        mat.flags.writeable = False
    return out


def haar_forward(f: GridFunction2D) -> HaarCoefficients2D:
    """Full tensor Haar analysis of a grid function."""
    a, _ = _transform_matrices(f.depth)
    return HaarCoefficients2D(f.depth, a @ f.values @ a.T)


def haar_inverse(c: HaarCoefficients2D) -> GridFunction2D:
    _, s = _transform_matrices(c.depth)
    return GridFunction2D(c.depth, s @ c.table @ s.T)


@lru_cache(maxsize=None)
def axis_haar_values(interval: DyadicInterval, depth: int, cancellative: bool = True) -> np.ndarray:
    """Cell values of a 1D Haar (or L2-normalized indicator) function, cached read-only.

    Evaluated directly from the interval geometry, independently of the
    transform and its level loops, which makes it usable as a
    cross-check oracle.
    """
    out = np.zeros(1 << depth)
    scale = 2.0 ** (interval.level / 2)
    if cancellative:
        if interval.level >= depth:
            raise ValueError(
                f"level-{interval.level} Haar function is not resolved at depth {depth}"
            )
        lo, hi = interval.halves()
        out[lo.cell_slice(depth)] = -scale
        out[hi.cell_slice(depth)] = scale
    else:
        out[interval.cell_slice(depth)] = scale
    out.flags.writeable = False
    return out


#: the four tensor Haar types; first character is the x-axis, "0" =
#: cancellative, "1" = scaling (L2-normalized indicator).
HAAR_KINDS = ("00", "10", "01", "11")


@dataclass(frozen=True)
class HaarFunctionSpec:
    """A rectangle together with which tensor Haar type to take on it."""

    rect: DyadicRectangle
    kind: str = "00"

    def __post_init__(self) -> None:
        if self.kind not in HAAR_KINDS:
            raise ValueError(f"kind must be one of {HAAR_KINDS}, got {self.kind!r}")


def haar_function(spec: HaarFunctionSpec | DyadicRectangle, depth: int,
                  kind: str | None = None) -> GridFunction2D:
    """Evaluate a tensor Haar function on the grid.

    Accepts either a :class:`HaarFunctionSpec` or a rectangle plus ``kind``.
    """
    if isinstance(spec, DyadicRectangle):
        spec = HaarFunctionSpec(spec, "00" if kind is None else kind)
    elif kind is not None:
        raise TypeError("pass kind inside the HaarFunctionSpec")
    vx = axis_haar_values(spec.rect.x, depth, cancellative=spec.kind[0] == "0")
    vy = axis_haar_values(spec.rect.y, depth, cancellative=spec.kind[1] == "0")
    return GridFunction2D(depth, np.outer(vx, vy))


# ---------------------------------------------------------------------------
# projections and partial sums
# ---------------------------------------------------------------------------

def haar_project(f: GridFunction2D, rect: DyadicRectangle) -> GridFunction2D:
    """Rank-one projection onto the fully cancellative Haar function of ``rect``."""
    vx = axis_haar_values(rect.x, f.depth)
    vy = axis_haar_values(rect.y, f.depth)
    coef = float(vx @ f.values @ vy) * 4.0 ** (-f.depth)
    return GridFunction2D(f.depth, coef * np.outer(vx, vy))


def haar_project_x(f: GridFunction2D, interval: DyadicInterval) -> GridFunction2D:
    """One-parameter Haar projection in x only: h_I(x) <f(., y), h_I>."""
    vx = axis_haar_values(interval, f.depth)
    per_y = (vx @ f.values) * 2.0 ** (-f.depth)
    return GridFunction2D(f.depth, np.outer(vx, per_y))


def haar_project_y(f: GridFunction2D, interval: DyadicInterval) -> GridFunction2D:
    vy = axis_haar_values(interval, f.depth)
    per_x = (f.values @ vy) * 2.0 ** (-f.depth)
    return GridFunction2D(f.depth, np.outer(per_x, vy))


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
    table = haar_forward(f).table * np.outer(mx, my)
    return haar_inverse(HaarCoefficients2D(f.depth, table))


# ---------------------------------------------------------------------------
# shadows, rectangle collections, indicators
# ---------------------------------------------------------------------------

@dataclass
class Shadow:
    """A union of depth-N cells, stored as a boolean mask ``mask[i, j]``."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        n = self.mask.shape[0]
        if self.mask.ndim != 2 or self.mask.shape != (n, n) or n & (n - 1):
            raise ValueError("mask must be square with power-of-two side")

    @property
    def depth(self) -> int:
        return self.mask.shape[0].bit_length() - 1

    def area(self) -> float:
        return float(self.mask.mean())

    def contains_rect(self, rect: DyadicRectangle) -> bool:
        return bool(self.mask[rect.cell_box(self.depth)].all())

    @classmethod
    def from_rectangles(cls, rects: Iterable[DyadicRectangle], depth: int) -> "Shadow":
        mask = np.zeros((1 << depth, 1 << depth), bool)
        for r in rects:
            mask[r.cell_box(depth)] = True
        return cls(mask)

    @classmethod
    def full(cls, depth: int) -> "Shadow":
        return cls(np.ones((1 << depth, 1 << depth), bool))

    def to_hex(self) -> str:
        """Row-major bit packing, cell (0,0) in the least significant bit."""
        value = 0
        for pos, bit in enumerate(self.mask.ravel()):
            if bit:
                value |= 1 << pos
        return format(value, "x")

    @classmethod
    def from_hex(cls, text: str, depth: int) -> "Shadow":
        value = int(text, 16)
        n = 1 << depth
        bits = [(value >> pos) & 1 for pos in range(n * n)]
        if value >> (n * n):
            raise ValueError("hex mask has more bits than the grid has cells")
        return cls(np.array(bits, bool).reshape(n, n))


@dataclass
class RectangleCollection:
    """An explicit finite family of dyadic rectangles."""

    rects: tuple[DyadicRectangle, ...]

    def __init__(self, rects: Sequence[DyadicRectangle]):
        self.rects = tuple(rects)

    def __iter__(self) -> Iterator[DyadicRectangle]:
        return iter(self.rects)

    def __len__(self) -> int:
        return len(self.rects)


@lru_cache(maxsize=None)
def rectangle_incidence(depth: int) -> np.ndarray:
    """Cached read-only cancellative rows of ``rectangle_table(depth).cells``, in their order."""
    table = rectangle_table(depth)
    rows = table.cells[table.cancellative]
    rows.flags.writeable = False
    return rows


def rectangles_inside(masks: np.ndarray, depth: int) -> np.ndarray:
    """``out[m, r]``: every cell of cancellative rectangle r lies in raveled mask ``masks[m]``."""
    return (~masks).astype(np.float32) @ rectangle_incidence(depth).T == 0


def rectangles_in_shadow(shadow: Shadow) -> RectangleCollection:
    """All cancellative rectangles whose closure sits inside the mask."""
    rects = cancellative_rectangles(shadow.depth)
    inside = rectangles_inside(shadow.mask.reshape(1, -1), shadow.depth)[0]
    return RectangleCollection([r for r, keep in zip(rects, inside) if keep])


def indicator(mask: Shadow | np.ndarray, depth: int | None = None) -> GridFunction2D:
    """Indicator grid function of a cell mask."""
    if isinstance(mask, Shadow):
        arr = mask.mask
    else:
        arr = np.asarray(mask, dtype=bool)
    grid_depth = arr.shape[0].bit_length() - 1
    if depth is not None and depth != grid_depth:
        raise ValueError(f"mask has depth {grid_depth}, expected {depth}")
    return GridFunction2D(grid_depth, arr.astype(float))


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
    head = lines[0].strip()
    if not head.startswith("# depth="):
        raise ValueError(f"missing '# depth=N' header in {path}")
    depth = int(head.removeprefix("# depth="))
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:] if line.strip()]
    return GridFunction2D(depth, np.array(rows))
