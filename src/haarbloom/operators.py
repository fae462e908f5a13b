"""Operators built from the tensor Haar calculus.

The cast: four biparameter paraproducts with a fixed symbol and their
sum, one-parameter and biparameter Haar multipliers driven by sign
choices, iterated commutators with a multiplication symbol evaluated
literally (no algebraic simplification), the oscillation operator that
replaces the symbol inside single commutators, and restricted
projections onto rectangle families.

Every operator is a linear map on the raveled cell values, ``R^(4^N)``.
The norm computations use dense matrices built straight from the
per-depth Haar bases: :func:`paraproduct_matrix`, :func:`lambda_matrix`
and :func:`commutator_matrices`, the last for a whole stack of sign
pairs at once.  The literal closures, together with :func:`materialize`
(which probes a closure on every cell indicator), stay as the oracle
those matrices are tested against.

All four paraproducts follow one normalization: the coefficient of the
output against the complementary Haar type is ``b_R |R|^{-1/2} f_R``
with ``f_R`` the coefficient of ``f`` against the *same* type the symbol
pairs with.  For the fully non-cancellative pairing this is the familiar
"coefficient times average" form; the mixed ones carry the same
``|R|^{-1/2}`` so that the sum of the four collapses to projections of
the symbol (see the identity tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    HaarCoefficients2D,
    RectangleCollection,
    Shadow,
    axis_haar_values,
    cancellative_rectangles,
    ensure_rng,
    haar_forward,
    haar_inverse,
    haar_project_x,
    haar_project_y,
    rectangle_means,
    rectangle_table,
    rectangles_in_shadow,
    slot_interval,
    slot_of,
)

PARAPRODUCT_KINDS = ("00", "10", "01", "11")

Operator = Callable[[GridFunction2D], GridFunction2D]


# ---------------------------------------------------------------------------
# cached per-depth evaluation matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _axis_bases(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(HC, HN, SC): cancellative rows, normalized-indicator rows, |R|^{-1/2} grid.

    ``HC[p]`` holds the cell values of the slot-p Haar function (row 0 the
    constant), ``HN[p]`` those of the L2-normalized indicator, and
    ``SC[p, q] = 2^{(level_p + level_q)/2}`` is the inverse square-root
    area of the slot-pair rectangle.
    """
    n = 1 << depth
    hc = np.empty((n, n))
    hn = np.empty((n, n))
    hc[0] = 1.0
    hn[0] = 1.0
    for p in range(1, n):
        iv = slot_interval(p)
        hc[p] = axis_haar_values(iv, depth)
        hn[p] = axis_haar_values(iv, depth, cancellative=False)
    levels = np.array([0] + [slot_interval(p).level for p in range(1, n)])
    scale = 2.0 ** (levels / 2.0)
    return hc, hn, np.outer(scale, scale)


def _mixed_table(f: GridFunction2D, x_scaling: bool, y_scaling: bool) -> np.ndarray:
    """Slot-indexed coefficients of f against the chosen tensor Haar types."""
    hc, hn, _ = _axis_bases(f.depth)
    left = hn if x_scaling else hc
    right = hn if y_scaling else hc
    return (left @ f.values @ right.T) * 4.0 ** (-f.depth)


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------

def _cc_table(f: GridFunction2D) -> np.ndarray:
    """Fully cancellative coefficient table (slot-indexed, row/col 0 zero)."""
    table = haar_forward(f).table.copy()
    table[0, :] = 0.0
    table[:, 0] = 0.0
    return table


def _paraproduct_from_cc(kind: str, cc: np.ndarray, f: GridFunction2D) -> GridFunction2D:
    """Paraproduct of one kind, given the symbol's :func:`_cc_table`."""
    hc, hn, sc = _axis_bases(f.depth)
    coef = cc * sc * _mixed_table(f, kind[0] == "1", kind[1] == "1")
    out_x = hc if kind[0] == "1" else hn   # output carries the complementary type
    out_y = hc if kind[1] == "1" else hn
    values = np.einsum("pq,pi,qj->ij", coef[1:, 1:], out_x[1:], out_y[1:])
    return GridFunction2D(f.depth, values)


def paraproduct_apply(kind: str, b: GridFunction2D, f: GridFunction2D) -> GridFunction2D:
    """One of the four biparameter paraproducts with symbol ``b`` applied to ``f``.

    ``kind`` names the Haar type the *input* is paired with; the output
    comes out against the complementary type.  "0" = cancellative,
    "1" = scaling, first character is the x-axis.
    """
    return paraproduct_operator(kind, b)(f)


def lambda_apply(b: GridFunction2D, f: GridFunction2D) -> GridFunction2D:
    """Sum of the four paraproducts: the symbol side of the commutator calculus."""
    return lambda_operator(b)(f)


def _snapshot(b: GridFunction2D) -> GridFunction2D:
    """Read-only copy of a symbol, so an operator ignores later edits to ``b``."""
    b = b.copy()
    b.values.flags.writeable = False
    return b


def _check_grid(depth: int, f: GridFunction2D) -> None:
    if depth != f.depth:
        raise ValueError("symbol and argument live on different grids")


def paraproduct_operator(kind: str, b: GridFunction2D) -> Operator:
    """One paraproduct of ``b``, whose coefficients are read once, here."""
    if kind not in PARAPRODUCT_KINDS:
        raise ValueError(f"kind must be one of {PARAPRODUCT_KINDS}, got {kind!r}")
    depth, cc = b.depth, _cc_table(b)

    def apply(f: GridFunction2D) -> GridFunction2D:
        _check_grid(depth, f)
        return _paraproduct_from_cc(kind, cc, f)
    return apply


def lambda_operator(b: GridFunction2D) -> Operator:
    """Lambda of ``b``, whose coefficients are read once, here."""
    depth, cc = b.depth, _cc_table(b)

    def apply(f: GridFunction2D) -> GridFunction2D:
        _check_grid(depth, f)
        out = _paraproduct_from_cc("00", cc, f)
        for kind in ("10", "01", "11"):
            out = out + _paraproduct_from_cc(kind, cc, f)
        return out
    return apply


def multiplication_operator(b: GridFunction2D) -> Operator:
    """Multiplication by a read-only snapshot of ``b``."""
    b = _snapshot(b)
    return lambda f: b * f


# ---------------------------------------------------------------------------
# sign choices and Haar multipliers
# ---------------------------------------------------------------------------

@dataclass
class SignChoice1D:
    """A sign per cancellative dyadic interval, stored slot-indexed.

    Slot 0 (the scaling direction) always carries 0: the associated
    multiplier annihilates the non-cancellative part of its axis.
    """

    depth: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        self.signs = np.asarray(self.signs, dtype=float).copy()
        if self.signs.shape != (1 << self.depth,):
            raise ValueError("need one sign per slot")
        self.signs[0] = 0.0

    def sign(self, interval: DyadicInterval) -> float:
        return float(self.signs[slot_of(interval)])

    @classmethod
    def constant(cls, depth: int, value: float = 1.0) -> "SignChoice1D":
        return cls(depth, np.full(1 << depth, float(value)))

    @classmethod
    def random(cls, depth: int, rng=None, values=(-1.0, 1.0)) -> "SignChoice1D":
        rng = ensure_rng(rng)
        return cls(depth, rng.choice(values, size=1 << depth))

    def to_json(self) -> list[dict]:
        out = []
        for p in range(1, 1 << self.depth):
            iv = slot_interval(p)
            out.append({"level": iv.level, "index": iv.index, "sign": float(self.signs[p])})
        return out

    @classmethod
    def from_json(cls, entries: list[dict], depth: int) -> "SignChoice1D":
        signs = np.zeros(1 << depth)
        for e in entries:
            signs[slot_of(DyadicInterval(e["level"], e["index"]))] = e["sign"]
        return cls(depth, signs)


#: deepest grid whose full per-axis sign space is listed (2^15 rows)
SIGN_SPACE_MAX_DEPTH = 4


def sign_rows(count: int) -> np.ndarray:
    """All ``2^count`` vectors of +-1 of length ``count``, in ``itertools.product`` order."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=count))).reshape(-1, count)


def axis_sign_rows(depth: int) -> np.ndarray:
    """Every +-1 choice over the cancellative slots of one axis, one per row.

    Column 0 (the scaling slot) is 0.  Rows come in ``itertools.product``
    order over slots 1..2^depth - 1, so ties broken by "first in
    enumeration order" do not depend on how a caller walks the rows.
    """
    if depth > SIGN_SPACE_MAX_DEPTH:
        raise ValueError(f"the sign space of one axis is listed up to depth "
                         f"{SIGN_SPACE_MAX_DEPTH}, got {depth}")
    n = 1 << depth
    rows = np.zeros((1 << (n - 1), n))
    rows[:, 1:] = sign_rows(n - 1)
    return rows


@dataclass
class SignChoice2D:
    """A sign per cancellative dyadic rectangle, slot-pair indexed."""

    depth: int
    signs: np.ndarray

    def __post_init__(self) -> None:
        self.signs = np.asarray(self.signs, dtype=float).copy()
        n = 1 << self.depth
        if self.signs.shape != (n, n):
            raise ValueError("need one sign per slot pair")
        self.signs[0, :] = 0.0
        self.signs[:, 0] = 0.0

    def sign(self, rect: DyadicRectangle) -> float:
        return float(self.signs[slot_of(rect.x), slot_of(rect.y)])

    @classmethod
    def from_tensor(cls, sx: SignChoice1D, sy: SignChoice1D) -> "SignChoice2D":
        if sx.depth != sy.depth:
            raise ValueError("axis sign choices disagree on depth")
        return cls(sx.depth, np.outer(sx.signs, sy.signs))

    @classmethod
    def random(cls, depth: int, rng=None, values=(-1.0, 1.0)) -> "SignChoice2D":
        rng = ensure_rng(rng)
        n = 1 << depth
        return cls(depth, rng.choice(values, size=(n, n)))

    def to_json(self) -> list[dict]:
        """One entry per cancellative rectangle, in :func:`cancellative_rectangles` order."""
        return [{**r.as_dict(), "sign": self.sign(r)} for r in cancellative_rectangles(self.depth)]

    @classmethod
    def from_json(cls, entries: list[dict], depth: int) -> "SignChoice2D":
        signs = np.zeros((1 << depth, 1 << depth))
        for e in entries:
            p = slot_of(DyadicInterval(e["lx"], e["ix"]))
            q = slot_of(DyadicInterval(e["ly"], e["iy"]))
            signs[p, q] = e["sign"]
        return cls(depth, signs)


def haar_multiplier_x(f: GridFunction2D, sigma: SignChoice1D) -> GridFunction2D:
    """Multiplier acting in x only: coefficient of h_I picks up sigma(I).

    The scaling direction is annihilated, matching the sum-of-projections
    form of the operator.
    """
    if sigma.depth != f.depth:
        raise ValueError("sign choice and function disagree on depth")
    table = haar_forward(f).table * sigma.signs[:, None]
    return haar_inverse(HaarCoefficients2D(f.depth, table))


def haar_multiplier_y(f: GridFunction2D, sigma: SignChoice1D) -> GridFunction2D:
    if sigma.depth != f.depth:
        raise ValueError("sign choice and function disagree on depth")
    table = haar_forward(f).table * sigma.signs[None, :]
    return haar_inverse(HaarCoefficients2D(f.depth, table))


def haar_multiplier(f: GridFunction2D, sigma: SignChoice2D) -> GridFunction2D:
    """Biparameter multiplier: acts on the fully cancellative block, kills the rest."""
    if sigma.depth != f.depth:
        raise ValueError("sign choice and function disagree on depth")
    table = haar_forward(f).table * sigma.signs
    return haar_inverse(HaarCoefficients2D(f.depth, table))


def multiplier_operator_x(sigma: SignChoice1D) -> Operator:
    return lambda f: haar_multiplier_x(f, sigma)


def multiplier_operator_y(sigma: SignChoice1D) -> Operator:
    return lambda f: haar_multiplier_y(f, sigma)


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def commutator_apply(op_a: Operator, op_b: Operator, f: GridFunction2D) -> GridFunction2D:
    """[A, B] f = A(Bf) - B(Af)."""
    return op_a(op_b(f)) - op_b(op_a(f))


def nested_commutator_apply(outer: Operator, inner: Operator, symbol: Operator,
                            f: GridFunction2D) -> GridFunction2D:
    """[outer, [inner, symbol]] f, evaluated literally term by term."""
    def inner_comm(g: GridFunction2D) -> GridFunction2D:
        return inner(symbol(g)) - symbol(inner(g))
    return outer(inner_comm(f)) - inner_comm(outer(f))


def iterated_commutator(b: GridFunction2D, f: GridFunction2D,
                        sigma_x: SignChoice1D, sigma_y: SignChoice1D) -> GridFunction2D:
    """[T1, [T2, M_b]] f with one-parameter Haar multipliers on each axis."""
    return nested_commutator_apply(
        multiplier_operator_x(sigma_x), multiplier_operator_y(sigma_y),
        multiplication_operator(b), f)


def iterated_projection_commutator(b: GridFunction2D, f: GridFunction2D,
                                   ix: DyadicInterval, jy: DyadicInterval) -> GridFunction2D:
    """[Q1_I, [Q2_J, M_b]] f with one-parameter Haar projections."""
    return nested_commutator_apply(
        lambda g: haar_project_x(g, ix), lambda g: haar_project_y(g, jy),
        multiplication_operator(b), f)


# ---------------------------------------------------------------------------
# oscillation operator
# ---------------------------------------------------------------------------

def bi_cancellative_part(f: GridFunction2D) -> GridFunction2D:
    """Projection onto the span of the fully cancellative tensor Haar functions."""
    return haar_inverse(HaarCoefficients2D(f.depth, _cc_table(f)))


def rectangle_average_table(f: GridFunction2D) -> np.ndarray:
    """Slot-pair indexed averages <f>_R (slot 0 along an axis means the root)."""
    rects = rectangle_table(f.depth)
    keep = rects.cancellative
    out = np.empty((1 << f.depth, 1 << f.depth))
    out[tuple(rects.slots[keep].T)] = rectangle_means(f.values)[keep]
    out[0], out[:, 0] = out[1], out[:, 1]      # slot 0 stands for the root interval
    out[0, 0] = f.values.mean()
    return out


def theta_apply(b: GridFunction2D, f: GridFunction2D) -> GridFunction2D:
    """Oscillation operator: sum over rectangles of f_R (b - <b>_R) h_R.

    Splitting off the average term turns it into ``b`` times the fully
    cancellative part of ``f`` minus a multiplier with weights <b>_R.
    """
    return theta_operator(b)(f)


def theta_operator(b: GridFunction2D) -> Operator:
    """Theta of a read-only snapshot of ``b``, whose average table is built once."""
    b = _snapshot(b)
    averages = rectangle_average_table(b)

    def apply(f: GridFunction2D) -> GridFunction2D:
        _check_grid(b.depth, f)
        table = _cc_table(f)
        avg_term = haar_inverse(HaarCoefficients2D(f.depth, table * averages))
        return b * haar_inverse(HaarCoefficients2D(f.depth, table)) - avg_term
    return apply


# ---------------------------------------------------------------------------
# restricted projections
# ---------------------------------------------------------------------------

def restricted_projection(f: GridFunction2D, region: Shadow | RectangleCollection) -> GridFunction2D:
    """Sum of rectangle Haar projections over the family described by ``region``.

    A :class:`Shadow` stands for all cancellative rectangles contained in
    the mask; a :class:`RectangleCollection` is used verbatim.
    """
    if isinstance(region, Shadow):
        if region.depth != f.depth:
            raise ValueError("shadow and function disagree on depth")
        region = rectangles_in_shadow(region)
    n = 1 << f.depth
    keep = np.zeros((n, n), bool)
    for rect in region:
        if rect.x.level >= f.depth or rect.y.level >= f.depth:
            raise ValueError(f"{rect} has no resolved Haar function at depth {f.depth}")
        keep[slot_of(rect.x), slot_of(rect.y)] = True
    table = haar_forward(f).table * keep
    return haar_inverse(HaarCoefficients2D(f.depth, table))


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Dense matrix of a linear operator acting on raveled cell values."""

    depth: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        m = 4 ** self.depth
        if self.matrix.shape != (m, m):
            raise ValueError(f"expected shape {(m, m)}, got {self.matrix.shape}")

    def apply(self, f: GridFunction2D) -> GridFunction2D:
        n = 1 << self.depth
        return GridFunction2D(self.depth, (self.matrix @ f.values.ravel()).reshape(n, n))

    def transpose(self) -> "OperatorMatrix":
        """Adjoint with respect to the unweighted L2 pairing (cells share one area)."""
        return OperatorMatrix(self.depth, self.matrix.T)


def materialize(op: Operator, depth: int) -> OperatorMatrix:
    """Evaluate an operator on every cell indicator to obtain its dense matrix."""
    n = 1 << depth
    m = n * n
    mat = np.empty((m, m))
    basis = np.zeros((n, n))
    for j in range(m):
        basis.flat[j] = 1.0
        mat[:, j] = op(GridFunction2D(depth, basis)).values.ravel()
        basis.flat[j] = 0.0
    return OperatorMatrix(depth, mat)


# ---------------------------------------------------------------------------
# dense matrices from the Haar bases
# ---------------------------------------------------------------------------

def _pairing_kernel(depth: int, kinds: str) -> np.ndarray:
    """``K[p - 1, i, k]``: one axis of a paraproduct, input cell k to output cell i.

    Cancellative slot p pairs the input with the Haar type named by each
    character of ``kinds`` ("0" cancellative, "1" scaling) and emits the
    complementary type; several characters add their kernels.
    """
    hc, hn, _ = _axis_bases(depth)
    out = np.zeros((hc.shape[0] - 1, hc.shape[1], hc.shape[1]))
    for kind in kinds:
        inp, emit = (hn, hc) if kind == "1" else (hc, hn)
        out += emit[1:, :, None] * inp[1:, None, :]
    return out


def _paraproduct_sum_matrix(b: GridFunction2D, x_kinds: str, y_kinds: str) -> OperatorMatrix:
    _, _, sc = _axis_bases(b.depth)
    coef = (_cc_table(b) * sc)[1:, 1:]
    mat = np.einsum("pq,pik,qjl->ijkl", coef, _pairing_kernel(b.depth, x_kinds),
                    _pairing_kernel(b.depth, y_kinds), optimize=True)
    m = 4 ** b.depth
    return OperatorMatrix(b.depth, mat.reshape(m, m) * 4.0 ** (-b.depth))


def paraproduct_matrix(kind: str, b: GridFunction2D) -> OperatorMatrix:
    """Dense matrix of :func:`paraproduct_apply` for one ``kind``."""
    if kind not in PARAPRODUCT_KINDS:
        raise ValueError(f"kind must be one of {PARAPRODUCT_KINDS}, got {kind!r}")
    return _paraproduct_sum_matrix(b, kind[0], kind[1])


def lambda_matrix(b: GridFunction2D) -> OperatorMatrix:
    """Dense matrix of :func:`lambda_apply`.

    The four kinds are every pairing of an x-type with a y-type, so their
    sum factors into one kernel per axis.
    """
    return _paraproduct_sum_matrix(b, "01", "01")


def commutator_matrices(b: GridFunction2D, sigma_x: np.ndarray,
                        sigma_y: np.ndarray) -> np.ndarray:
    """Matrices of ``[T1_sx, [T2_sy, M_b]]`` for a stack of sign pairs.

    ``sigma_x`` and ``sigma_y`` hold one slot-indexed sign row per pair
    (shape ``(S, 2^N)``; slot 0 is ignored, any real values are allowed).
    The result has shape ``(S, 4^N, 4^N)``.

    The operator is ``sum_pq sx(p) sy(q) C_pq`` with blocks
    ``C_pq = [Q1_p, [Q2_q, M_b]]``.  Expanding both commutators, the
    kernel of ``C_pq`` from cell (k, l) to cell (i, j) is
    ``P_p[i, k] P_q[j, l] (b[i, j] - b[i, l] - b[k, j] + b[k, l])`` with
    ``P_p = h_p h_p^T / 2^N`` the 1-D projector.  So the sum is the
    Kronecker product of the 1-D multipliers ``T = sum_p s(p) P_p``,
    multiplied entrywise by one second difference of the symbol, and the
    blocks are never stored.
    """
    n = 1 << b.depth
    sx = np.asarray(sigma_x, dtype=float)
    sy = np.asarray(sigma_y, dtype=float)
    if sx.ndim != 2 or sx.shape[1] != n or sy.shape != sx.shape:
        raise ValueError(f"need two equal stacks of sign rows of length {n}")
    hc = _axis_bases(b.depth)[0][1:]
    tx = np.einsum("sp,pi,pk->sik", sx[:, 1:], hc, hc) / n
    ty = np.einsum("sp,pj,pl->sjl", sy[:, 1:], hc, hc) / n
    v = b.values
    diff = (v[:, :, None, None] - v[:, None, None, :]
            - v.T[None, :, :, None] + v[None, None, :, :])
    mats = np.einsum("sik,sjl,ijkl->sijkl", tx, ty, diff, order="C")
    return mats.reshape(len(sx), n * n, n * n)
