"""Operators built from the tensor Haar calculus.

The cast: four biparameter paraproducts with a fixed symbol and their
sum, one-parameter and biparameter Haar multipliers driven by sign
choices, iterated commutators with a multiplication symbol evaluated
literally (no algebraic simplification), the oscillation operator that
replaces the symbol inside single commutators, and restricted
projections onto rectangle families.

Every operator is a linear map on the raveled cell values, ``R^(4^N)``.
The paraproducts and Lambda are dense matrices from two matmuls over the
rows of :func:`~haarbloom.dyadic.axis_table`, the cached 1D Haar system
the transform also multiplies by (:func:`paraproduct_matrix`,
:func:`lambda_matrix`).  Each operator applies its one matrix, read-only
and built once per symbol, so :func:`lambda_operator` applies the very
matrix :func:`lambda_matrix` returns; :func:`commutator_matrices` builds a
stack of sign pairs at once.
Multiplication, the projections, the multipliers and Theta stay literal
closures: composed into nested commutators and probed by
:func:`materialize`, they are the oracle the matrices are tested against.

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
    HAAR_KINDS,
    Shadow,
    axis_table,
    cancellative_rectangles,
    check_depths,
    check_finite,
    ensure_rng,
    haar_forward,
    haar_project_x,
    haar_project_y,
    haar_synthesis,
    rectangle_means,
    rectangle_table,
    rectangles_inside,
    slot_interval,
    slot_of,
)

#: deepest grid whose paraproduct and Lambda matrices are built: a depth-5 matrix
#: is 8 MB (16^5 entries), a depth-6 one 128 MB
MATRIX_MAX_DEPTH = 5

Operator = Callable[[GridFunction2D], GridFunction2D]


# ---------------------------------------------------------------------------
# paraproducts
# ---------------------------------------------------------------------------

def _cc_table(f: GridFunction2D) -> np.ndarray:
    """Fully cancellative coefficient table (slot-indexed, row/col 0 zero)."""
    table = haar_forward(f).table.copy()
    table[0, :] = 0.0
    table[:, 0] = 0.0
    return table


def _snapshot(b: GridFunction2D) -> GridFunction2D:
    """Read-only copy of a symbol, so an operator ignores later edits to ``b``."""
    b = b.copy()
    b.values.flags.writeable = False
    return b


def _matrix_operator(depth: int, mat: np.ndarray) -> Operator:
    """Apply a ``(4^N, 4^N)`` matrix, made read-only, to the raveled cell values."""
    mat.flags.writeable = False
    n = 1 << depth

    def apply(f: GridFunction2D) -> GridFunction2D:
        if f.depth != depth:
            raise ValueError("symbol and argument disagree on depth")
        return GridFunction2D._of(depth, (mat @ f.values.ravel()).reshape(n, n))
    return apply


def paraproduct_operator(kind: str, b: GridFunction2D) -> Operator:
    """One of the four paraproducts of ``b``, applied as its matrix, built once, here.

    ``kind`` names the Haar type the *input* is paired with; the output
    comes out against the complementary type.  "0" = cancellative,
    "1" = scaling, first character is the x-axis.
    """
    return _matrix_operator(b.depth, paraproduct_matrix(kind, b))


def lambda_operator(b: GridFunction2D) -> Operator:
    """Lambda of ``b``, the sum of the four paraproducts: the symbol side of the
    commutator calculus.  It applies :func:`lambda_matrix`, built once, here.
    """
    return _matrix_operator(b.depth, lambda_matrix(b))


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
    def random(cls, depth: int, rng=None) -> "SignChoice1D":
        rng = ensure_rng(rng)
        return cls(depth, rng.choice((-1.0, 1.0), size=1 << depth))

    def to_json(self) -> list[dict]:
        out = []
        for p in range(1, 1 << self.depth):
            iv = slot_interval(p)
            out.append({"level": iv.level, "index": iv.index, "sign": float(self.signs[p])})
        return out


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
    def random(cls, depth: int, rng=None) -> "SignChoice2D":
        rng = ensure_rng(rng)
        n = 1 << depth
        return cls(depth, rng.choice((-1.0, 1.0), size=(n, n)))

    def to_json(self) -> list[dict]:
        """One entry per cancellative rectangle, in :func:`cancellative_rectangles` order."""
        return [{**r.as_dict(), "sign": self.sign(r)} for r in cancellative_rectangles(self.depth)]


def haar_multiplier_x(f: GridFunction2D, sigma: SignChoice1D) -> GridFunction2D:
    """Multiplier acting in x only: coefficient of h_I picks up sigma(I).

    The scaling direction is annihilated, matching the sum-of-projections
    form of the operator.
    """
    check_depths("sign choice and function", sigma.depth, f.depth)
    return haar_synthesis(f.depth, haar_forward(f).table * sigma.signs[:, None])


def haar_multiplier_y(f: GridFunction2D, sigma: SignChoice1D) -> GridFunction2D:
    check_depths("sign choice and function", sigma.depth, f.depth)
    return haar_synthesis(f.depth, haar_forward(f).table * sigma.signs[None, :])


def haar_multiplier(f: GridFunction2D, sigma: SignChoice2D) -> GridFunction2D:
    """Biparameter multiplier: acts on the fully cancellative block, kills the rest."""
    check_depths("sign choice and function", sigma.depth, f.depth)
    return haar_synthesis(f.depth, haar_forward(f).table * sigma.signs)


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

def rectangle_average_table(f: GridFunction2D) -> np.ndarray:
    """Slot-pair indexed averages <f>_R (slot 0 along an axis means the root)."""
    rects = rectangle_table(f.depth)
    keep = rects.cancellative
    out = np.empty((1 << f.depth, 1 << f.depth))
    out[tuple(rects.slots[keep].T)] = rectangle_means(f.values)[keep]
    out[0], out[:, 0] = out[1], out[:, 1]      # slot 0 stands for the root interval
    out[0, 0] = f.values.mean()
    return out


def theta_operator(b: GridFunction2D) -> Operator:
    """Oscillation operator: f -> sum over rectangles of f_R (b - <b>_R) h_R.

    Splitting off the average term turns it into ``b`` times the fully
    cancellative part of ``f`` minus a multiplier with weights <b>_R.  It
    reads a read-only snapshot of ``b``, whose average table is built once.
    """
    b = _snapshot(b)
    averages = rectangle_average_table(b)

    def apply(f: GridFunction2D) -> GridFunction2D:
        if f.depth != b.depth:
            raise ValueError("symbol and argument disagree on depth")
        table = _cc_table(f)
        avg_term = haar_synthesis(f.depth, table * averages)
        return b * haar_synthesis(f.depth, table) - avg_term
    return apply


# ---------------------------------------------------------------------------
# restricted projections
# ---------------------------------------------------------------------------

def restricted_projection(f: GridFunction2D, region: Shadow | list | tuple) -> GridFunction2D:
    """Sum of rectangle Haar projections over the family described by ``region``.

    A :class:`Shadow` stands for all cancellative rectangles contained in
    the mask; a list or tuple of rectangles is used verbatim.
    """
    n = 1 << f.depth
    keep = np.zeros((n, n), bool)
    if isinstance(region, Shadow):
        check_depths("shadow and function", region.depth, f.depth)
        table = rectangle_table(f.depth)
        inside = rectangles_inside(region.mask.reshape(1, -1), f.depth)[0]
        keep[tuple(table.slots[table.cancellative][inside].T)] = True
    elif isinstance(region, (list, tuple)):
        for rect in region:
            if rect.x.level >= f.depth or rect.y.level >= f.depth:
                raise ValueError(f"{rect} has no resolved Haar function at depth {f.depth}")
            keep[slot_of(rect.x), slot_of(rect.y)] = True
    else:
        raise TypeError(f"unsupported region {type(region).__name__}")
    return haar_synthesis(f.depth, haar_forward(f).table * keep)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def _refuse_depth(depth: int, what: str) -> None:
    """Raise before a dense builder allocates beyond :data:`MATRIX_MAX_DEPTH`."""
    if depth > MATRIX_MAX_DEPTH:
        raise ValueError(f"{what} are limited to depth <= {MATRIX_MAX_DEPTH} "
                         f"(16^depth entries each), got {depth}")


def materialize(op: Operator, depth: int) -> np.ndarray:
    """Evaluate an operator on every cell indicator to obtain its dense ``(4^N, 4^N)`` matrix.

    Beyond :data:`MATRIX_MAX_DEPTH` it refuses before allocating anything.
    """
    _refuse_depth(depth, "materialized matrices")
    n = 1 << depth
    m = n * n
    mat = np.empty((m, m))
    basis = np.zeros((n, n))
    for j in range(m):
        basis.flat[j] = 1.0
        mat[:, j] = op(GridFunction2D(depth, basis)).values.ravel()
        basis.flat[j] = 0.0
    return mat


# ---------------------------------------------------------------------------
# dense matrices from the Haar bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairing_kernels(depth: int, kinds: str) -> np.ndarray:
    """``K[p - 1, i, k]``: one axis of a paraproduct sum, input cell k to output cell i.

    Cancellative slot p pairs the input with the Haar type named by each
    character of ``kinds`` ("0" cancellative, "1" scaling) and emits the
    complementary type; several characters add their kernels.  Cached
    per (depth, kinds) and read-only.
    """
    table = axis_table(depth)
    hc, hn = table.hc, table.hn
    out = np.zeros((hc.shape[0] - 1, hc.shape[1], hc.shape[1]))
    for kind in kinds:
        inp, emit = (hn, hc) if kind == "1" else (hc, hn)
        out += emit[1:, :, None] * inp[1:, None, :]
    out.flags.writeable = False
    return out


def _pairing_matrix(b: GridFunction2D, x_kinds: str, y_kinds: str) -> np.ndarray:
    """Matrix ``(4^N, 4^N)`` of the paraproducts that pair the input with the
    Haar types ``x_kinds`` along x and ``y_kinds`` along y, summed.

    Two matmuls with the bits of ``einsum("pq,pik,qjl->ijkl", ..., optimize=True)``.
    Beyond :data:`MATRIX_MAX_DEPTH` it refuses before allocating anything.
    """
    _refuse_depth(b.depth, "paraproduct matrices")
    check_finite("a symbol", b.values)
    n = 1 << b.depth
    coef = (_cc_table(b) * axis_table(b.depth).scale)[1:, 1:]
    kx = _pairing_kernels(b.depth, x_kinds).reshape(n - 1, n * n)
    ky = _pairing_kernels(b.depth, y_kinds).reshape(n - 1, n * n)
    # with one slot per axis numpy's plan multiplies instead, after a size-1
    # sum of each input that turns -0.0 into +0.0; ``+ 0.0`` keeps those bits
    matmul = (lambda a, c: (a + 0.0) * (c + 0.0)) if n == 2 else np.matmul
    mat = matmul(matmul(coef.T, kx).T, ky).reshape(n, n, n, n)
    return mat.transpose(0, 2, 1, 3).reshape(n * n, n * n) * 4.0 ** (-b.depth)


def paraproduct_matrix(kind: str, b: GridFunction2D) -> np.ndarray:
    """Dense ``(4^N, 4^N)`` matrix of :func:`paraproduct_operator` for one ``kind``."""
    if kind not in HAAR_KINDS:
        raise ValueError(f"kind must be one of {HAAR_KINDS}, got {kind!r}")
    return _pairing_matrix(b, kind[0], kind[1])


def lambda_matrix(b: GridFunction2D) -> np.ndarray:
    """Dense matrix of :func:`lambda_operator`.

    The four kinds are every pairing of an x-type with a y-type, so their
    sum factors into one kernel per axis.
    """
    return _pairing_matrix(b, "01", "01")


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
    blocks are never stored.  Beyond :data:`MATRIX_MAX_DEPTH` it refuses
    before allocating anything.
    """
    _refuse_depth(b.depth, "commutator matrices")
    check_finite("a symbol", b.values)
    n = 1 << b.depth
    sx = np.asarray(sigma_x, dtype=float)
    sy = np.asarray(sigma_y, dtype=float)
    if sx.ndim != 2 or sx.shape[1] != n or sy.shape != sx.shape:
        raise ValueError(f"need two equal stacks of sign rows of length {n}")
    hc = axis_table(b.depth).hc[1:]
    tx = np.einsum("sp,pi,pk->sik", sx[:, 1:], hc, hc) / n
    ty = np.einsum("sp,pj,pl->sjl", sy[:, 1:], hc, hc) / n
    v = b.values
    diff = (v[:, :, None, None] - v[:, None, None, :]
            - v.T[None, :, :, None] + v[None, None, :, :])
    mats = np.einsum("sik,sjl,ijkl->sijkl", tx, ty, diff, order="C")
    return mats.reshape(len(sx), n * n, n * n)
