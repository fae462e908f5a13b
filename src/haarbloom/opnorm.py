"""Operator norms between weighted L^p spaces, and sign-supremum norms.

A dense operator matrix in the cell-values basis is conjugated by
diagonal weight factors so that the weighted L^p -> L^p norm becomes a
plain l^p -> l^p matrix norm.  At p = 2 that norm is the top singular
value (exact); away from 2 the package reports a certified bracket: a
nonlinear power-iteration lower bound plus a Riesz-Thorin upper bound
interpolated through the exact l^2 norm.

Both kernels work on stacks of matrices.  The sign supremum builds the
commutator matrices of all its sign pairs at once
(:func:`~haarbloom.operators.commutator_matrices`) and scores them in
one batched SVD or one batched power iteration; a single operator is the
stack of one.  Away from 2 only the matrices whose upper bound reaches
the stack's best warm-start ratio are iterated; the rest are pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import GridFunction2D, ensure_rng
from .operators import (
    OperatorMatrix,
    SignChoice1D,
    axis_sign_rows,
    commutator_matrices,
)
from .weights import Weight

#: deepest grid on which the sign supremum walks every sign pair
EXHAUSTIVE_MAX_DEPTH = 2


@dataclass
class OpNormResult:
    """An operator norm value with provenance.

    ``kind`` is "exact" when the number is the norm itself (p = 2
    singular value, or an exhaustive sign supremum of such), otherwise
    "lower_bound".  ``witness`` is a unit-norm input realizing ``value``;
    ``upper_bound`` brackets lower bounds from above; ``sign_pair`` is
    set by the sign supremum; ``pruned`` counts matrices the bound skipped.
    """

    value: float
    kind: str
    iterations: int
    witness: GridFunction2D | None = None
    upper_bound: float | None = None
    sign_pair: tuple[SignChoice1D, SignChoice1D] | None = None
    pruned: int | None = None

    def as_dict(self, witness_csv_path: str | None = None) -> dict:
        out = {"value": self.value, "kind": self.kind, "iterations": self.iterations}
        out |= {k: v for k in ("upper_bound", "pruned") if (v := getattr(self, k)) is not None}
        if witness_csv_path is not None:
            out["witness_csv_path"] = witness_csv_path
        return out


def _conjugated(mats: np.ndarray, depth: int, mu: Weight, lam: Weight, p: float) -> np.ndarray:
    """Weight-conjugate one matrix or a stack of them (last two axes)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if not (depth == mu.depth == lam.depth):
        raise ValueError("operator and weights disagree on depth")
    area = 4.0 ** (-depth)
    out_w = (lam.values.ravel() * area) ** (1.0 / p)
    in_w = (mu.values.ravel() * area) ** (-1.0 / p)
    return out_w[:, None] * mats * in_w[None, :]


def weighted_p_matrix(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float) -> np.ndarray:
    """Diagonal conjugation turning the weighted norm into a plain l^p norm."""
    return _conjugated(mat.matrix, mat.depth, mu, lam, p)


def opnorm_p2_exact(mat: OperatorMatrix, mu: Weight, lam: Weight) -> OpNormResult:
    """Exact L^2(mu) -> L^2(lam) norm as a top singular value, with maximizer."""
    b = weighted_p_matrix(mat, mu, lam, 2)
    _, s, vt = np.linalg.svd(b)
    area = 4.0 ** (-mat.depth)
    n = 1 << mat.depth
    f = vt[0] / np.sqrt(mu.values.ravel() * area)
    return OpNormResult(float(s[0]), "exact", 0, GridFunction2D(mat.depth, f.reshape(n, n)))


def _upper_brackets(b: np.ndarray, p: float) -> np.ndarray:
    """Riesz-Thorin bound of plain matrices through the exact l^2 norm and the l^1
    (p < 2) or l^inf (p > 2) norm; never looser than l^1/l^inf, as |B|_2^2 <= |B|_1 |B|_inf."""
    two = np.linalg.svd(b, compute_uv=False)[..., 0]
    if p < 2:
        one = np.abs(b).sum(axis=-2).max(axis=-1)      # l^1 -> l^1
        return one ** (2.0 / p - 1.0) * two ** (2.0 - 2.0 / p)
    inf = np.abs(b).sum(axis=-1).max(axis=-1)          # l^inf -> l^inf
    return two ** (2.0 / p) * inf ** (1.0 - 2.0 / p)


def opnorm_upper_bracket(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float) -> float:
    """Interpolation bound through the l^1, l^2 and l^infty matrix norms."""
    return float(_upper_brackets(weighted_p_matrix(mat, mu, lam, p), p))


def _lp_norms(u: np.ndarray, p: float) -> np.ndarray:
    return (np.abs(u) ** p).sum(axis=-1) ** (1.0 / p)


def _power_iteration(b: np.ndarray, starts: np.ndarray, p: float, max_iter: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonlinear power iteration, one trajectory per start, all run together.

    ``b`` is a stack of plain matrices ``(T, m, m)`` and ``starts`` one
    non-zero vector per matrix.  Push the input through the operator,
    weight the output by its (p-1)-st power, pull back through the
    adjoint and invert the gauge with the dual exponent.  A trajectory
    stops once its ratio moves by at most ``tol`` (relative above 1) or
    its iterate vanishes; the live stacks are gathered again only then.
    Returns, per trajectory, the best ratio over its iterates, the first
    iterate reaching it, and how many ratios it evaluated.
    """
    pp = p / (p - 1.0)
    ul = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best = np.full(len(b), -np.inf)
    best_u = ul.copy()
    count = np.zeros(len(b), dtype=int)
    live, bl, prev = np.arange(len(b)), b, best.copy()
    for _ in range(max_iter):
        if live.size == 0:
            break
        out = np.einsum("tij,tj->ti", bl, ul)
        r = _lp_norms(out, p) / _lp_norms(ul, p)
        count[live] += 1
        up = r > best[live]
        best[live[up]] = r[up]
        best_u[live[up]] = ul[up]
        moving = np.abs(r - prev) > tol * np.maximum(1.0, np.abs(r))
        y = np.einsum("tji,tj->ti", bl, np.sign(out) * np.abs(out) ** (p - 1.0))
        nxt = np.sign(y) * np.abs(y) ** (pp - 1.0)
        norm = _lp_norms(nxt, p)
        keep = moving & (norm != 0.0)
        if not keep.all():
            live, bl, r, nxt, norm = live[keep], bl[keep], r[keep], nxt[keep], norm[keep]
        prev, ul = r, nxt / norm[:, None]
    return best, best_u, count


def _lp_lower_stack(mats: np.ndarray, depth: int, mu: Weight, lam: Weight, p: float,
                    restarts: int, seed: int | np.random.Generator | None = 0,
                    max_iter: int = 500, tol: float = 1e-9):
    """Certified lower bounds for a stack of operator matrices.

    Every matrix is warm-started from its p = 2 maximizer and that
    vector's absolute value, plus ``restarts - 2`` random starts shared by
    all matrices.  A matrix whose upper bound is below the best warm-start
    ratio at p is pruned: it keeps its best warm ratio, with 0 iterations.
    Returns per matrix the lower bound, its unit l^p maximizer (None where
    the matrix is zero), the iteration count and the upper bound, plus the
    number pruned.  A lower bound above its bracket raises: it means the
    arithmetic, not the operator, went wrong.
    """
    if p <= 1:
        raise ValueError(f"the iteration needs p > 1, got {p}")
    b = _conjugated(mats, depth, mu, lam, p)
    upper = _upper_brackets(b, p)
    rng = ensure_rng(seed)
    count, m = b.shape[0], b.shape[-1]
    values = np.zeros(count)
    units: list[np.ndarray | None] = [None] * count
    iterations = np.zeros(count, dtype=int)
    nonzero = np.flatnonzero(b.reshape(count, -1).any(axis=1))
    if nonzero.size == 0:
        return values, units, iterations, upper, 0

    warm = np.linalg.svd(_conjugated(mats[nonzero], depth, mu, lam, 2))[2][:, 0]
    starts = [warm, np.abs(warm)]
    starts += [np.broadcast_to(rng.standard_normal(m), warm.shape)
               for _ in range(max(0, restarts - len(starts)))]
    starts = np.stack(starts, axis=1)                      # (pairs, starts, m)
    per = starts.shape[1]
    best = np.full(starts.shape[:2], -np.inf)
    best_u = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best[:, :2] = (_lp_norms(np.einsum("tij,tsj->tsi", b[nonzero], best_u[:, :2]), p)
                   / _lp_norms(best_u[:, :2], p))
    run = upper[nonzero] * (1.0 + 1e-9) >= best[:, :2].max()
    ran = _power_iteration(np.repeat(b[nonzero[run]], per, axis=0), starts[run].reshape(-1, m),
                           p, max_iter, tol)
    best[run], best_u[run], its = (a.reshape(-1, per, *a.shape[1:]) for a in ran)
    pick = np.argmax(best, axis=1)         # ties: the earliest start, as a sequential walk
    values[nonzero] = best[np.arange(nonzero.size), pick]
    iterations[nonzero[run]] = its.sum(axis=1)
    escaped = values > upper * (1.0 + 1e-9)
    if escaped.any():
        i = int(np.argmax(escaped))
        raise RuntimeError(f"lower bound {values[i]} escaped the bracket {upper[i]}")
    for row, i in enumerate(nonzero):
        u = best_u[row, pick[row]]
        units[i] = u / _lp_norms(u, p)
    return values, units, iterations, upper, int(nonzero.size - run.sum())


def _lp_result(depth: int, mu: Weight, p: float, value: float, unit: np.ndarray | None,
               iterations: int, upper: float, pruned: int) -> OpNormResult:
    witness = None
    if unit is not None:
        n = 1 << depth
        f = unit / (mu.values.ravel() * 4.0 ** (-depth)) ** (1.0 / p)
        witness = GridFunction2D(depth, f.reshape(n, n))
    return OpNormResult(float(value), "lower_bound", int(iterations), witness,
                        upper_bound=float(upper), pruned=pruned)


def opnorm_lp_lower(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float,
                    restarts: int = 4, seed: int | np.random.Generator | None = 0,
                    max_iter: int = 500, tol: float = 1e-9) -> OpNormResult:
    """Certified lower bound on the L^p(mu) -> L^p(lam) norm.

    Nonlinear power iteration warm-started from the p = 2 maximizer plus
    random restarts; the best ratio over all iterates is returned, never
    exceeding the interpolation bracket.
    """
    values, units, iterations, upper, pruned = _lp_lower_stack(
        mat.matrix[None], mat.depth, mu, lam, p, restarts, seed, max_iter, tol)
    return _lp_result(mat.depth, mu, p, values[0], units[0], iterations[0], upper[0], pruned)


def opnorm(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float, **kwargs) -> OpNormResult:
    """Dispatch: exact singular value at p = 2, certified bracket otherwise."""
    if p == 2:
        return opnorm_p2_exact(mat, mu, lam)
    return opnorm_lp_lower(mat, mu, lam, p, **kwargs)


# ---------------------------------------------------------------------------
# supremum over sign choices of the iterated commutator norm
# ---------------------------------------------------------------------------

def sup_commutator_norm(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                        mode: str = "exhaustive", trials: int = 64,
                        seed: int | np.random.Generator | None = 0,
                        restarts: int = 2) -> OpNormResult:
    """Supremum over sign pairs of the iterated commutator norm.

    The commutator matrices of all candidate pairs of one-parameter sign
    multipliers are built in one stack and their weighted norms measured
    together: top singular values at p = 2, the batched power iteration
    otherwise.  ``mode="exhaustive"`` walks the +-1 space (depth <= 2) one
    class ``{+-sx} x {+-sy}`` at a time, by its member with slot-1 signs
    +1 (at most 4 x 4 pairs): negating one axis negates the commutator.
    ``"sampled"`` draws ``trials`` pairs from a seeded stream, so a longer
    run with the same seed extends a shorter one.  Ties go to the first
    pair in walk order.  ``iterations`` sums ``max(1, per-pair
    iterations)``; away from 2, a pair whose upper bound is below the best
    warm-start ratio cannot win and is pruned, not iterated, counting 1.
    The result is exact only for an exhaustive walk at p = 2.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    if mode == "exhaustive":
        if b.depth > EXHAUSTIVE_MAX_DEPTH:
            raise ValueError(f"exhaustive sign enumeration is limited to depth "
                             f"<= {EXHAUSTIVE_MAX_DEPTH}")
        rows = axis_sign_rows(b.depth)
        rows = rows[rows[:, 1] > 0]
        sx = np.repeat(rows, len(rows), axis=0)
        sy = np.tile(rows, (len(rows), 1))
    else:
        rng = ensure_rng(seed)
        draws = [SignChoice1D.random(b.depth, rng) for _ in range(2 * trials)]
        sx = np.array([s.signs for s in draws[0::2]])
        sy = np.array([s.signs for s in draws[1::2]])

    mats = commutator_matrices(b, sx, sy)
    if p == 2:
        tops = np.linalg.svd(_conjugated(mats, b.depth, mu, lam, 2), compute_uv=False)[:, 0]
        idx = int(np.argmax(tops))
        best = opnorm_p2_exact(OperatorMatrix(b.depth, mats[idx]), mu, lam)
        best.iterations = len(mats)        # max(1, 0) per pair
    else:
        values, units, its, upper, pruned = _lp_lower_stack(mats, b.depth, mu, lam, p, restarts)
        idx = int(np.argmax(values))
        best = _lp_result(b.depth, mu, p, values[idx], units[idx], its[idx], upper[idx], pruned)
        best.iterations = int(np.maximum(1, its).sum())
    best.sign_pair = (SignChoice1D(b.depth, sx[idx]), SignChoice1D(b.depth, sy[idx]))
    best.kind = "exact" if (mode == "exhaustive" and p == 2) else "lower_bound"
    return best
