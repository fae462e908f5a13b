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
stack of one.  Away from 2 the matrix with the highest upper bound is
warm-started first, then only those whose bound reaches its warm ratio;
those whose bound reaches the best warm ratio are iterated, the rest pruned.
A norm can also be built as a :class:`NormJob` and finished later:
:func:`solve` runs the trajectories of many jobs of one exponent in a
single power iteration, as the experiment sweeps do per combination.
"""

from __future__ import annotations

import itertools
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

#: the C kernel behind ``np.einsum`` (same bits), without its Python argument handling
_einsum = (np._core if hasattr(np, "_core") else np.core).multiarray.c_einsum

#: deepest grid on which the sign supremum walks every sign pair
EXHAUSTIVE_MAX_DEPTH = 2


@dataclass
class OpNormResult:
    """An operator norm value with provenance.

    ``kind`` is "exact" when the number is the norm itself (p = 2
    singular value, or an exhaustive sign supremum of such), otherwise
    "lower_bound".  ``witness`` is a unit-norm input realizing ``value``;
    ``upper_bound`` brackets lower bounds from above; ``sign_pair`` is
    set by the sign supremum; ``pruned`` counts matrices the bound skipped;
    ``converged`` (lower bounds only) is False when an iterated start of
    the reported matrix stopped at ``max_iter``.
    """

    value: float
    kind: str
    iterations: int
    witness: GridFunction2D | None = None
    upper_bound: float | None = None
    sign_pair: tuple[SignChoice1D, SignChoice1D] | None = None
    pruned: int | None = None
    converged: bool | None = None

    def as_dict(self, witness_csv_path: str | None = None) -> dict:
        out = {"value": self.value, "kind": self.kind, "iterations": self.iterations}
        out |= {k: v for k in ("upper_bound", "pruned", "converged")
                if (v := getattr(self, k)) is not None}
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
    return np.add.reduce(np.abs(u) ** p, axis=-1) ** (1.0 / p)


def _power_iteration(b: np.ndarray, starts: np.ndarray, p: float, max_iter: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonlinear power iteration, one trajectory per start, all run together.

    ``b`` is a stack of plain matrices ``(T, m, m)`` and ``starts`` one
    non-zero vector per matrix.  Push the input through the operator,
    weight the output by its (p-1)-st power, pull back through the
    adjoint and invert the gauge with the dual exponent.  A trajectory
    stops once its ratio moves by at most ``tol`` (relative above 1) or
    its iterate vanishes; the live stacks and best ratios are gathered
    again only then.  Returns, per trajectory, the best ratio over its
    iterates, the first iterate reaching it, and how many ratios it
    evaluated.
    """
    pp = p / (p - 1.0)
    ul = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best, best_u, count = np.full(len(b), -np.inf), ul.copy(), np.full(len(b), max_iter)
    live, bl, prev, lbest, lbest_u = np.arange(len(b)), b, best.copy(), best.copy(), ul.copy()
    for k in range(max_iter):
        if live.size == 0:
            break
        out = _einsum("tij,tj->ti", bl, ul)
        a = np.abs(out)
        r = np.add.reduce(a ** p, axis=-1) ** (1.0 / p) / _lp_norms(ul, p)
        up = r > lbest
        np.copyto(lbest, r, where=up)
        np.copyto(lbest_u, ul, where=up[:, None])
        moving = np.abs(r - prev) > tol * np.maximum(1.0, np.abs(r))
        # copysign(|x|^e, x) is sign(x) * |x|^e bit for bit: einsum never returns -0.0
        y = _einsum("tji,tj->ti", bl, np.copysign(a ** (p - 1.0), out))
        nxt = np.copysign(np.abs(y) ** (pp - 1.0), y)
        norm = _lp_norms(nxt, p)
        keep = moving & (norm != 0.0)
        if not keep.all():
            gone = live[~keep]
            best[gone], best_u[gone], count[gone] = lbest[~keep], lbest_u[~keep], k + 1
            live, bl, r, nxt, norm, lbest, lbest_u = (
                x[keep] for x in (live, bl, r, nxt, norm, lbest, lbest_u))
        prev, ul = r, nxt / norm[:, None]
    best[live], best_u[live] = lbest, lbest_u
    return best, best_u, count


@dataclass
class _LpStack:
    """A stack of conjugated matrices between warm starts and the power iteration.

    ``nonzero`` counts the non-zero matrices; ``warm`` indexes the ones
    warm-started, whose every start's ratio and unit iterate ``best``/
    ``best_u`` hold; ``run`` marks those whose bracket reaches the best
    warm ratio, and ``live``/``starts`` their matrices and starts to iterate.
    """

    depth: int
    mu: Weight
    p: float
    max_iter: int
    tol: float
    upper: np.ndarray
    nonzero: int
    warm: np.ndarray
    run: np.ndarray
    best: np.ndarray
    best_u: np.ndarray
    live: np.ndarray
    starts: np.ndarray


def _warm_starts(b2: np.ndarray, b: np.ndarray, rows: np.ndarray, extra, p: float):
    """Starts of the matrices ``rows`` (``b2``, ``b``: conjugated at 2 and at p): the p = 2
    maximizer, its absolute value, then ``extra``; raw, as units, and the warm ratios."""
    warm = np.linalg.svd(b2[rows])[2][:, 0]
    starts = np.stack([warm, np.abs(warm)] + [np.broadcast_to(e, warm.shape) for e in extra],
                      axis=1)                              # (pairs, starts, m)
    units = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    ratios = (_lp_norms(np.einsum("tij,tsj->tsi", b[rows], units[:, :2]), p)
              / _lp_norms(units[:, :2], p))
    return starts, units, ratios


def _lp_prepare(mats: np.ndarray, depth: int, mu: Weight, lam: Weight, p: float,
                restarts: int, seed: int | np.random.Generator | None = 0,
                max_iter: int = 500, tol: float = 1e-9) -> _LpStack:
    """Conjugate, bracket, warm-start and prune a stack of operator matrices.

    The matrix with the highest upper bound, then only those whose bound
    reaches its best warm ratio (no other can raise the best one or be
    iterated), start from their p = 2 maximizer and its absolute value,
    plus ``restarts - 2`` random starts shared by all.  A matrix whose
    bound is below the best warm ratio keeps that, with 0 iterations.
    """
    if p <= 1:
        raise ValueError(f"the iteration needs p > 1, got {p}")
    b = _conjugated(mats, depth, mu, lam, p)
    upper = _upper_brackets(b, p)
    count, m = b.shape[0], b.shape[-1]
    nonzero = np.flatnonzero(b.reshape(count, -1).any(axis=1))
    per = max(2, restarts)
    if nonzero.size == 0:
        empty = np.zeros((0, per, m))
        return _LpStack(depth, mu, p, max_iter, tol, upper, 0, nonzero, np.zeros(0, bool),
                        empty[..., 0], empty, b[:0], empty)

    extra = ensure_rng(seed).standard_normal((per - 2, m)) if per > 2 else ()
    b2, reach = _conjugated(mats, depth, mu, lam, 2), upper * (1.0 + 1e-9)
    top = nonzero[np.argmax(upper[nonzero])]
    parts = [_warm_starts(b2, b, top[None], extra, p)]
    warm = np.union1d(nonzero[reach[nonzero] >= parts[0][2].max()], top)
    others = warm[warm != top]
    if others.size:
        parts.append(_warm_starts(b2, b, others, extra, p))
    order = np.argsort(np.append(top, others))
    starts, best_u, ratios = (np.concatenate(arrays)[order] for arrays in zip(*parts))
    best = np.full((warm.size, per), -np.inf)
    best[:, :2] = ratios
    run = reach[warm] >= ratios.max()
    return _LpStack(depth, mu, p, max_iter, tol, upper, nonzero.size, warm, run, best, best_u,
                    b[warm[run]], starts[run])


def _lp_finish(stack: _LpStack, ran_best: np.ndarray, ran_u: np.ndarray, ran_its: np.ndarray):
    """Fold the iterated trajectories into ``stack``: certified lower bounds.

    Returns the matrix with the highest lower bound (ties: the first), that
    bound and its unit l^p maximizer (None when every matrix is zero); then
    per matrix the iteration count; then the number pruned, and whether no
    iterated start of the winner stopped at ``max_iter``.  A warm-started
    matrix whose lower bound is above its bracket raises: it means the
    arithmetic, not the operator, went wrong.
    """
    per = stack.best_u.shape[1]
    best, best_u = stack.best, stack.best_u
    its = np.zeros(best.shape, dtype=int)
    best[stack.run], best_u[stack.run], its[stack.run] = (
        a.reshape(-1, per, *a.shape[1:]) for a in (ran_best, ran_u, ran_its))
    pick = np.argmax(best, axis=1)         # ties: the earliest start, as a sequential walk
    values = best[np.arange(stack.warm.size), pick]
    bounds = stack.upper[stack.warm]
    escaped = values > bounds * (1.0 + 1e-9)
    if escaped.any():
        i = int(np.argmax(escaped))
        raise RuntimeError(f"lower bound {values[i]} escaped the bracket {bounds[i]}")
    iterations = np.zeros(len(stack.upper), dtype=int)
    iterations[stack.warm] = its.sum(axis=1)
    pruned = int(stack.nonzero - stack.run.sum())
    if stack.warm.size == 0:
        return 0, 0.0, None, iterations, pruned, True
    row = int(np.argmax(values))
    u = best_u[row, pick[row]]
    converged = not stack.run[row] or bool((its[row] < stack.max_iter).all())
    return (int(stack.warm[row]), values[row], u / _lp_norms(u, stack.p), iterations, pruned,
            converged)


def _lp_result(depth: int, mu: Weight, p: float, value: float, unit: np.ndarray | None,
               iterations: int, upper: float, pruned: int) -> OpNormResult:
    witness = None
    if unit is not None:
        n = 1 << depth
        f = unit / (mu.values.ravel() * 4.0 ** (-depth)) ** (1.0 / p)
        witness = GridFunction2D(depth, f.reshape(n, n))
    return OpNormResult(float(value), "lower_bound", int(iterations), witness,
                        upper_bound=float(upper), pruned=pruned)


@dataclass
class NormJob:
    """A weighted operator norm still to finish: one matrix, or a sign supremum's stack.

    At p = 2 ``result`` is set when the job is built (SVD); otherwise
    ``stack`` holds the trajectories left after pruning, and :func:`solve`
    sets ``result`` and drops the stack.  ``signs`` holds a supremum's
    sign rows.
    """

    p: float
    result: OpNormResult | None = None
    stack: _LpStack | None = None
    signs: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of the matrices still to iterate."""
        return 0 if self.stack is None else self.stack.live.nbytes


def _iterate(stacks: list[_LpStack]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run the live trajectories of all ``stacks`` through one :func:`_power_iteration`
    call, even when none is left; returns each stack's slice of its output."""
    if len({(s.p, s.max_iter, s.tol) for s in stacks}) > 1:
        raise ValueError("stacks iterated together must share p, max_iter and tol")
    first = stacks[0]
    starts = [s.starts.reshape(-1, s.starts.shape[-1]) for s in stacks]
    ran = _power_iteration(
        np.concatenate([s.live.repeat(s.starts.shape[1], axis=0) for s in stacks]),
        np.concatenate(starts), first.p, first.max_iter, first.tol)
    sizes = [len(u) for u in starts]
    return [tuple(a[end - size:end] for a in ran)
            for size, end in zip(sizes, itertools.accumulate(sizes))]


def solve(jobs: list[NormJob]) -> None:
    """Finish every pending job with a single :func:`_power_iteration` call.

    The jobs must share ``p``; a mixed list raises ``ValueError``.  A
    trajectory does not depend on the others it runs with, so each job
    gets the bits it would get alone.
    """
    if len({job.p for job in jobs}) > 1:
        raise ValueError(f"solve takes jobs of one p, got {sorted({job.p for job in jobs})}")
    pending = [job for job in jobs if job.stack is not None]
    if not pending:
        return
    for job, ran in zip(pending, _iterate([job.stack for job in pending])):
        stack = job.stack
        idx, value, unit, its, pruned, converged = _lp_finish(stack, *ran)
        job.result = _lp_result(stack.depth, stack.mu, stack.p, value, unit, its[idx],
                                stack.upper[idx], pruned)
        job.result.converged = converged
        if job.signs is not None:
            job.result.iterations = int(np.maximum(1, its).sum())
            job.result.sign_pair = tuple(SignChoice1D(stack.depth, s[idx]) for s in job.signs)
        job.stack = None


def _solved(job: NormJob) -> OpNormResult:
    solve([job])
    return job.result


def _lp_job(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float, restarts: int = 4,
            seed: int | np.random.Generator | None = 0, max_iter: int = 500,
            tol: float = 1e-9) -> NormJob:
    return NormJob(p, stack=_lp_prepare(mat.matrix[None], mat.depth, mu, lam, p, restarts,
                                        seed, max_iter, tol))


def opnorm_lp_lower(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float,
                    restarts: int = 4, seed: int | np.random.Generator | None = 0,
                    max_iter: int = 500, tol: float = 1e-9) -> OpNormResult:
    """Certified lower bound on the L^p(mu) -> L^p(lam) norm.

    Nonlinear power iteration warm-started from the p = 2 maximizer plus
    random restarts; the best ratio over all iterates is returned, never
    exceeding the interpolation bracket.
    """
    return _solved(_lp_job(mat, mu, lam, p, restarts, seed, max_iter, tol))


def opnorm(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float, **kwargs) -> OpNormResult:
    """Dispatch: exact singular value at p = 2, certified bracket otherwise."""
    return _solved(opnorm_job(mat, mu, lam, p, **kwargs))


def opnorm_job(mat: OperatorMatrix, mu: Weight, lam: Weight, p: float, **kwargs) -> NormJob:
    """:func:`opnorm` as a job: solved when built at p = 2, by :func:`solve` otherwise."""
    if p == 2:
        return NormJob(p, opnorm_p2_exact(mat, mu, lam))
    return _lp_job(mat, mu, lam, p, **kwargs)


# ---------------------------------------------------------------------------
# supremum over sign choices of the iterated commutator norm
# ---------------------------------------------------------------------------

def sup_commutator_job(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                       mode: str = "exhaustive", trials: int = 64,
                       seed: int | np.random.Generator | None = 0,
                       restarts: int = 2) -> NormJob:
    """:func:`sup_commutator_norm` as a job; sampled sign pairs are drawn when it is built."""
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
    if p != 2:
        return NormJob(p, stack=_lp_prepare(mats, b.depth, mu, lam, p, restarts),
                       signs=(sx, sy))
    tops = np.linalg.svd(_conjugated(mats, b.depth, mu, lam, 2), compute_uv=False)[:, 0]
    idx = int(np.argmax(tops))
    best = opnorm_p2_exact(OperatorMatrix(b.depth, mats[idx]), mu, lam)
    best.iterations = len(mats)        # max(1, 0) per pair
    best.sign_pair = (SignChoice1D(b.depth, sx[idx]), SignChoice1D(b.depth, sy[idx]))
    best.kind = "exact" if mode == "exhaustive" else "lower_bound"
    return NormJob(p, best)


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
    return _solved(sup_commutator_job(b, mu, lam, p, mode, trials, seed, restarts))
