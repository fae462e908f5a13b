"""Operator norms between weighted L^p spaces, and sign-supremum norms.

A dense operator matrix in the cell-values basis is conjugated by
diagonal weight factors so that the weighted L^p -> L^p norm becomes a
plain l^p -> l^p matrix norm.  At p = 2 that norm is the top singular
value (exact); away from 2 the package reports a certified bracket: a
nonlinear power-iteration lower bound plus a Riesz-Thorin upper bound
interpolated through the exact l^2 norm.

Both kernels work on stacks of matrices.  The sign supremum builds the commutator
matrices of all its sign pairs at once (:func:`~haarbloom.operators.commutator_matrices`)
and scores them in one batched SVD or one batched power iteration; a single operator is
the stack of one.  Away from 2 the matrices are warm-started best-first by upper bound
(:func:`~haarbloom.dyadic.best_first`), and only these are conjugated at exponent 2.
Those whose bound reaches the best warm ratio are iterated, the rest pruned.  The
iteration runs in blocks of passes that only take the step and record it; the ratios,
stops and best iterates are read from that record once per block.
:func:`opnorm_job` and :func:`sup_commutator_job` build a norm without finishing it:
the result itself at p = 2, otherwise a pending :class:`NormJob`.  :func:`solve`
finishes the pending jobs of one exponent in one power iteration and returns one
result per job, as the experiment sweeps do per combination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dyadic import (GridFunction2D, best_first, check_depths, check_dual_exponent,
                     check_exponent, check_finite, ensure_rng)
from .operators import SignChoice1D, axis_sign_rows, commutator_matrices
from .weights import Weight

#: the C kernel behind ``np.einsum`` (same bits), the package's one private numpy name:
#: the power iteration calls it twice per pass, and on a 4-matrix depth-2 stack it took
#: 2.0 us where the ``np.einsum`` wrapper took 3.2 us (2-core Xeon, numpy 2.4.6)
_einsum = (np._core if hasattr(np, "_core") else np.core).multiarray.c_einsum

#: the sign supremum's walks: every sign pair, or seeded draws of them
MODES = ("exhaustive", "sampled")
#: deepest grid on which the sign supremum walks every sign pair
EXHAUSTIVE_MAX_DEPTH = 2
#: sign pairs a sampled walk draws unless told otherwise
SAMPLED_PAIRS = 16
#: passes of the power iteration before a trajectory is cut short, and the
#: relative change of its ratio below which it stops
MAX_ITER = 500
TOL = 1e-9
#: passes of the power iteration between two readings of its record
_BLOCK = 16


@dataclass
class OpNormResult:
    """An operator norm value with provenance.

    ``kind`` is "exact" when the number is the norm itself (p = 2
    singular value, or an exhaustive sign supremum of such), otherwise
    "lower_bound".  ``witness`` is a unit-norm input realizing ``value``;
    ``upper_bound`` brackets lower bounds from above; ``sign_pair`` is
    set by the sign supremum; ``pruned`` counts matrices the bound skipped;
    ``converged`` (lower bounds only) is False when an iterated start of
    the reported matrix stopped at :data:`MAX_ITER`.
    """

    value: float
    kind: str
    iterations: int
    witness: GridFunction2D | None = None
    upper_bound: float | None = None
    sign_pair: tuple[SignChoice1D, SignChoice1D] | None = None
    pruned: int | None = None
    converged: bool | None = None

    def as_dict(self) -> dict:
        out = {"value": self.value, "kind": self.kind, "iterations": self.iterations}
        out |= {k: v for k in ("upper_bound", "pruned", "converged")
                if (v := getattr(self, k)) is not None}
        return out


def _matrix(mat: np.ndarray) -> np.ndarray:
    """Refuse anything but one operator matrix."""
    if np.ndim(mat) != 2:
        raise ValueError(f"need one (4^N, 4^N) operator matrix, got shape {np.shape(mat)}")
    return mat


def _conjugated(mats: np.ndarray, mu: Weight, lam: Weight, p: float) -> np.ndarray:
    """Weight-conjugate one ``(4^N, 4^N)`` matrix or a stack of them (last two axes);
    every norm passes here, so a NaN or inf entry is refused before an SVD fails on it."""
    check_exponent(p)
    check_depths("operator and weights", mats.shape[-2:], *[(4 ** w.depth,) * 2 for w in (mu, lam)])
    check_finite("an operator matrix", mats)
    area = 4.0 ** (-mu.depth)
    out_w = (lam.values.ravel() * area) ** (1.0 / p)
    in_w = (mu.values.ravel() * area) ** (-1.0 / p)
    return out_w[:, None] * mats * in_w[None, :]


def _svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of a matrix or stack; only where ``gesdd`` fails is the transpose
    decomposed instead, its factors swapped back, so a converging call keeps its bits."""
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        out = np.linalg.svd(np.swapaxes(a, -1, -2), compute_uv=compute_uv)
        if not compute_uv:
            return out
        u, s, vt = out
        return np.swapaxes(vt, -1, -2), s, np.swapaxes(u, -1, -2)


def opnorm_p2_exact(mat: np.ndarray, mu: Weight, lam: Weight) -> OpNormResult:
    """Exact L^2(mu) -> L^2(lam) norm as a top singular value, with maximizer."""
    b = _conjugated(_matrix(mat), mu, lam, 2)
    _, s, vt = _svd(b)
    area = 4.0 ** (-mu.depth)
    n = 1 << mu.depth
    f = vt[0] / np.sqrt(mu.values.ravel() * area)
    return OpNormResult(float(s[0]), "exact", 0, GridFunction2D(mu.depth, f.reshape(n, n)))


def _upper_brackets(b: np.ndarray, p: float) -> np.ndarray:
    """Riesz-Thorin bound of plain matrices through the exact l^2 norm and the l^1
    (p < 2) or l^inf (p > 2) norm; never looser than l^1/l^inf, as |B|_2^2 <= |B|_1 |B|_inf."""
    two = _svd(b, compute_uv=False)[..., 0]
    if p < 2:
        one = np.abs(b).sum(axis=-2).max(axis=-1)      # l^1 -> l^1
        return one ** (2.0 / p - 1.0) * two ** (2.0 - 2.0 / p)
    inf = np.abs(b).sum(axis=-1).max(axis=-1)          # l^inf -> l^inf
    return two ** (2.0 / p) * inf ** (1.0 - 2.0 / p)


def _lp_norms(u: np.ndarray, p: float) -> np.ndarray:
    return np.add.reduce(np.abs(u) ** p, axis=-1) ** (1.0 / p)


@np.errstate(all="ignore")          # an overflow shows as a non-finite ratio, returned
def _power_iteration(b: np.ndarray, starts: np.ndarray, p: float, max_iter: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonlinear power iteration, one trajectory per start, all run together.

    ``b`` is a stack of plain matrices ``(T, m, m)`` and ``starts`` one
    non-zero vector per matrix.  Push the input through the operator,
    weight the output by its (p-1)-st power, pull back through the
    adjoint and invert the gauge with the dual exponent.  A trajectory
    stops once its ratio moves by at most ``tol`` (relative above 1) or
    its iterate vanishes.  A pass only takes the step and records it; once
    per block of :data:`_BLOCK` passes all their ratios are taken, and each
    trajectory's first stop, its first best ratio up to there (NaN never
    wins) and that iterate are read back, and the stopped ones dropped.
    Passes past a stop are read by nothing and rows never mix, so the bits
    are those of a check after every pass.  Returns, per trajectory, the
    best ratio over its iterates, the first iterate reaching it, how many
    ratios it evaluated, and whether it left on a non-finite ratio (the
    arithmetic overflowed).
    """
    pp = p / (p - 1.0)
    u = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best, best_u, count = np.full(len(b), -np.inf), u.copy(), np.full(len(b), max_iter)
    broke, done = np.zeros(len(b), dtype=bool), 0
    live, bl, prev = np.arange(len(b)), b, best.copy()
    while live.size and done < max_iter:
        n = min(_BLOCK, max_iter - done)
        hist, norms = np.empty((n + 1, 2, *u.shape)), np.empty((n, len(u), 1))
        hist[0, 1] = u                          # per pass: B u beside u
        for k in range(n):
            out = _einsum("tij,tj->ti", bl, hist[k, 1], out=hist[k, 0])
            # copysign(|x|^e, x) is sign(x) * |x|^e bit for bit: einsum never returns -0.0
            y = _einsum("tji,tj->ti", bl, np.copysign(np.abs(out) ** (p - 1.0), out))
            nxt = np.copysign(mag := np.abs(y) ** (pp - 1.0), y)      # mag is |nxt|
            np.power(np.add.reduce(mag ** p, axis=-1, keepdims=True), 1.0 / p, out=norms[k])
            np.divide(nxt, norms[k], out=hist[k + 1, 1])
        both = _lp_norms(hist[:n], p)            # |B u|_p and |u|_p of every pass in one go
        r, cols = both[:, 0] / both[:, 1], np.arange(len(u))
        stop = ~((np.abs(r - np.vstack([prev, r[:-1]])) > tol * np.maximum(1.0, r))
                 & (norms[..., 0] != 0.0))
        ends = stop.any(axis=0)
        last = np.where(ends, np.argmax(stop, axis=0), n - 1)
        # the first maximum up to each one's last pass, as a running strict maximum; NaN never wins
        seen = np.where((np.arange(n)[:, None] <= last) & (r == r), r, -np.inf)
        top = np.argmax(seen, axis=0)
        up = (peak := seen[top, cols]) > best[live]
        best[live[up]], best_u[live[up]] = peak[up], hist[top[up], 1, cols[up]]
        if ends.any():
            gone, stops = live[ends], last[ends]
            count[gone], broke[gone] = done + stops + 1, ~np.isfinite(r[stops, cols[ends]])
            live, bl = live[~ends], bl[~ends]
        u, prev, done = hist[n, 1, ~ends], r[-1, ~ends], done + n
    return best, best_u, count, broke


@dataclass
class NormJob:
    """A norm away from p = 2 between warm starts and the power iteration.

    One matrix, or a sign supremum's stack.  ``upper`` holds every matrix's
    bracket and ``nonzero`` counts the non-zero matrices; ``run`` indexes, in
    order, those whose bracket reaches the best warm ratio, and ``live``/``starts``
    hold their matrices and starts to iterate.  No other matrix can win: its warm
    ratio is below its bracket, and that below the best warm ratio.  ``signs``
    holds a supremum's sign rows.
    """

    mu: Weight
    p: float
    upper: np.ndarray
    nonzero: int
    run: np.ndarray
    live: np.ndarray
    starts: np.ndarray
    signs: tuple[np.ndarray, np.ndarray] | None = None


def _within_brackets(values: np.ndarray, bounds: np.ndarray) -> None:
    """Raise on a lower bound above its bracket: the arithmetic, not the operator, erred."""
    escaped = values > bounds * (1.0 + 1e-9)
    if escaped.any():
        i = int(np.argmax(escaped))
        raise RuntimeError(f"lower bound {values[i]} escaped the bracket {bounds[i]}")


def _warm_starts(mats: np.ndarray, b: np.ndarray, rows: np.ndarray, extra, p: float, *weights):
    """Starts of ``rows`` (at p in ``b``; at 2 by ``weights`` = mu, lam): the p = 2
    maximizer, its absolute value, then ``extra``; and each row's best warm ratio."""
    warm = _svd(_conjugated(mats[rows], *weights, 2))[2][:, 0]
    starts = np.stack([warm, np.abs(warm)] + [np.broadcast_to(e, warm.shape) for e in extra],
                      axis=1)                              # (pairs, starts, m)
    units = starts[:, :2] / np.linalg.norm(starts[:, :2], axis=-1, keepdims=True)
    ratios = _lp_norms(np.einsum("tij,tsj->tsi", b[rows], units), p) / _lp_norms(units, p)
    return starts, ratios.max(axis=1)


@lru_cache(maxsize=None)
def _random_starts(m: int) -> np.ndarray:
    """The two random starts of length ``m`` that ``default_rng(0)`` draws first, read-only."""
    starts = np.random.default_rng(0).standard_normal((2, m))
    return np.broadcast_to(starts, starts.shape)           # a read-only view


def _lp_prepare(mats: np.ndarray, mu: Weight, lam: Weight, p: float, extra=()) -> NormJob:
    """Conjugate, bracket, warm-start and prune a stack of operator matrices.

    :func:`~haarbloom.dyadic.best_first` warms the matrix with the highest upper
    bound, then every one whose bound reaches its warm ratio (no other can raise
    the best one or be iterated): each is conjugated at 2 and starts from its
    p = 2 maximizer and its absolute value, plus the ``extra`` starts shared by
    all.  Those whose bound reaches the best warm ratio are kept to iterate; the
    others are pruned.  A warm ratio above its bracket raises, as in :func:`_finish`.
    """
    check_dual_exponent(p)
    b = _conjugated(mats, mu, lam, p)
    upper = _upper_brackets(b, p)
    nonzero = np.flatnonzero(b.reshape(len(b), -1).any(axis=1))
    starts = np.zeros((nonzero.size, 2 + len(extra), b.shape[-1]))

    def warm(rows):
        starts[rows], ratios = _warm_starts(mats, b, nonzero[rows], extra, p, mu, lam)
        return ratios

    reach = upper[nonzero] * (1.0 + 1e-9)
    ratios = best_first(reach, warm, (1, nonzero.size))     # the top one, then all it allows
    _within_brackets(ratios, upper[nonzero])
    run = np.flatnonzero(reach >= ratios.max(initial=-np.inf))
    return NormJob(mu, p, upper, nonzero.size, nonzero[run], b[nonzero[run]], starts[run])


def _finish(job: NormJob, ran_best: np.ndarray, ran_u: np.ndarray, ran_its: np.ndarray,
            ran_broke: np.ndarray) -> OpNormResult:
    """Fold the iterated trajectories of ``job`` into its certified lower bound.

    The iterated matrix with the highest lower bound wins (ties: the first);
    its unit l^p maximizer is the witness (none when nothing was iterated).
    ``converged`` is False when a start of the winner stopped at
    :data:`MAX_ITER` or any trajectory left on a non-finite ratio.  A supremum
    also reports the winner's sign pair, and its ``iterations`` count 1 per
    matrix not iterated plus every trajectory's.  A lower bound above its
    bracket raises, as in :func:`_lp_prepare`.
    """
    per = job.starts.shape[1]
    best, its = ran_best.reshape(-1, per), ran_its.reshape(-1, per)
    pick = np.argmax(best, axis=1)         # ties: the earliest start, as a sequential walk
    values = best[np.arange(job.run.size), pick]
    _within_brackets(values, job.upper[job.run])
    idx, value, witness, iterations, converged = 0, 0.0, None, 0, not ran_broke.any()
    if job.run.size:
        row = int(np.argmax(values))
        idx, value, u = int(job.run[row]), values[row], ran_u[row * per + pick[row]]
        area, n = 4.0 ** (-job.mu.depth), 1 << job.mu.depth
        f = u / _lp_norms(u, job.p) / (job.mu.values.ravel() * area) ** (1.0 / job.p)
        witness = GridFunction2D(job.mu.depth, f.reshape(n, n))
        iterations = int(its[row].sum())
        converged = converged and bool((its[row] < MAX_ITER).all())
    res = OpNormResult(float(value), "lower_bound", iterations, witness,
                       upper_bound=float(job.upper[idx]),
                       pruned=int(job.nonzero - job.run.size), converged=converged)
    if job.signs is not None:
        res.iterations = len(job.upper) - job.run.size + int(its.sum())
        res.sign_pair = tuple(SignChoice1D(job.mu.depth, s[idx]) for s in job.signs)
    return res


def solve(jobs: list[NormJob | OpNormResult]) -> list[OpNormResult]:
    """Finish every pending job with a single :func:`_power_iteration` call.

    Returns one result per job, in order; a finished result passes through.
    The pending jobs must share ``p``; a mixed list raises ``ValueError``.  A
    trajectory does not depend on the others it runs with, so each job gets
    the bits it would get alone.
    """
    pending = [job for job in jobs if isinstance(job, NormJob)]
    if len({job.p for job in pending}) > 1:
        raise ValueError(f"solve takes jobs of one p, got {sorted({job.p for job in pending})}")
    if not pending:
        return list(jobs)
    starts = [job.starts.reshape(-1, job.starts.shape[-1]) for job in pending]
    ran = _power_iteration(     # even with no trajectory to run: every stack was zero
        np.concatenate([job.live.repeat(job.starts.shape[1], axis=0) for job in pending]),
        np.concatenate(starts), pending[0].p, MAX_ITER, TOL)
    ends = itertools.accumulate(len(u) for u in starts)
    done = iter([_finish(job, *(a[end - len(u):end] for a in ran))
                 for job, u, end in zip(pending, starts, ends)])
    return [next(done) if isinstance(job, NormJob) else job for job in jobs]


def opnorm(mat: np.ndarray, mu: Weight, lam: Weight, p: float) -> OpNormResult:
    """The L^p(mu) -> L^p(lam) norm of one ``(4^N, 4^N)`` operator matrix.

    At p = 2 the exact top singular value.  Otherwise a certified lower
    bound: the nonlinear power iteration, started from the p = 2 maximizer,
    its absolute value and the first two draws of ``default_rng(0)``,
    returns the best ratio over all iterates, never above the interpolation
    bracket it reports as ``upper_bound``.
    """
    return solve([opnorm_job(mat, mu, lam, p)])[0]


def opnorm_job(mat: np.ndarray, mu: Weight, lam: Weight, p: float) -> NormJob | OpNormResult:
    """:func:`opnorm` to finish later: the result itself at p = 2, otherwise a
    :class:`NormJob` for :func:`solve`."""
    if p == 2:
        return opnorm_p2_exact(mat, mu, lam)
    return _lp_prepare(_matrix(mat)[None], mu, lam, p, _random_starts(4 ** mu.depth))


# ---------------------------------------------------------------------------
# supremum over sign choices of the iterated commutator norm
# ---------------------------------------------------------------------------

def check_walk(mode: str, depth: int, trials: int) -> None:
    """Refuse an unknown sign walk, a sampled one of no pairs, or a too deep exhaustive one."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials < 1:
        raise ValueError(f"sampled mode needs trials >= 1, got {trials}")
    if mode == "exhaustive" and depth > EXHAUSTIVE_MAX_DEPTH:
        raise ValueError("exhaustive mode walks every sign pair and is limited to depth "
                         f"<= {EXHAUSTIVE_MAX_DEPTH}; use mode='sampled'")


def sup_commutator_job(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                       mode: str = "exhaustive", trials: int = SAMPLED_PAIRS,
                       seed: int | np.random.Generator | None = 0) -> NormJob | OpNormResult:
    """:func:`sup_commutator_norm` to finish later, as :func:`opnorm_job`; sampled sign
    pairs are drawn when it is built."""
    check_walk(mode, b.depth, trials)
    if mode == "exhaustive":
        rows = axis_sign_rows(b.depth)
        rows = rows[rows[:, 1] > 0]
        sx = np.repeat(rows, len(rows), axis=0)
        sy = np.tile(rows, (len(rows), 1))
    else:
        draws = ensure_rng(seed).choice((-1.0, 1.0), size=(trials, 2, 1 << b.depth))
        sx, sy = draws.transpose(1, 0, 2).copy()          # two C-ordered stacks

    mats = commutator_matrices(b, sx, sy)
    if p != 2:
        return replace(_lp_prepare(mats, mu, lam, p), signs=(sx, sy))
    tops = _svd(_conjugated(mats, mu, lam, 2), compute_uv=False)[:, 0]
    idx = int(np.argmax(tops))
    best = opnorm_p2_exact(mats[idx], mu, lam)
    best.iterations = len(mats)        # max(1, 0) per pair
    best.sign_pair = (SignChoice1D(b.depth, sx[idx]), SignChoice1D(b.depth, sy[idx]))
    best.kind = "exact" if mode == "exhaustive" else "lower_bound"
    return best


def sup_commutator_norm(b: GridFunction2D, mu: Weight, lam: Weight, p: float,
                        mode: str = "exhaustive", trials: int = SAMPLED_PAIRS,
                        seed: int | np.random.Generator | None = 0) -> OpNormResult:
    """Supremum over sign pairs of the iterated commutator norm.

    The commutator matrices of all candidate pairs of one-parameter sign
    multipliers are built in one stack and their weighted norms measured
    together: top singular values at p = 2, the batched power iteration
    otherwise.  ``mode="exhaustive"`` walks the +-1 space, as deep as
    :func:`check_walk` allows, one class ``{+-sx} x {+-sy}`` at a time, by
    its member with slot-1 signs +1: negating one axis negates the commutator.
    ``"sampled"`` draws ``trials`` pairs from a seeded stream, so a longer
    run with the same seed extends a shorter one.  Ties go to the first
    pair in walk order.  ``iterations`` sums ``max(1, per-pair
    iterations)``; away from 2, a pair whose upper bound is below the best
    warm-start ratio cannot win and is pruned, not iterated, counting 1;
    each pair starts from its p = 2 maximizer and that vector's absolute
    value.  The result is exact only for an exhaustive walk at p = 2.
    """
    return solve([sup_commutator_job(b, mu, lam, p, mode, trials, seed)])[0]
