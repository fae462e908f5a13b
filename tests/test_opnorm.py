import dataclasses
import importlib
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from haarbloom.dyadic import GridFunction2D, random_grid, random_symbol
from haarbloom.norms import lp_weighted_norm
from haarbloom.operators import (
    SignChoice1D,
    axis_sign_rows,
    commutator_matrices,
    lambda_matrix,
    lambda_operator,
    materialize,
    multiplication_operator,
    iterated_commutator,
)
from haarbloom.opnorm import (
    opnorm,
    opnorm_p2_exact,
    sup_commutator_norm,
)
from haarbloom.weights import Weight, constant_weight, random_cascade_weight

# the package re-exports the function ``opnorm`` under the module's name
opnorm_module = importlib.import_module("haarbloom.opnorm")


def inverse_weight(w):
    return Weight(GridFunction2D(w.depth, 1.0 / w.values))


def conjugated(mat, mu, lam, p):
    """The plain matrix whose l^p norm is the weighted L^p(mu) -> L^p(lam) norm of ``mat``."""
    return opnorm_module._conjugated(mat, mu, lam, p)


def apply(mat, f):
    """A dense matrix applied to a grid function's raveled cell values."""
    return GridFunction2D(f.depth, (mat @ f.values.ravel()).reshape(f.values.shape))


def test_multiplication_norm_is_sup_norm():
    g = random_grid(2, 1)
    mat = materialize(multiplication_operator(g), 2)
    res = opnorm_p2_exact(mat, constant_weight(2), constant_weight(2))
    assert res.value == pytest.approx(np.abs(g.values).max(), rel=1e-12)
    assert res.kind == "exact" and res.iterations == 0


def test_identity_norm_between_weights():
    mu = random_cascade_weight(2, 0.7, 2)
    lam = random_cascade_weight(2, 0.7, 3)
    ident = np.eye(16)
    res = opnorm_p2_exact(ident, mu, lam)
    assert res.value == pytest.approx(np.sqrt(lam.values / mu.values).max(), rel=1e-12)


def test_witness_attains_the_value():
    b = random_symbol(2, 4)
    mu = random_cascade_weight(2, 0.5, 5)
    lam = random_cascade_weight(2, 0.5, 6)
    mat = materialize(lambda_operator(b), 2)
    res = opnorm_p2_exact(mat, mu, lam)
    ratio = lp_weighted_norm(apply(mat, res.witness), lam, 2) / lp_weighted_norm(res.witness, mu, 2)
    assert ratio == pytest.approx(res.value, rel=1e-10)
    assert lp_weighted_norm(res.witness, mu, 2) == pytest.approx(1.0, rel=1e-10)


def test_lower_bound_matches_exact_at_p2():
    rng = np.random.default_rng(7)
    for _ in range(5):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, 0.6, rng)
        lam = random_cascade_weight(2, 0.6, rng)
        mat = materialize(lambda_operator(b), 2)
        exact = opnorm_p2_exact(mat, mu, lam).value
        extra = np.random.default_rng(0).standard_normal((2, 16))
        [lower] = opnorm_module.solve([opnorm_module._lp_prepare(mat[None], mu, lam, 2.0, extra)])
        assert lower.value == pytest.approx(exact, rel=1e-6)
        assert lower.value <= exact * (1 + 1e-9)
        assert lower.kind == "lower_bound"
        assert lower.iterations > 0


def test_bracket_contains_the_norm():
    b = random_symbol(2, 8)
    mu = random_cascade_weight(2, 0.5, 9)
    lam = random_cascade_weight(2, 0.5, 10)
    mat = materialize(lambda_operator(b), 2)
    exact = opnorm_p2_exact(mat, mu, lam).value
    assert opnorm_module._upper_brackets(conjugated(mat, mu, lam, 2), 2) >= exact * (1 - 1e-12)
    for p in (1.5, 3.0):
        res = opnorm(mat, mu, lam, p)
        assert res.value <= res.upper_bound * (1 + 1e-9)
        got = (lp_weighted_norm(apply(mat, res.witness), lam, p)
               / lp_weighted_norm(res.witness, mu, p))
        assert got == pytest.approx(res.value, rel=1e-8)


def test_opnorm_dispatch():
    b = random_symbol(2, 11)
    mat = materialize(lambda_operator(b), 2)
    one = constant_weight(2)
    assert opnorm(mat, one, one, 2).kind == "exact"
    assert opnorm(mat, one, one, 1.5).kind == "lower_bound"


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_misspelled_options_raise_at_every_p(p):
    mat, one = lambda_matrix(random_symbol(2, 11)), constant_weight(2)
    for front_door in (opnorm, opnorm_module.opnorm_job):
        with pytest.raises(TypeError, match="restrats"):
            front_door(mat, one, one, p, restrats=3)


def test_duality_p2():
    # the adjoint between the inverted weight spaces has the same norm
    rng = np.random.default_rng(12)
    for _ in range(5):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, 0.6, rng)
        lam = random_cascade_weight(2, 0.6, rng)
        mat = materialize(lambda_operator(b), 2)
        forward = opnorm_p2_exact(mat, mu, lam).value
        dual = opnorm_p2_exact(mat.transpose(), inverse_weight(lam), inverse_weight(mu)).value
        assert dual == pytest.approx(forward, rel=1e-10)


def test_weighted_matrix_is_transpose_consistent():
    b = random_symbol(2, 13)
    mu = random_cascade_weight(2, 0.5, 14)
    lam = random_cascade_weight(2, 0.5, 15)
    mat = materialize(lambda_operator(b), 2)
    bmat = conjugated(mat, mu, lam, 2)
    dual = conjugated(mat.transpose(), inverse_weight(lam), inverse_weight(mu), 2)
    np.testing.assert_allclose(dual, bmat.T, rtol=1e-12)


def test_zero_operator():
    zero = np.zeros((4, 4))
    one = constant_weight(1)
    assert opnorm_p2_exact(zero, one, one).value == 0.0
    res = opnorm(zero, one, one, 1.5)
    assert res.value == 0.0 and res.witness is None


# ---------------------------------------------------------------------------
# sign supremum
# ---------------------------------------------------------------------------

def test_sup_commutator_small_exhaustive():
    b = random_symbol(1, 16)
    one = constant_weight(1)
    res = sup_commutator_norm(b, one, one, 2, mode="exhaustive")
    assert res.kind == "exact"
    sx, sy = res.sign_pair
    mat = materialize(lambda f: iterated_commutator(b, f, sx, sy), 1)
    again = opnorm_p2_exact(mat, one, one).value
    assert again == pytest.approx(res.value, rel=1e-12)


def test_sup_commutator_survives_an_svd_that_does_not_converge():
    # LAPACK's gesdd fails on this draw's rank-deficient depth-4 commutator (sampled
    # pair 10); the supremum must still return, inside its bracket
    rng = np.random.default_rng([5, 4, 3])
    b = random_symbol(4, rng)
    mu = random_cascade_weight(4, 0.5, rng)
    lam = random_cascade_weight(4, 0.5, rng)
    res = sup_commutator_norm(b, mu, lam, 1.5, mode="sampled", seed=rng)
    assert 0 < res.value <= res.upper_bound * (1 + 1e-9)


@pytest.mark.parametrize("shape", [(5, 5), (3, 4, 6)])
def test_svd_retries_on_the_transpose_only_after_a_failure(shape, monkeypatch):
    a = np.random.default_rng(7).standard_normal(shape)
    at = np.swapaxes(a, -1, -2)
    real = np.linalg.svd
    # an SVD that converges is numpy's own, bit for bit
    assert [x.tobytes() for x in opnorm_module._svd(a)] == [x.tobytes() for x in real(a)]
    assert opnorm_module._svd(a, False).tobytes() == real(a, compute_uv=False).tobytes()
    calls = []

    def failing_first(m, compute_uv=True):
        calls.append(m.shape)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(m, compute_uv=compute_uv)
    monkeypatch.setattr(np.linalg, "svd", failing_first)
    u, s, vt = opnorm_module._svd(a)
    values = opnorm_module._svd(a, compute_uv=False)
    assert calls == [a.shape, at.shape] * 2
    want = real(at)
    assert s.tobytes() == want.S.tobytes()
    assert u.tobytes() == np.swapaxes(want.Vh, -1, -2).tobytes()
    assert vt.tobytes() == np.swapaxes(want.U, -1, -2).tobytes()
    assert values.tobytes() == real(at, compute_uv=False).tobytes()
    k = s.shape[-1]
    np.testing.assert_allclose((u[..., :k] * s[..., None, :]) @ vt[..., :k, :], a,
                               rtol=0, atol=1e-12)


def test_sup_dominates_any_single_pair():
    rng = np.random.default_rng(17)
    b = random_symbol(2, rng)
    one = constant_weight(2)
    res = sup_commutator_norm(b, one, one, 2, mode="exhaustive")
    from haarbloom.operators import SignChoice1D
    for _ in range(5):
        sx, sy = SignChoice1D.random(2, rng), SignChoice1D.random(2, rng)
        mat = materialize(lambda f: iterated_commutator(b, f, sx, sy), 2)
        single = opnorm_p2_exact(mat, one, one).value
        assert single <= res.value * (1 + 1e-12)


def test_signs_inside_the_cube_never_beat_the_vertex_supremum():
    # the commutator is bilinear in (sx, sy), so over signs in [-1, 1] its norm
    # peaks at a +-1 vertex: zero or fractional signs add nothing to the walk
    rng = np.random.default_rng(72)
    for depth, strength in ((1, 0.0), (2, 0.6), (2, 2.0)):
        b = random_symbol(depth, rng)
        mu, lam = (random_cascade_weight(depth, strength, rng) for _ in range(2))
        sup = sup_commutator_norm(b, mu, lam, 2, mode="exhaustive").value
        draws = np.concatenate([rng.choice((-1.0, 0.0, 1.0), size=(10, 1 << depth)),
                                rng.uniform(-1.0, 1.0, size=(10, 1 << depth))])
        draws[:, 0] = 0.0
        for mat in commutator_matrices(b, draws[0::2], draws[1::2]):
            assert opnorm_p2_exact(mat, mu, lam).value <= sup * (1 + 1e-12)


def test_sampled_mode_is_monotone_prefix():
    b = random_symbol(2, 18)
    one = constant_weight(2)
    short = sup_commutator_norm(b, one, one, 2, mode="sampled", trials=4, seed=5)
    long = sup_commutator_norm(b, one, one, 2, mode="sampled", trials=16, seed=5)
    full = sup_commutator_norm(b, one, one, 2, mode="exhaustive")
    assert short.value <= long.value * (1 + 1e-12)
    assert long.value <= full.value * (1 + 1e-12)
    assert short.kind == "lower_bound"


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sampled_walk_draws_sampled_pairs_by_default(p):
    b = random_symbol(2, 23)
    mu, lam = random_cascade_weight(2, 0.5, 24), random_cascade_weight(2, 0.5, 25)
    default_rng, explicit_rng = np.random.default_rng(26), np.random.default_rng(26)
    default = sup_commutator_norm(b, mu, lam, p, mode="sampled", seed=default_rng)
    explicit = sup_commutator_norm(b, mu, lam, p, mode="sampled",
                                   trials=opnorm_module.SAMPLED_PAIRS, seed=explicit_rng)
    assert default_rng.bit_generator.state == explicit_rng.bit_generator.state
    assert default.as_dict() == explicit.as_dict()
    assert default.witness.values.tobytes() == explicit.witness.values.tobytes()
    for got, want in zip(default.sign_pair, explicit.sign_pair):
        assert got.signs.tobytes() == want.signs.tobytes()


def test_sup_bounded_by_four_lambda_norms():
    rng = np.random.default_rng(19)
    one = constant_weight(2)
    for _ in range(3):
        b = random_symbol(2, rng)
        lam_norm = opnorm_p2_exact(materialize(lambda_operator(b), 2), one, one).value
        sup = sup_commutator_norm(b, one, one, 2, mode="exhaustive").value
        assert sup <= 4 * lam_norm * (1 + 1e-12)


def test_result_serialization():
    b = random_symbol(1, 20)
    one = constant_weight(1)
    res = sup_commutator_norm(b, one, one, 2)
    d = res.as_dict()
    assert set(d) == {"value", "kind", "iterations"}


def test_validation():
    b = random_symbol(3, 21)
    one3 = constant_weight(3)
    with pytest.raises(ValueError):
        sup_commutator_norm(b, one3, one3, 2, mode="exhaustive")
    with pytest.raises(ValueError):
        sup_commutator_norm(b, one3, one3, 2, mode="annealed")
    for p, trials in itertools.product((2.0, 3.0), (0, -1)):
        with pytest.raises(ValueError, match="trials >= 1"):
            sup_commutator_norm(b, one3, one3, p, mode="sampled", trials=trials)
    mat = np.eye(4)
    one = constant_weight(1)
    with pytest.raises(ValueError):
        conjugated(mat, one, one, 0.5)
    with pytest.raises(ValueError):
        opnorm(mat, one, one, 1.0)
    with pytest.raises(ValueError):
        conjugated(mat, constant_weight(2), one, 2)
    # a matrix whose shape does not fit the weights' depth
    for bad in (np.ones((3, 3)), np.eye(16), np.ones((4, 16))):
        with pytest.raises(ValueError, match="disagree on depth"):
            opnorm_p2_exact(bad, one, one)
        for p in (1.5, 2.0):
            with pytest.raises(ValueError, match="disagree on depth"):
                opnorm(bad, one, one, p)
            with pytest.raises(ValueError, match="disagree on depth"):
                opnorm_module.opnorm_job(bad, one, one, p)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_every_non_finite_operator_is_refused_in_one_wording(bad, capfd):
    w = constant_weight(2)
    mat = np.eye(16)
    mat[3, 5] = bad
    calls = [lambda p=p: opnorm(mat, w, w, p) for p in (1.5, 2.0, 3.0)]
    calls += [lambda: opnorm_p2_exact(mat, w, w)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^an operator matrix needs finite entries"):
            call()
    assert capfd.readouterr().err == ""     # refused before LAPACK could complain


def test_one_matrix_norms_refuse_a_stack():
    w = constant_weight(2)
    calls = [lambda p=p: opnorm(np.ones((2, 16, 16)), w, w, p) for p in (1.5, 2.0, 3.0)]
    calls += [lambda: opnorm_p2_exact(np.ones((1, 16, 16)), w, w)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^need one \(4\^N, 4\^N\) operator matrix"):
            call()


def per_pair_supremum(b, mu, lam, p):
    """The sign supremum one pair at a time, through the literal commutator."""
    rows = axis_sign_rows(b.depth)
    best, total = None, 0
    for rx, ry in itertools.product(rows, repeat=2):
        sx, sy = SignChoice1D(b.depth, rx), SignChoice1D(b.depth, ry)
        mat = materialize(lambda f: iterated_commutator(b, f, sx, sy), b.depth)
        # the supremum's two starts per pair: the p = 2 maximizer and its absolute value
        res = (opnorm_p2_exact(mat, mu, lam) if p == 2
               else opnorm_module.solve([opnorm_module._lp_prepare(mat[None], mu, lam, p)])[0])
        total += max(1, res.iterations)
        if best is None or res.value > best.value:
            best = res
    return best.value, total


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_batched_sup_matches_per_pair_loop(p):
    rng = np.random.default_rng(30)
    for depth in (1, 2):
        b = random_symbol(depth, rng)
        mu = random_cascade_weight(depth, 0.6, rng)
        lam = random_cascade_weight(depth, 0.6, rng)
        want, total = per_pair_supremum(b, mu, lam, p)
        res = sup_commutator_norm(b, mu, lam, p, mode="exhaustive")
        if p == 2:
            assert res.value == pytest.approx(want, rel=1e-12)
            assert res.kind == "exact" and res.iterations == total // 4 == 4 ** (2 ** depth - 2)
        else:
            assert res.value >= want * (1 - 1e-9)
            assert res.value <= res.upper_bound * (1 + 1e-9)
            assert res.kind == "lower_bound" and res.iterations >= 4 ** (2 ** depth - 2)
        # the reported pair and witness realize the reported value
        sx, sy = res.sign_pair
        mat = materialize(lambda f: iterated_commutator(b, f, sx, sy), depth)
        got = (lp_weighted_norm(apply(mat, res.witness), lam, p)
               / lp_weighted_norm(res.witness, mu, p))
        assert got == pytest.approx(res.value, rel=1e-8)


def test_sampled_mode_draws_like_sequential_sign_choices():
    # run_commutator's BMO search draws from the same generator after the walk
    b = random_symbol(2, 31)
    one = constant_weight(2)
    rng = np.random.default_rng(32)
    res = sup_commutator_norm(b, one, one, 3.0, mode="sampled", trials=5, seed=rng)
    again = np.random.default_rng(32)
    pairs = [(SignChoice1D.random(2, again).signs, SignChoice1D.random(2, again).signs)
             for _ in range(5)]
    assert rng.bit_generator.state == again.bit_generator.state
    sx, sy = res.sign_pair
    assert any(np.array_equal(sx.signs, px) and np.array_equal(sy.signs, py)
               for px, py in pairs)


def test_bracket_escape_raises(monkeypatch):
    b = random_symbol(2, 33)
    one = constant_weight(2)
    mat = materialize(lambda_operator(b), 2)
    real = opnorm_module._upper_brackets
    monkeypatch.setattr(opnorm_module, "_upper_brackets", lambda m, p: 0.5 * real(m, p))
    with pytest.raises(RuntimeError, match="escaped the bracket"):
        opnorm(mat, one, one, 3.0)
    with pytest.raises(RuntimeError, match="escaped the bracket"):
        sup_commutator_norm(b, one, one, 1.5)


# ---------------------------------------------------------------------------
# the l^2-interpolated bracket, pruning and the compacted iteration, each
# against the code it replaced, kept here as the oracle
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def l1_linf_brackets(b, p):
    """The bracket the l^2 interpolation replaced: l^1 and l^infty norms only."""
    a = np.abs(b)
    col = a.sum(axis=-2).max(axis=-1)
    row = a.sum(axis=-1).max(axis=-1)
    return col ** (1.0 / p) * row ** (1.0 - 1.0 / p)


def power_iteration_gathering(b, starts, p, max_iter, tol):
    """The iteration before compaction: gathers b[live] and u[live] on every pass; a
    trajectory that stops on a non-finite ratio is flagged."""
    lp = opnorm_module._lp_norms
    pp = p / (p - 1.0)
    u = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best = np.full(len(b), -np.inf)
    best_u = u.copy()
    count = np.zeros(len(b), dtype=int)
    broke = np.zeros(len(b), dtype=bool)
    prev = np.full(len(b), -np.inf)
    live = np.arange(len(b))
    for _ in range(max_iter):
        if live.size == 0:
            break
        bl, ul = b[live], u[live]
        out = np.einsum("tij,tj->ti", bl, ul)
        r = lp(out, p) / lp(ul, p)
        count[live] += 1
        up = r > best[live]
        best[live[up]] = r[up]
        best_u[live[up]] = ul[up]
        moving = np.abs(r - prev[live]) > tol * np.maximum(1.0, np.abs(r))
        broke[live[~moving]] = ~np.isfinite(r[~moving])
        live, bl, out = live[moving], bl[moving], out[moving]
        prev[live] = r[moving]
        y = np.einsum("tji,tj->ti", bl, np.sign(out) * np.abs(out) ** (p - 1.0))
        nxt = np.sign(y) * np.abs(y) ** (pp - 1.0)
        norm = lp(nxt, p)
        alive = norm != 0.0
        live = live[alive]
        u[live] = nxt[alive] / norm[alive, None]
    return best, best_u, count, broke


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
def test_l2_bracket_between_lower_bound_and_old_bracket(p):
    rng = np.random.default_rng(40)
    b = rng.standard_normal((64, 9, 9)) * rng.exponential(size=(64, 1, 9))
    upper = opnorm_module._upper_brackets(b, p)
    assert np.all(upper <= l1_linf_brackets(b, p) * (1 + 1e-12))
    starts = rng.standard_normal((64, 9))
    lower = opnorm_module._power_iteration(b, starts, p, 500, 1e-9)[0]
    assert np.all(lower <= upper * (1 + 1e-12))
    # at p = 2 both interpolation formulas collapse to the top singular value
    np.testing.assert_allclose(opnorm_module._upper_brackets(b, 2.0),
                               np.linalg.svd(b, compute_uv=False)[:, 0], rtol=1e-12)


def singleton_supremum(b, mu, lam, p, sx, sy):
    """The sign supremum one pair per prepared and solved job: nothing to prune."""
    mats = commutator_matrices(b, sx, sy)
    best = None
    for i in range(len(mats)):
        job = opnorm_module._lp_prepare(mats[i:i + 1], mu, lam, p)
        [res] = opnorm_module.solve([job])
        assert res.pruned == 0 and res.upper_bound == job.upper[0]
        if best is None or res.value > best.value:
            best = res
            best.sign_pair = (sx[i], sy[i])
    return best


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("delta", [0.0, 0.6])
def test_pruned_supremum_matches_unpruned_oracle(p, delta):
    rng = np.random.default_rng(41)
    rows = axis_sign_rows(2)
    rows = rows[rows[:, 1] > 0]
    pruned = 0
    for _ in range(3):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, delta, rng)
        lam = random_cascade_weight(2, delta, rng)
        draws = np.random.default_rng(7)
        sampled = [SignChoice1D.random(2, draws).signs for _ in range(2 * 12)]
        for mode, sx, sy in (
                ("exhaustive", np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))),
                ("sampled", np.array(sampled[0::2]), np.array(sampled[1::2]))):
            res = sup_commutator_norm(b, mu, lam, p, mode=mode, trials=12, seed=7)
            want = singleton_supremum(b, mu, lam, p, sx, sy)
            assert res.value == want.value
            np.testing.assert_array_equal(res.sign_pair[0].signs, want.sign_pair[0])
            np.testing.assert_array_equal(res.sign_pair[1].signs, want.sign_pair[1])
            np.testing.assert_array_equal(res.witness.values, want.witness.values)
            assert res.upper_bound == want.upper_bound
            assert 0 <= res.pruned < len(sx)
            pruned += res.pruned
    assert pruned > 0


def test_compacted_iteration_matches_gathering_oracle():
    rng = np.random.default_rng(42)
    m = 6
    b = rng.standard_normal((7, m, m))
    b[1] = np.diag(np.arange(1.0, m + 1))       # stops within a few passes
    b[2] = np.eye(m)                            # stops on the second pass
    b[3][:, 0] = 0.0                            # kernel holds e_0 ...
    starts = rng.standard_normal((7, m))
    starts[3] = np.eye(m)[0]                    # ... so this iterate vanishes at once
    b[5] *= 1e200                               # overflows
    for p in (1.3, 4.0):
        for max_iter in (3, 500):
            got = opnorm_module._power_iteration(b, starts.copy(), p, max_iter, 1e-9)
            with np.errstate(all="ignore"):
                want = power_iteration_gathering(b, starts.copy(), p, max_iter, 1e-9)
            assert len(got) == len(want) == 4
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            if max_iter == 500:
                assert len(set(got[2])) >= 4 and got[2][3] == 1 and got[0][3] == 0.0
                np.testing.assert_array_equal(got[3], np.arange(7) == 5)


def test_as_dict_reports_the_bracket_and_pruning():
    b = random_symbol(2, 43)
    one = constant_weight(2)
    res = sup_commutator_norm(b, one, one, 3.0)
    d = res.as_dict()
    assert d["upper_bound"] == res.upper_bound >= res.value
    assert d["pruned"] == res.pruned > 0
    assert res.iterations >= 16


ESCAPE_IN_BUILDER = """
import importlib
import numpy as np
from haarbloom.dyadic import random_symbol
from haarbloom.weights import constant_weight
opnorm = importlib.import_module("haarbloom.opnorm")
real_upper, real_iteration = opnorm._upper_brackets, opnorm._power_iteration
iterated = []
opnorm._upper_brackets = lambda m, p: 0.5 * real_upper(m, p)
opnorm._power_iteration = lambda b, *rest: iterated.append(len(b)) or real_iteration(b, *rest)
one = constant_weight(2)
try:
    opnorm.sup_commutator_norm(random_symbol(2, 33), one, one, 1.5)
except RuntimeError as exc:
    print(iterated, exc)
"""


def test_bracket_escape_raises_in_the_job_builder(monkeypatch):
    b = random_symbol(2, 33)
    one = constant_weight(2)
    real_upper, real_iteration = opnorm_module._upper_brackets, opnorm_module._power_iteration
    iterated = []
    monkeypatch.setattr(opnorm_module, "_upper_brackets", lambda m, p: 0.5 * real_upper(m, p))
    monkeypatch.setattr(opnorm_module, "_power_iteration",
                        lambda m, *rest: iterated.append(len(m)) or real_iteration(m, *rest))
    for p in (1.5, 3.0):
        with pytest.raises(RuntimeError, match="escaped the bracket"):
            opnorm_module.sup_commutator_job(b, one, one, p)
        with pytest.raises(RuntimeError, match="escaped the bracket"):
            sup_commutator_norm(b, one, one, p)
    # the halved bracket is below the warm ratios: the job builder raises, nothing is iterated
    assert iterated == []


# a warm-started pair below the top one: its bracket is shrunk to the top pair's warm
# ratio W0, so it is still warm-started, while its own warm ratio is above W0
ESCAPE_BELOW_TOP = """
import importlib
import numpy as np
from haarbloom.dyadic import random_symbol
from haarbloom.weights import random_cascade_weight
opnorm = importlib.import_module("haarbloom.opnorm")
rng = np.random.default_rng(32)
b = random_symbol(2, rng)
mu, lam = random_cascade_weight(2, 0.6, rng), random_cascade_weight(2, 0.6, rng)
real_upper, real_warm = opnorm._upper_brackets, opnorm._warm_starts
warmed = []                                 # per call: {pair: its best warm ratio}


def warm_starts(mats, b, rows, *rest):
    starts, ratios = real_warm(mats, b, rows, *rest)
    warmed.append(dict(zip(rows.tolist(), ratios)))
    return starts, ratios


opnorm._warm_starts = warm_starts
stack = opnorm.sup_commutator_job(b, mu, lam, 1.5)
ratios = warmed[0] | warmed[1]
top, j = int(np.argmax(stack.upper)), max(ratios, key=ratios.get)
w0 = ratios[top]
warmed.clear()
opnorm._upper_brackets = lambda m, p: np.where(np.arange(len(m)) == j, w0, real_upper(m, p))
try:
    opnorm.sup_commutator_job(b, mu, lam, 1.5)
except RuntimeError as exc:
    print(top != j, ratios[j] > w0 * (1 + 1e-6), list(warmed[0]) == [top], j in warmed[1], exc)
finally:
    opnorm._upper_brackets, opnorm._warm_starts = real_upper, real_warm
"""


def test_bracket_escape_raises_below_the_top_pair(capsys):
    exec(ESCAPE_BELOW_TOP, {})
    out = capsys.readouterr().out
    assert out.startswith("True True True True lower bound") and "escaped the bracket" in out


# every warm ratio is inside the bracket, but the iterated supremum escapes it: the bracket
# is set between the best warm ratio and the iterated value, and _finish raises
ESCAPE_ITERATED = """
import importlib
import numpy as np
from haarbloom.dyadic import random_symbol
from haarbloom.weights import random_cascade_weight
opnorm = importlib.import_module("haarbloom.opnorm")
rng = np.random.default_rng(32)
b = random_symbol(2, rng)
mu, lam = random_cascade_weight(2, 0.6, rng), random_cascade_weight(2, 0.6, rng)
real_upper, real_warm, real_finish = opnorm._upper_brackets, opnorm._warm_starts, opnorm._finish
warm, finished = [], []


def warm_starts(*args):
    starts, ratios = real_warm(*args)
    warm.append(ratios.max())
    return starts, ratios


opnorm._warm_starts = warm_starts
value = opnorm.sup_commutator_norm(b, mu, lam, 1.5).value
bracket = (max(warm) + value) / 2
opnorm._upper_brackets = lambda m, p: np.full(len(m), bracket)
opnorm._finish = lambda job, *ran: finished.append(job.run.size) or real_finish(job, *ran)
try:
    opnorm.sup_commutator_norm(b, mu, lam, 1.5)
except RuntimeError as exc:
    print(value > max(warm) * (1 + 1e-6), finished, exc)
finally:
    opnorm._upper_brackets, opnorm._warm_starts = real_upper, real_warm
    opnorm._finish = real_finish
"""


def test_bracket_escape_raises_after_the_iteration(capsys):
    exec(ESCAPE_ITERATED, {})
    out = capsys.readouterr().out
    assert out.startswith("True [16] lower bound") and "escaped the bracket" in out


def test_pruning_and_escape_guards_survive_optimize_flag():
    # python -O strips assert statements; the guards must still fire
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for script, start in ((ESCAPE_IN_BUILDER, "[] lower bound"),
                          (ESCAPE_BELOW_TOP, "True True True True lower bound"),
                          (ESCAPE_ITERATED, "True [16] lower bound")):
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(start) and "escaped the bracket" in proc.stdout


# ---------------------------------------------------------------------------
# jobs finished together by one power iteration, against one-job solves
# ---------------------------------------------------------------------------

def mixed_jobs(p):
    """A supremum stack, one operator with random starts, an all-zero stack and a
    stack whose every nonzero pair is pruned.  The last is a hand-made edge case,
    not a job ``_lp_prepare`` builds: a valid bracket never prunes them all."""
    rng = np.random.default_rng(50)
    b = random_symbol(2, rng)
    mu = random_cascade_weight(2, 0.6, rng)
    lam = random_cascade_weight(2, 0.6, rng)
    pruned = opnorm_module.sup_commutator_job(random_symbol(2, rng), mu, lam, p,
                                              mode="sampled", trials=5, seed=3)
    pruned.run = pruned.run[:0]
    pruned.live, pruned.starts = pruned.live[:0], pruned.starts[:0]
    return [opnorm_module.sup_commutator_job(b, mu, lam, p),
            opnorm_module.opnorm_job(materialize(lambda_operator(b), 2), mu, lam, p),
            opnorm_module.sup_commutator_job(GridFunction2D.zeros(2), mu, lam, p),
            pruned]


def assert_same_result(got, want):
    for name in ("value", "kind", "iterations", "upper_bound", "pruned", "converged"):
        assert getattr(got, name) == getattr(want, name), name
    if want.witness is None:
        assert got.witness is None
    else:
        np.testing.assert_array_equal(got.witness.values, want.witness.values)
    if want.sign_pair is None:
        assert got.sign_pair is None
    else:
        for g, w in zip(got.sign_pair, want.sign_pair):
            np.testing.assert_array_equal(g.signs, w.signs)


@pytest.mark.parametrize("p", [1.1, 3.0])
def test_random_starts_are_the_first_draws_of_seed_zero(p):
    starts = opnorm_module._random_starts(16)
    assert starts.tobytes() == np.random.default_rng(0).standard_normal((2, 16)).tobytes()
    assert starts is opnorm_module._random_starts(16)
    assert not starts.flags.writeable
    with pytest.raises(ValueError):
        starts[0, 0] = 1.0
    rng = np.random.default_rng(71)
    b = random_symbol(2, rng)
    mu, lam = random_cascade_weight(2, 0.6, rng), random_cascade_weight(2, 0.6, rng)
    mat = materialize(lambda_operator(b), 2)
    cached = opnorm(mat, mu, lam, p)
    extra = np.random.default_rng(0).standard_normal((2, 16))
    [drawn] = opnorm_module.solve([opnorm_module._lp_prepare(mat[None], mu, lam, p, extra)])
    for field in dataclasses.fields(opnorm_module.OpNormResult):
        got, want = getattr(cached, field.name), getattr(drawn, field.name)
        if field.name == "witness":
            assert got.values.tobytes() == want.values.tobytes()
        else:
            assert type(got) is type(want) and got == want, field.name


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_batched_solve_matches_one_job_solves(p, monkeypatch):
    alone = [opnorm_module.solve([job])[0] for job in mixed_jobs(p)]
    real_iteration = opnorm_module._power_iteration
    calls = []
    monkeypatch.setattr(opnorm_module, "_power_iteration",
                        lambda m, *rest: calls.append(len(m)) or real_iteration(m, *rest))
    together = opnorm_module.solve(mixed_jobs(p))
    assert len(calls) == 1 and calls[0] > 0
    assert len(together) == len(alone) == 4
    for got, want in zip(together, alone):
        assert isinstance(got, opnorm_module.OpNormResult)
        assert_same_result(got, want)
    assert together[2].value == 0.0 and together[2].witness is None
    assert together[3].pruned == 5 and together[3].iterations == 5
    # the one-job entry points are one-job solves
    rng = np.random.default_rng(50)
    b = random_symbol(2, rng)
    mu = random_cascade_weight(2, 0.6, rng)
    lam = random_cascade_weight(2, 0.6, rng)
    assert_same_result(sup_commutator_norm(b, mu, lam, p), together[0])
    assert_same_result(opnorm(materialize(lambda_operator(b), 2), mu, lam, p), together[1])


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_solve_returns_one_result_per_job_in_order(p):
    alone = [opnorm_module.solve([job])[0] for job in mixed_jobs(p)]
    rng = np.random.default_rng(50)
    b = random_symbol(2, rng)
    mu = random_cascade_weight(2, 0.6, rng)
    lam = random_cascade_weight(2, 0.6, rng)
    # at p = 2 the job builders return finished results, which pass through
    done = [opnorm_module.sup_commutator_job(b, mu, lam, 2.0),
            opnorm_module.opnorm_job(lambda_matrix(b), mu, lam, 2.0)]
    pending = mixed_jobs(p)
    jobs = [done[0], pending[0], pending[1], done[1], pending[2], pending[3]]
    got = opnorm_module.solve(jobs)
    assert len(got) == len(jobs)
    assert got[0] is done[0] and got[3] is done[1]
    for res, want in zip([got[1], got[2], got[4], got[5]], alone):
        assert_same_result(res, want)
    assert all(a is b for a, b in zip(opnorm_module.solve(done), done))
    assert opnorm_module.solve([]) == []


def test_solve_refuses_mixed_exponents():
    b = random_symbol(2, 51)
    one = constant_weight(2)
    jobs = [opnorm_module.sup_commutator_job(b, one, one, p) for p in (1.5, 2.0, 3.0)]
    with pytest.raises(ValueError, match="one p"):
        opnorm_module.solve(jobs)
    # at p = 2 a job is finished when it is built
    assert isinstance(jobs[1], opnorm_module.OpNormResult) and jobs[1].kind == "exact"


def test_converged_reports_an_iteration_cut_short(monkeypatch):
    b = random_symbol(2, 52)
    mu = random_cascade_weight(2, 0.6, 53)
    lam = random_cascade_weight(2, 0.6, 54)
    mat = materialize(lambda_operator(b), 2)
    with monkeypatch.context() as patch:
        patch.setattr(opnorm_module, "MAX_ITER", 1)
        cut = opnorm(mat, mu, lam, 3.0)
    assert cut.converged is False and cut.as_dict()["converged"] is False
    full = opnorm(mat, mu, lam, 3.0)
    assert full.converged is True and full.as_dict()["converged"] is True
    assert full.iterations < 4 * 500
    assert sup_commutator_norm(b, mu, lam, 1.5).converged is True
    # exact results carry no convergence flag
    assert "converged" not in opnorm_p2_exact(mat, mu, lam).as_dict()


def test_converged_reports_a_trajectory_that_overflowed():
    # at p = 1.05 the dual power |y|^(p'-1) overflows on weights of strength 1e300
    flags = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        b = random_symbol(2, rng)
        with np.errstate(over="ignore"):        # the cascade clamps what overflows
            mu, lam = (random_cascade_weight(2, 1e300, rng) for _ in range(2))
        job = opnorm_module.opnorm_job(lambda_matrix(b), mu, lam, 1.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # the kernel warns about nothing
            broke = opnorm_module._power_iteration(
                job.live.repeat(job.starts.shape[1], axis=0),
                job.starts.reshape(-1, job.starts.shape[-1]), 1.05,
                opnorm_module.MAX_ITER, opnorm_module.TOL)[3]
            [res] = opnorm_module.solve([job])
        assert res.converged is not bool(broke.any())
        assert np.isfinite(res.value)
        flags.append(res.converged)
    assert flags.count(False) == 24


# ---------------------------------------------------------------------------
# the one-pass iteration step, against the compacted iteration it replaced,
# kept here as the oracle
# ---------------------------------------------------------------------------

def power_iteration_compacted(b, starts, p, max_iter, tol):
    """The compacted iteration before the one-pass step: ``B u`` and ``u`` are normed in
    two passes, ``|nxt|`` is taken again for its norm, the ratio's ``abs`` is kept."""
    pp = p / (p - 1.0)
    ul = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best, best_u, count = np.full(len(b), -np.inf), ul.copy(), np.full(len(b), max_iter)
    broke = np.zeros(len(b), dtype=bool)
    live, bl, prev, lbest, lbest_u = np.arange(len(b)), b, best.copy(), best.copy(), ul.copy()
    for k in range(max_iter):
        if live.size == 0:
            break
        out = np.einsum("tij,tj->ti", bl, ul)
        a = np.abs(out)
        r = np.add.reduce(a ** p, axis=-1) ** (1.0 / p) / opnorm_module._lp_norms(ul, p)
        up = r > lbest
        np.copyto(lbest, r, where=up)
        np.copyto(lbest_u, ul, where=up[:, None])
        moving = np.abs(r - prev) > tol * np.maximum(1.0, np.abs(r))
        y = np.einsum("tji,tj->ti", bl, np.copysign(a ** (p - 1.0), out))
        nxt = np.copysign(np.abs(y) ** (pp - 1.0), y)
        norm = opnorm_module._lp_norms(nxt, p)
        keep = moving & (norm != 0.0)
        if not keep.all():
            gone = live[~keep]
            best[gone], best_u[gone], count[gone] = lbest[~keep], lbest_u[~keep], k + 1
            broke[gone] = ~np.isfinite(r[~keep])
            live, bl, r, nxt, norm, lbest, lbest_u = (
                x[keep] for x in (live, bl, r, nxt, norm, lbest, lbest_u))
        prev, ul = r, nxt / norm[:, None]
    best[live], best_u[live] = lbest, lbest_u
    return best, best_u, count, broke


def overflowing_stack():
    """The live matrices and starts of a p = 1.05 norm on strength-1e300 cascades."""
    rng = np.random.default_rng(0)
    b = random_symbol(2, rng)
    mu, lam = (random_cascade_weight(2, 1e300, rng) for _ in range(2))
    job = opnorm_module.opnorm_job(lambda_matrix(b), mu, lam, 1.05)
    per = job.starts.shape[1]
    return job.live.repeat(per, axis=0), job.starts.reshape(-1, job.starts.shape[-1])


def assert_same_iteration(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def oracle_stack():
    """Trajectories ending every way the blocked iteration reads: stops at a spread of
    passes, a vanishing iterate, and two diagonals whose ratio creeps, one stopping
    inside a later block and one running to every ``max_iter`` tested."""
    rng = np.random.default_rng(70)
    m = 9
    b = rng.standard_normal((6, m, m)) * rng.exponential(size=(6, 1, m))
    b[2] = 0.0                                  # a zero matrix: its iterate vanishes at once
    b[4] = np.diag(np.arange(1.0, m + 1))       # stops within a few passes
    starts = rng.standard_normal((6, m))
    creep = [np.diag(np.r_[1.0, gap, np.linspace(0.1, 0.5, m - 2)]) for gap in (0.97, 0.999)]
    return np.concatenate([b, creep]), np.concatenate([starts, np.ones((2, m))])


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
@pytest.mark.parametrize("max_iter", [1, 3, 17, 500])
def test_one_pass_iteration_matches_compacted_oracle(p, max_iter):
    # no max_iter here is a multiple of the block: the last block is cut short
    b, starts = oracle_stack()
    got = opnorm_module._power_iteration(b, starts.copy(), p, max_iter, 1e-9)
    assert_same_iteration(got, power_iteration_compacted(b, starts.copy(), p, max_iter,
                                                         1e-9))
    count, block = got[2], opnorm_module._BLOCK
    assert got[0][2] == 0.0 and count[2] == 1
    assert count[-1] == max_iter and not got[3].any()
    if max_iter == 500:
        # some stop inside a block past the first one, others within the first
        assert ((block < count) & (count < max_iter) & (count % block != 0)).any()
        assert len(set(count)) >= 5 and (count < block).any()


@pytest.mark.parametrize("max_iter", [3, 17, 500])
def test_one_pass_iteration_matches_compacted_oracle_on_overflow(max_iter):
    b, starts = overflowing_stack()
    got = opnorm_module._power_iteration(b, starts.copy(), 1.05, max_iter, 1e-9)
    with np.errstate(all="ignore"):
        want = power_iteration_compacted(b, starts.copy(), 1.05, max_iter, 1e-9)
    assert_same_iteration(got, want)
    if max_iter == 500:
        assert got[3].any()                     # some trajectory left on a non-finite ratio


def test_one_pass_iteration_of_an_empty_stack():
    b, starts = np.zeros((0, 9, 9)), np.zeros((0, 9))
    got = opnorm_module._power_iteration(b, starts, 3.0, 500, 1e-9)
    assert_same_iteration(got, power_iteration_compacted(b, starts, 3.0, 500, 1e-9))
    assert [a.shape for a in got] == [(0,), (0, 9), (0,), (0,)]


@pytest.mark.parametrize("p", [1.05, 3.0])
def test_each_trajectory_keeps_its_bits_alone(p):
    # a trajectory stopped inside a block runs on to the block's end beside the others:
    # neither it nor they may differ from a stack of one
    b, starts = oracle_stack() if p != 1.05 else overflowing_stack()
    together = opnorm_module._power_iteration(b, starts.copy(), p, 500, 1e-9)
    for i in range(len(b)):
        alone = opnorm_module._power_iteration(b[i:i + 1], starts[i:i + 1].copy(), p, 500, 1e-9)
        assert_same_iteration([t[i:i + 1] for t in together], alone)


# ---------------------------------------------------------------------------
# warm starts only for the pairs their bracket can reach, against the
# preparation that warm-started every pair, kept here as the oracle
# ---------------------------------------------------------------------------

def lp_prepare_warming_every_pair(mats, mu, lam, p, restarts, seed=0):
    """The preparation before: every non-zero matrix warm-started and scored."""
    conjugated, lp = opnorm_module._conjugated, opnorm_module._lp_norms
    b = conjugated(mats, mu, lam, p)
    upper = opnorm_module._upper_brackets(b, p)
    rng = np.random.default_rng(seed)
    count, m = b.shape[0], b.shape[-1]
    nonzero = np.flatnonzero(b.reshape(count, -1).any(axis=1))
    per = max(2, restarts)
    if nonzero.size == 0:
        empty = np.zeros((0, per, m))
        return dict(upper=upper, nonzero=nonzero, run=np.zeros(0, bool), best=empty[..., 0],
                    best_u=empty, live=b[:0], starts=empty)
    warm = np.linalg.svd(conjugated(mats[nonzero], mu, lam, 2))[2][:, 0]
    starts = [warm, np.abs(warm)]
    starts += [np.broadcast_to(rng.standard_normal(m), warm.shape)
               for _ in range(per - len(starts))]
    starts = np.stack(starts, axis=1)
    best = np.full(starts.shape[:2], -np.inf)
    best_u = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best[:, :2] = (lp(np.einsum("tij,tsj->tsi", b[nonzero], best_u[:, :2]), p)
                   / lp(best_u[:, :2], p))
    run = upper[nonzero] * (1.0 + 1e-9) >= best[:, :2].max()
    return dict(upper=upper, nonzero=nonzero, run=run, best=best, best_u=best_u,
                live=b[nonzero[run]], starts=starts[run])


def solve_warming_every_pair(old, depth, mu, p, signs=None, max_iter=500, tol=1e-9):
    """The finish and winner before: bounds of every non-zero matrix, then the argmax."""
    per, m = old["best_u"].shape[1:]
    with np.errstate(all="ignore"):
        ran = power_iteration_compacted(old["live"].repeat(per, axis=0),
                                        old["starts"].reshape(-1, m), p, max_iter, tol)
    count = len(old["upper"])
    values, iterations = np.zeros(count), np.zeros(count, dtype=int)
    converged = np.ones(count, dtype=bool)
    best, best_u, nonzero, run = old["best"], old["best_u"], old["nonzero"], old["run"]
    best[run], best_u[run], its, broke = (a.reshape(-1, per, *a.shape[1:]) for a in ran)
    pick = np.argmax(best, axis=1)
    values[nonzero] = best[np.arange(nonzero.size), pick]
    iterations[nonzero[run]] = its.sum(axis=1)
    converged[nonzero[run]] = (its < max_iter).all(axis=1)
    assert not (values > old["upper"] * (1.0 + 1e-9)).any()
    idx = int(values.argmax())
    unit = None
    if nonzero.size:
        row = int(np.flatnonzero(nonzero == idx)[0])
        u = best_u[row, pick[row]]
        unit = u / opnorm_module._lp_norms(u, p)
    witness = None
    if unit is not None:
        n = 1 << mu.depth
        f = unit / (mu.values.ravel() * 4.0 ** (-mu.depth)) ** (1.0 / p)
        witness = GridFunction2D(mu.depth, f.reshape(n, n))
    res = opnorm_module.OpNormResult(float(values[idx]), "lower_bound", int(iterations[idx]),
                                     witness, upper_bound=float(old["upper"][idx]),
                                     pruned=int(nonzero.size - run.sum()))
    res.converged = bool(converged[idx]) and not broke.any()
    if signs is not None:
        res.iterations = int(np.maximum(1, iterations).sum())
        res.sign_pair = tuple(SignChoice1D(depth, s[idx]) for s in signs)
    return res


def assert_same_stack(new, old):
    """Same iterated set, pruned count, live matrices and starts, bit for bit."""
    assert new.run.dtype.kind == "i" and new.nonzero == old["nonzero"].size
    np.testing.assert_array_equal(new.run, old["nonzero"][old["run"]])
    for got, want in ((new.live, old["live"]), (new.starts, old["starts"])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_bits(got, want):
    assert_same_result(got, want)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    if want.witness is not None:
        assert got.witness.values.tobytes() == want.witness.values.tobytes()


def exhaustive_rows(depth):
    """The sign pairs of an exhaustive walk: one per class, slot-1 signs +1."""
    rows = axis_sign_rows(depth)
    rows = rows[rows[:, 1] > 0]
    return np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))


def supremum_cases():
    """Sign-supremum stacks at depths 1-2, exhaustive and sampled, weighted and not."""
    rng = np.random.default_rng(60)
    for depth, delta, mode in itertools.product((1, 2), (0.0, 0.6), ("exhaustive", "sampled")):
        b = random_symbol(depth, rng)
        mu = random_cascade_weight(depth, delta, rng)
        lam = random_cascade_weight(depth, delta, rng)
        if mode == "exhaustive":
            sx, sy = exhaustive_rows(depth)
        else:
            draws = np.random.default_rng(9)
            sampled = [SignChoice1D.random(depth, draws).signs for _ in range(2 * 12)]
            sx, sy = np.array(sampled[0::2]), np.array(sampled[1::2])
        yield b, mu, lam, mode, sx, sy


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
def test_reachable_warm_starts_match_warming_every_pair(p, monkeypatch):
    real_warm, rows = opnorm_module._warm_starts, []
    monkeypatch.setattr(opnorm_module, "_warm_starts",
                        lambda *args: rows.append(len(args[2])) or real_warm(*args))
    warmed = nonzero = 0
    for b, mu, lam, mode, sx, sy in supremum_cases():
        mats = commutator_matrices(b, sx, sy)
        rows.clear()
        new = opnorm_module._lp_prepare(mats, mu, lam, p)
        old = lp_prepare_warming_every_pair(mats, mu, lam, p, 2)
        assert_same_stack(new, old)
        warmed, nonzero = warmed + sum(rows), nonzero + new.nonzero
        got = sup_commutator_norm(b, mu, lam, p, mode=mode, trials=12, seed=9)
        assert_same_bits(got, solve_warming_every_pair(old, b.depth, mu, p, (sx, sy)))
    assert warmed < nonzero                     # some pairs were never warm-started


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 8.0])
def test_reachable_warm_starts_on_edge_stacks(p, monkeypatch):
    rng = np.random.default_rng(61)
    b = random_symbol(2, rng)
    mu = random_cascade_weight(2, 0.6, rng)
    lam = random_cascade_weight(2, 0.6, rng)
    # one matrix with random starts takes exactly one warm-start SVD
    mat = materialize(lambda_operator(b), 2)
    extra = np.random.default_rng(4).standard_normal((4, 16))
    real_svd, warm_svds = np.linalg.svd, []

    def counted_svd(a, *args, compute_uv=True, **kwargs):
        if compute_uv:
            warm_svds.append(len(a))
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    new = opnorm_module._lp_prepare(mat[None], mu, lam, p, extra)
    monkeypatch.undo()
    assert warm_svds == [1]
    old = lp_prepare_warming_every_pair(mat[None], mu, lam, p, 6, 4)
    assert_same_stack(new, old)
    assert_same_bits(opnorm_module.solve([new])[0], solve_warming_every_pair(old, 2, mu, p))
    # the fixed policy of one matrix: two draws of seed 0 after the warm starts
    old = lp_prepare_warming_every_pair(mat[None], mu, lam, p, 4, 0)
    assert_same_stack(opnorm_module.opnorm_job(mat, mu, lam, p), old)
    assert_same_bits(opnorm(mat, mu, lam, p), solve_warming_every_pair(old, 2, mu, p))
    # an all-zero stack
    signs = exhaustive_rows(2)
    zero = commutator_matrices(GridFunction2D.zeros(2), *signs)
    new = opnorm_module._lp_prepare(zero, mu, lam, p)
    old = lp_prepare_warming_every_pair(zero, mu, lam, p, 2)
    assert_same_stack(new, old)
    assert_same_bits(sup_commutator_norm(GridFunction2D.zeros(2), mu, lam, p),
                     solve_warming_every_pair(old, 2, mu, p, signs))
    # two pairs tie for the highest bracket: negating one axis negates the commutator
    sx, sy = axis_sign_rows(2)[:5], axis_sign_rows(2)[3:]
    mats = commutator_matrices(b, sx, sy)
    top = int(np.argmax(opnorm_module._upper_brackets(
        opnorm_module._conjugated(mats, mu, lam, p), p)))
    mats = np.concatenate([mats[:2], -mats[top:top + 1], mats[2:]])
    signs = (np.concatenate([sx[:2], -sx[top:top + 1], sx[2:]]),
             np.concatenate([sy[:2], sy[top:top + 1], sy[2:]]))
    new = opnorm_module._lp_prepare(mats, mu, lam, p)
    assert new.upper[2] == new.upper.max() == new.upper[top + (top >= 2)]
    old = lp_prepare_warming_every_pair(mats, mu, lam, p, 2)
    assert_same_stack(new, old)
    new.signs = signs
    [res] = opnorm_module.solve([new])
    assert_same_bits(res, solve_warming_every_pair(old, 2, mu, p, signs))
