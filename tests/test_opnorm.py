import importlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haarbloom.dyadic import GridFunction2D, random_grid, random_symbol
from haarbloom.norms import lp_weighted_norm
from haarbloom.operators import (
    OperatorMatrix,
    SignChoice1D,
    axis_sign_rows,
    commutator_matrices,
    lambda_operator,
    materialize,
    multiplication_operator,
    iterated_commutator,
)
from haarbloom.opnorm import (
    opnorm,
    opnorm_lp_lower,
    opnorm_p2_exact,
    opnorm_upper_bracket,
    sup_commutator_norm,
    weighted_p_matrix,
)
from haarbloom.weights import Weight, constant_weight, random_cascade_weight

# the package re-exports the function ``opnorm`` under the module's name
opnorm_module = importlib.import_module("haarbloom.opnorm")


def inverse_weight(w, role="generic"):
    return Weight(GridFunction2D(w.depth, 1.0 / w.values), role)


def test_multiplication_norm_is_sup_norm():
    g = random_grid(2, 1)
    mat = materialize(multiplication_operator(g), 2)
    res = opnorm_p2_exact(mat, constant_weight(2), constant_weight(2))
    assert res.value == pytest.approx(np.abs(g.values).max(), rel=1e-12)
    assert res.kind == "exact" and res.iterations == 0


def test_identity_norm_between_weights():
    mu = random_cascade_weight(2, 0.7, 2)
    lam = random_cascade_weight(2, 0.7, 3)
    ident = OperatorMatrix(2, np.eye(16))
    res = opnorm_p2_exact(ident, mu, lam)
    assert res.value == pytest.approx(np.sqrt(lam.values / mu.values).max(), rel=1e-12)


def test_witness_attains_the_value():
    b = random_symbol(2, 4)
    mu = random_cascade_weight(2, 0.5, 5)
    lam = random_cascade_weight(2, 0.5, 6)
    mat = materialize(lambda_operator(b), 2)
    res = opnorm_p2_exact(mat, mu, lam)
    ratio = lp_weighted_norm(mat.apply(res.witness), lam, 2) / lp_weighted_norm(res.witness, mu, 2)
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
        lower = opnorm_lp_lower(mat, mu, lam, 2.0)
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
    assert opnorm_upper_bracket(mat, mu, lam, 2) >= exact * (1 - 1e-12)
    for p in (1.5, 3.0):
        res = opnorm_lp_lower(mat, mu, lam, p)
        assert res.value <= res.upper_bound * (1 + 1e-9)
        got = (lp_weighted_norm(mat.apply(res.witness), lam, p)
               / lp_weighted_norm(res.witness, mu, p))
        assert got == pytest.approx(res.value, rel=1e-8)


def test_opnorm_dispatch():
    b = random_symbol(2, 11)
    mat = materialize(lambda_operator(b), 2)
    one = constant_weight(2)
    assert opnorm(mat, one, one, 2).kind == "exact"
    assert opnorm(mat, one, one, 1.5).kind == "lower_bound"


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
    bmat = weighted_p_matrix(mat, mu, lam, 2)
    dual = weighted_p_matrix(mat.transpose(), inverse_weight(lam), inverse_weight(mu), 2)
    np.testing.assert_allclose(dual, bmat.T, rtol=1e-12)


def test_zero_operator():
    zero = OperatorMatrix(1, np.zeros((4, 4)))
    one = constant_weight(1)
    assert opnorm_p2_exact(zero, one, one).value == 0.0
    res = opnorm_lp_lower(zero, one, one, 1.5)
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


def test_sampled_mode_is_monotone_prefix():
    b = random_symbol(2, 18)
    one = constant_weight(2)
    short = sup_commutator_norm(b, one, one, 2, mode="sampled", trials=4, seed=5)
    long = sup_commutator_norm(b, one, one, 2, mode="sampled", trials=16, seed=5)
    full = sup_commutator_norm(b, one, one, 2, mode="exhaustive")
    assert short.value <= long.value * (1 + 1e-12)
    assert long.value <= full.value * (1 + 1e-12)
    assert short.kind == "lower_bound"


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
    d = res.as_dict(witness_csv_path="w.csv")
    assert d["witness_csv_path"] == "w.csv"


def test_validation():
    b = random_symbol(3, 21)
    one3 = constant_weight(3)
    with pytest.raises(ValueError):
        sup_commutator_norm(b, one3, one3, 2, mode="exhaustive")
    with pytest.raises(ValueError):
        sup_commutator_norm(b, one3, one3, 2, mode="annealed")
    mat = OperatorMatrix(1, np.eye(4))
    one = constant_weight(1)
    with pytest.raises(ValueError):
        weighted_p_matrix(mat, one, one, 0.5)
    with pytest.raises(ValueError):
        opnorm_lp_lower(mat, one, one, 1.0)
    with pytest.raises(ValueError):
        weighted_p_matrix(mat, constant_weight(2), one, 2)


def per_pair_supremum(b, mu, lam, p, restarts=2):
    """The sign supremum one pair at a time, through the literal commutator."""
    rows = axis_sign_rows(b.depth)
    best, total = None, 0
    for rx, ry in itertools.product(rows, repeat=2):
        sx, sy = SignChoice1D(b.depth, rx), SignChoice1D(b.depth, ry)
        mat = materialize(lambda f: iterated_commutator(b, f, sx, sy), b.depth)
        if p == 2:
            res = opnorm_p2_exact(mat, mu, lam)
        else:
            res = opnorm_lp_lower(mat, mu, lam, p, restarts=restarts)
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
        got = (lp_weighted_norm(mat.apply(res.witness), lam, p)
               / lp_weighted_norm(res.witness, mu, p))
        assert got == pytest.approx(res.value, rel=1e-8)


def test_sampled_mode_draws_like_sequential_sign_choices():
    # run_commutator draws its spot check from the same generator afterwards
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
        opnorm_lp_lower(mat, one, one, 3.0)
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
    """The iteration before compaction: gathers b[live] and u[live] on every pass."""
    lp = opnorm_module._lp_norms
    pp = p / (p - 1.0)
    u = starts / np.linalg.norm(starts, axis=-1, keepdims=True)
    best = np.full(len(b), -np.inf)
    best_u = u.copy()
    count = np.zeros(len(b), dtype=int)
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
        live, bl, out = live[moving], bl[moving], out[moving]
        prev[live] = r[moving]
        y = np.einsum("tji,tj->ti", bl, np.sign(out) * np.abs(out) ** (p - 1.0))
        nxt = np.sign(y) * np.abs(y) ** (pp - 1.0)
        norm = lp(nxt, p)
        alive = norm != 0.0
        live = live[alive]
        u[live] = nxt[alive] / norm[alive, None]
    return best, best_u, count


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
    """The sign supremum one pair per ``_lp_lower_stack`` call: nothing to prune."""
    mats = commutator_matrices(b, sx, sy)
    best = None
    for i in range(len(mats)):
        values, units, its, upper, pruned = opnorm_module._lp_lower_stack(
            mats[i:i + 1], b.depth, mu, lam, p, 2)
        assert pruned == 0
        if best is None or values[0] > best.value:
            best = opnorm_module._lp_result(b.depth, mu, p, values[0], units[0], its[0],
                                            upper[0], pruned)
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
    for p in (1.3, 4.0):
        for max_iter in (3, 500):
            got = opnorm_module._power_iteration(b, starts.copy(), p, max_iter, 1e-9)
            want = power_iteration_gathering(b, starts.copy(), p, max_iter, 1e-9)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            if max_iter == 500:
                assert len(set(got[2])) >= 4 and got[2][3] == 1 and got[0][3] == 0.0


def test_as_dict_reports_the_bracket_and_pruning():
    b = random_symbol(2, 43)
    one = constant_weight(2)
    res = sup_commutator_norm(b, one, one, 3.0)
    d = res.as_dict()
    assert d["upper_bound"] == res.upper_bound >= res.value
    assert d["pruned"] == res.pruned > 0
    assert res.iterations >= 16


ESCAPE_ALL_PRUNED = """
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


def test_bracket_escape_raises_when_every_pair_is_pruned(monkeypatch):
    b = random_symbol(2, 33)
    one = constant_weight(2)
    real_upper, real_iteration = opnorm_module._upper_brackets, opnorm_module._power_iteration
    iterated = []
    monkeypatch.setattr(opnorm_module, "_upper_brackets", lambda m, p: 0.5 * real_upper(m, p))
    monkeypatch.setattr(opnorm_module, "_power_iteration",
                        lambda m, *rest: iterated.append(len(m)) or real_iteration(m, *rest))
    for p in (1.5, 3.0):
        with pytest.raises(RuntimeError, match="escaped the bracket"):
            sup_commutator_norm(b, one, one, p)
    assert iterated == [0, 0]                   # the halved bracket pruned every pair


def test_pruning_and_escape_guards_survive_optimize_flag():
    # python -O strips assert statements; both guards must still fire
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", ESCAPE_ALL_PRUNED],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[0] lower bound") and "escaped the bracket" in proc.stdout
