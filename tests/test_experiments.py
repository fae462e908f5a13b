import dataclasses
import importlib
import itertools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from haarbloom import cli, experiments, norms
from haarbloom import dyadic as dy, operators as ops
from haarbloom.cli import build_parser, main
from haarbloom.dyadic import GridFunction2D, indicator, random_grid, random_symbol
from haarbloom.experiments import (
    COMMANDS,
    CSV_HEADER,
    ExperimentConfig,
    IDENTITY_TOL,
    READS,
    RatioRecord,
    identity_gap_suite,
    rademacher_moment_exhaustive,
    rademacher_moment_mc,
    run_commutator,
    run_identities,
    run_jn,
    run_khintchine,
    run_paraproduct,
    write_records_csv,
    _sign_pair_square_norms,
)
from haarbloom.norms import (
    STRATEGIES,
    bmo_prod_one_weight,
    bmo_prod_two_weight,
    little_bmo,
    lp_weighted_norm,
)
from haarbloom.operators import (
    SignChoice1D,
    axis_sign_rows,
    commutator_matrices,
    iterated_commutator,
    lambda_matrix,
    paraproduct_matrix,
)
from haarbloom.opnorm import MODES, NormJob, opnorm, sup_commutator_norm
from haarbloom.weights import ap_characteristic, bloom_weight, constant_weight

opnorm_module = importlib.import_module("haarbloom.opnorm")     # the package binds the function


def test_identity_suite_all_small():
    gaps = identity_gap_suite(2, np.random.default_rng(0))
    # the order too: tools/report_digest.py hashes the gaps in dict order
    assert list(gaps) == [
        "round_trip", "plancherel", "partial_sum_inclusion_exclusion",
        "lambda_two_forms", "commutator_projection_replacement",
        "commutator_multiplier_replacement", "one_parameter_annihilation",
        "restricted_projection_recovery", "theta_single_commutator",
        "theta_annihilation", "multiplier_is_projection_sum",
        "khintchine_consistency",
    ]
    assert max(gaps.values()) < IDENTITY_TOL


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_identity_suite_builds_m_b_once_and_walks_each_index_set_once(depth, monkeypatch):
    calls = {}

    def counted(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(experiments, name, wrapper)
    for name in ("multiplication_operator", "cancellative_rectangles", "slot_interval"):
        counted(name)
    identity_gap_suite(depth, np.random.default_rng(depth))
    # each slot is resolved once, for the slot walk and the walk of slot pairs
    assert calls == {"multiplication_operator": 1, "cancellative_rectangles": 1,
                     "slot_interval": 2 ** depth - 1}


@pytest.mark.parametrize("depth, lambdas, thetas", [(1, 9, 4), (2, 21, 20), (3, 69, 100)])
def test_identity_suite_runs_each_closure_once_per_input(depth, lambdas, thetas, monkeypatch):
    # both sides of a replacement share the images of M_b, Lambda_b, Theta_b and the
    # projections, so Lambda_b sees each distinct input once and b is copied twice
    applied = {"lambda_operator": [], "theta_operator": []}
    for name, seen in applied.items():
        def counted(b, real=getattr(experiments, name), seen=seen):
            op = real(b)
            return lambda g: seen.append(g) or op(g)
        monkeypatch.setattr(experiments, name, counted)
    snapshots, real_snapshot = [], ops._snapshot
    monkeypatch.setattr(ops, "_snapshot", lambda b: snapshots.append(b) or real_snapshot(b))
    identity_gap_suite(depth, np.random.default_rng(depth))
    assert len(applied["lambda_operator"]) <= lambdas
    assert len(applied["theta_operator"]) <= thetas
    for seen in applied.values():
        assert len({id(g) for g in seen}) == len(seen)
    assert len(snapshots) == 2


def reference_identity_gap_suite(depth, rng):
    """Oracle: the identity suite walked per identity, with M_b built per rectangle, three
    walks of the rectangles and two of the slots; the same draws and the same gap order."""
    gaps = {}
    b = dy.random_grid(depth, rng)
    f_any = dy.random_grid(depth, rng)
    f_cc = dy.random_symbol(depth, rng)
    n = 1 << depth
    back = dy.haar_inverse(dy.haar_forward(f_any))
    gaps["round_trip"] = (back - f_any).max_abs()
    coeffs = dy.haar_forward(f_any)
    gaps["plancherel"] = abs(coeffs.energy() - (f_any * f_any).integral())
    lx, ly = int(rng.integers(0, depth + 1)), int(rng.integers(0, depth + 1))
    rect = dy.DyadicRectangle(dy.DyadicInterval(lx, int(rng.integers(0, 1 << lx))),
                              dy.DyadicInterval(ly, int(rng.integers(0, 1 << ly))))
    box = rect.cell_box(depth)
    expect = np.zeros_like(b.values)
    blk = b.values[box]
    expect[box] = (blk - blk.mean(axis=0, keepdims=True)
                   - blk.mean(axis=1, keepdims=True) + blk.mean())
    gaps["partial_sum_inclusion_exclusion"] = float(
        np.abs(dy.partial_haar_sum(b, rect).values - expect).max())
    second = GridFunction2D.zeros(depth)
    fcoeffs = dy.haar_forward(f_cc)
    for r in dy.cancellative_rectangles(depth):
        second = (second + dy.partial_haar_sum(b, r) * dy.haar_function(r, depth)
                  * fcoeffs.coefficient(r))
    lam_op = ops.lambda_operator(b)
    gaps["lambda_two_forms"] = (lam_op(f_cc) - second).max_abs()
    worst = 0.0
    projection_square_sum = 0.0
    for p in range(1, n):
        for q in range(1, n):
            ix, jy = dy.slot_interval(p), dy.slot_interval(q)
            got = ops.iterated_projection_commutator(b, f_any, ix, jy)
            via = ops.nested_commutator_apply(
                lambda g: dy.haar_project_x(g, ix), lambda g: dy.haar_project_y(g, jy),
                lam_op, f_any)
            worst = max(worst, (got - via).max_abs())
            projection_square_sum += (got * got).integral()
    gaps["commutator_projection_replacement"] = worst
    sx, sy = SignChoice1D.random(depth, rng), SignChoice1D.random(depth, rng)
    got = iterated_commutator(b, f_any, sx, sy)
    via = ops.nested_commutator_apply(ops.multiplier_operator_x(sx),
                                      ops.multiplier_operator_y(sy), lam_op, f_any)
    gaps["commutator_multiplier_replacement"] = (got - via).max_abs()
    worst = 0.0
    for p in range(1, n):
        iv = dy.slot_interval(p)
        worst = max(worst, dy.haar_project_x(lam_op(dy.haar_project_x(f_any, iv)), iv).max_abs())
        worst = max(worst, dy.haar_project_y(lam_op(dy.haar_project_y(f_any, iv)), iv).max_abs())
    gaps["one_parameter_annihilation"] = worst
    mask = rng.random((n, n)) < 0.5
    if not mask.any():
        mask[0, 0] = True
    omega = dy.Shadow(mask)
    left = ops.restricted_projection(b, omega)
    right = ops.restricted_projection(lam_op(indicator(omega)), omega)
    gaps["restricted_projection_recovery"] = (left - right).max_abs()
    th = ops.theta_operator(b)
    worst = 0.0
    for r in dy.cancellative_rectangles(depth):
        qr = lambda g, r=r: dy.haar_project(g, r)
        worst = max(worst, (ops.commutator_apply(qr, ops.multiplication_operator(b), f_cc)
                            - ops.commutator_apply(qr, th, f_cc)).max_abs())
    sigma = ops.SignChoice2D.random(depth, rng)
    tm = lambda g: ops.haar_multiplier(g, sigma)
    worst = max(worst, (ops.commutator_apply(tm, ops.multiplication_operator(b), f_cc)
                        - ops.commutator_apply(tm, th, f_cc)).max_abs())
    gaps["theta_single_commutator"] = worst
    worst = 0.0
    for r in dy.cancellative_rectangles(depth):
        worst = max(worst, dy.haar_project(th(dy.haar_project(f_any, r)), r).max_abs())
    gaps["theta_annihilation"] = worst
    total = GridFunction2D.zeros(depth)
    for p in range(1, n):
        iv = dy.slot_interval(p)
        total = total + dy.haar_project_x(f_any, iv) * sx.sign(iv)
    gaps["multiplier_is_projection_sum"] = (ops.haar_multiplier_x(f_any, sx) - total).max_abs()
    lhs = float(_sign_pair_square_norms(b, f_any).mean())
    gaps["khintchine_consistency"] = abs(lhs - projection_square_sum)
    return gaps


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_identity_suite_matches_the_walk_per_identity_bit_for_bit(depth):
    for draw in range(4 if depth < 3 else 2):
        got = identity_gap_suite(depth, np.random.default_rng([depth, draw, 90]))
        want = reference_identity_gap_suite(depth, np.random.default_rng([depth, draw, 90]))
        assert [(k, repr(v)) for k, v in got.items()] == [(k, repr(v)) for k, v in want.items()]


def test_sign_pair_square_norms_match_the_literal_walk():
    rng = np.random.default_rng(3)
    for depth in (1, 2):
        b, f = random_grid(depth, rng), random_grid(depth, rng)
        got = _sign_pair_square_norms(b, f)
        rows = axis_sign_rows(depth)
        assert got.shape == (len(rows), len(rows))
        for i, j in itertools.product(range(len(rows)), repeat=2):
            g = iterated_commutator(b, f, SignChoice1D(depth, rows[i]),
                                    SignChoice1D(depth, rows[j]))
            assert got[i, j] == pytest.approx((g * g).integral(), rel=1e-12, abs=0.0)


def sign_pair_square_norms_per_row(b, f):
    """Oracle: one commutator stack per x-axis sign row, applied to ``f``."""
    rows = axis_sign_rows(b.depth)
    fv = f.values.ravel()
    out = np.empty((len(rows), len(rows)))
    for i, sx in enumerate(rows):
        g = commutator_matrices(b, np.broadcast_to(sx, rows.shape), rows) @ fv
        out[i] = (g * g).mean(axis=1)
    return out


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bilinear_sign_average_matches_the_per_row_stacks(depth):
    rng = np.random.default_rng(60 + depth)
    for _ in range(2):
        b, f = random_grid(depth, rng), random_grid(depth, rng)
        got = _sign_pair_square_norms(b, f)
        want = sign_pair_square_norms_per_row(b, f)
        assert got.shape == want.shape == (2 ** (2 ** depth - 1),) * 2
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert got.mean() == pytest.approx(want.mean(), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sign_average_with_the_cached_path_matches_a_fresh_search(depth):
    rng = np.random.default_rng(70 + depth)
    rows = axis_sign_rows(depth)[:, 1:]
    n = 1 << depth
    unit = np.eye(n)[1:]
    for _ in range(3):
        b, f = random_grid(depth, rng), random_grid(depth, rng)
        got = _sign_pair_square_norms(b, f)
        blocks = commutator_matrices(b, np.repeat(unit, n - 1, axis=0), np.tile(unit, (n - 1, 1)))
        images = (blocks @ f.values.ravel()).reshape(n - 1, n - 1, -1)
        # optimize=True: the path searched per call
        g = np.einsum("ip,jq,pqc->ijc", rows, rows, images, optimize=True)
        want = (g * g).mean(axis=2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the identity suite averages it again: the same bits need the same order
        assert got.mean().tobytes() == want.mean().tobytes()


def test_finite_stats_median_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(5_000):
        size = int(rng.integers(1, 12))
        scale = 10.0 ** rng.integers(-3, 4)
        values = (rng.standard_normal(size) * scale).tolist()
        if rng.random() < 0.3:
            values += values[: int(rng.integers(1, size + 1))]     # ties
        if rng.random() < 0.2:
            values.append(math.inf if rng.random() < 0.5 else math.nan)
        good = [v for v in values if math.isfinite(v)]
        stats = experiments._finite_stats(values)
        assert stats["median"] == float(np.median(good))
        assert type(stats["median"]) is float
    assert experiments._finite_stats([math.nan, math.inf]) == {"count": 0}


def test_identity_suite_depth_3():
    names = set(identity_gap_suite(2, np.random.default_rng(0)))
    for seed in (0, 1, 2):
        gaps = identity_gap_suite(3, np.random.default_rng(seed))
        assert set(gaps) == names
        assert max(gaps.values()) < IDENTITY_TOL


def test_run_identities_keeps_a_nan_gap(monkeypatch, capsys):
    real = experiments.identity_gap_suite
    calls = []

    def suite(depth, rng):
        gaps = real(depth, rng)
        if not calls:                  # only the first trial: nan must survive the next
            gaps["plancherel"] = float("nan")
        calls.append(depth)
        return gaps

    monkeypatch.setattr(experiments, "identity_gap_suite", suite)
    code = main(["identities", "--depth", "2", "--trials", "2", "--seed", "1"])
    assert code == 1 and len(calls) == 2
    printed = json.loads(capsys.readouterr().out)
    assert printed["pass"] is False
    assert math.isnan(printed["max_gaps"]["plancherel"])
    assert [v.split(":")[0] for v in printed["violations"]] == ["plancherel"]


def test_run_identities_report():
    rep = run_identities(ExperimentConfig("identities", depth=2, trials=3, seed=5))
    assert rep["pass"] is True and rep["violations"] == []
    assert rep["config"]["command"] == "identities"
    assert rep["tolerance"] == IDENTITY_TOL


def test_jn_unweighted_ratio_is_one():
    cfg = ExperimentConfig("jn", depth=2, p_values=(2.0,), deltas=(0.0,), trials=4, seed=3)
    rep, recs = run_jn(cfg)
    assert rep["pass"] is True
    assert len(recs) == 4
    for r in recs:
        assert r.ratio_lr == pytest.approx(1.0, abs=1e-12)
        assert r.flag == "ok"
        assert r.ap_mu == pytest.approx(1.0) and r.a2_nu == pytest.approx(1.0)
        assert np.isnan(r.mid)


def test_jn_weighted_runs_and_rows():
    cfg = ExperimentConfig("jn", depth=2, p_values=(1.5, 3.0), deltas=(0.4,),
                           trials=2, seed=4, strategy="heuristic")
    rep, recs = run_jn(cfg)
    assert rep["pass"] is True
    assert len(recs) == 4
    assert [c["rows"] for c in rep["combos"]] == [[0, 2], [2, 4]]
    for r in recs:
        assert r.ap_mu >= 1.0 and r.ap_lambda >= 1.0 and r.a2_nu >= 1.0
        assert np.isfinite(r.ratio_lr) and r.ratio_lr > 0


def test_commutator_experiment():
    cfg = ExperimentConfig("commutator", depth=2, p_values=(2.0, 3.0), deltas=(0.0,),
                           trials=3, seed=6)
    rep, recs = run_commutator(cfg)
    assert rep["pass"] is True
    for r in recs[:3]:
        assert r.left <= 4.0 * r.mid * (1 + 1e-9)     # ratio_lm stays below 4
    assert all(np.isfinite(r.ratio_lr) for r in recs)
    at_2, _ = rep["combos"]
    assert at_2["ratio_lm"]["max"] <= 4.0
    for combo in rep["combos"]:
        assert set(combo) == {"p", "delta", "rows", "ratio_lr", "ratio_lm"}


def test_commutator_sampled_mode():
    cfg = ExperimentConfig("commutator", depth=2, p_values=(2.0,), deltas=(0.3,),
                           trials=2, seed=7, mode="sampled")
    rep, recs = run_commutator(cfg)
    assert rep["pass"] is True             # the constant-4 check is exhaustive-only
    assert len(recs) == 2


def test_paraproduct_experiment():
    cfg = ExperimentConfig("paraproduct", depth=2, p_values=(2.0,), deltas=(0.0, 0.4),
                           trials=3, seed=8)
    rep, recs = run_paraproduct(cfg)
    assert rep["pass"] is True
    unweighted = recs[:3]
    for r in unweighted:
        assert r.left >= r.right * (1 - 1e-9)         # testing direction at p=2, delta=0
    for combo in rep["combos"]:
        assert combo["testing_ratio"]["max"] <= 1.0 + 1e-9


def test_khintchine_frozen_moments():
    # 2x2 identity: the bilinear average is -2, 0, or 2 with mass 1/4, 1/2,
    # 1/4, so the second moment is 2 and the fourth is 8
    eye = np.eye(2)
    assert rademacher_moment_exhaustive(eye, 2) == pytest.approx(2.0, abs=1e-15)
    assert rademacher_moment_exhaustive(eye, 4) == pytest.approx(8.0, abs=1e-14)
    a = np.array([[3.0]])
    for q in (1, 2, 4):
        assert rademacher_moment_exhaustive(a, q) == pytest.approx(3.0 ** q)
    with pytest.raises(ValueError):
        rademacher_moment_exhaustive(np.ones((5, 2)), 2)


def test_khintchine_mc_agrees():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4))
    exact = rademacher_moment_exhaustive(a, 4)
    mc, se = rademacher_moment_mc(a, 4, 40000, rng)
    assert abs(mc - exact) <= 4 * se
    # deterministic average: zero variance, exact agreement
    mc1, se1 = rademacher_moment_mc(np.array([[2.0]]), 4, 100, rng)
    assert se1 == 0.0 and mc1 == pytest.approx(16.0)


def test_run_khintchine():
    rep, recs = run_khintchine(ExperimentConfig("khintchine", trials=20, seed=2))
    assert rep["pass"] is True
    for r in recs:
        assert r.ratio_lr == pytest.approx(1.0, abs=1e-13)   # m2 / frobenius^2
        assert 1.0 - 1e-12 <= r.ratio_lm <= 9.0              # normalized fourth moment
        assert np.isnan(r.ap_mu)


def test_reports_are_deterministic():
    cfg = lambda: ExperimentConfig("jn", depth=2, p_values=(2.0,), deltas=(0.2,),
                                   trials=3, seed=11)
    rep1, recs1 = run_jn(cfg())
    rep2, recs2 = run_jn(cfg())
    assert rep1 == rep2
    assert [r.to_csv_row() for r in recs1] == [r.to_csv_row() for r in recs2]


def test_csv_schema(tmp_path):
    rec = RatioRecord(0, 1.0, 1.5, 1.2, 2.0, 1.9, float("nan"), 2.0 / 1.9, float("nan"), "ok")
    path = tmp_path / "out.csv"
    write_records_csv([rec], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == "trial,ap_mu,ap_lambda,a2_nu,left,right,mid,ratio_lr,ratio_lm,flag"
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[-1] == "ok"
    assert fields[6] == "nan"
    # numeric columns parse back exactly
    back = np.genfromtxt(path, delimiter=",", skip_header=1, usecols=range(9))
    assert back[1] == 1.0 and back[3] == 1.2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("jn", depth=0)
    with pytest.raises(ValueError):
        ExperimentConfig("paraproduct", depth=3, strategy="exact")
    with pytest.raises(ValueError):
        ExperimentConfig("commutator", depth=3, strategy="heuristic", mode="exhaustive")
    # the limits bind only where the option is used
    ExperimentConfig("commutator", depth=3, strategy="heuristic", mode="sampled")
    ExperimentConfig("jn", depth=3, strategy="heuristic", mode="exhaustive")
    ExperimentConfig("identities", depth=3)
    with pytest.raises(ValueError):
        ExperimentConfig("jn", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig("jn", strategy="magic")
    with pytest.raises(ValueError):
        ExperimentConfig("jn", mode="magic")
    for bad in (1.0, 0.5, 1.002, 300.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig("jn", p_values=(2.0, bad))
    for bad in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig("jn", deltas=(0.0, bad))
    with pytest.raises(ValueError):
        ExperimentConfig("identities", depth=4)
    # names are checked for every command, even one that does not read the option
    with pytest.raises(ValueError, match="unknown strategy"):
        ExperimentConfig("identities", strategy="magic")
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig("khintchine", mode="magic")
    # a sweep with no combination would pass vacuously
    with pytest.raises(ValueError, match="at least one value"):
        ExperimentConfig("jn", p_values=())
    with pytest.raises(ValueError, match="at least one value"):
        ExperimentConfig("jn", deltas=())
    with pytest.raises(ValueError, match="unknown command"):
        ExperimentConfig("nosuch")


def _refusal(call):
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("module, limit, library, config", [
    (norms, "EXACT_MAX_DEPTH",
     lambda d: bmo_prod_two_weight(random_symbol(d, 1), constant_weight(d), constant_weight(d),
                                   2.0, "exact"),
     lambda d: ExperimentConfig("jn", depth=d, strategy="exact")),
    (norms, "HEURISTIC_MAX_DEPTH",
     lambda d: bmo_prod_two_weight(random_symbol(d, 1), constant_weight(d), constant_weight(d),
                                   2.0, "heuristic"),
     lambda d: ExperimentConfig("paraproduct", depth=d, strategy="heuristic")),
    (opnorm_module, "EXHAUSTIVE_MAX_DEPTH",
     lambda d: sup_commutator_norm(random_symbol(d, 1), constant_weight(d), constant_weight(d),
                                   2.0, mode="exhaustive"),
     lambda d: ExperimentConfig("commutator", depth=d, strategy="heuristic", mode="exhaustive")),
    (experiments, "IDENTITIES_MAX_DEPTH",
     lambda d: identity_gap_suite(d, np.random.default_rng(0)),
     lambda d: ExperimentConfig("identities", depth=d)),
])
def test_each_limit_has_one_source(module, limit, library, config, monkeypatch):
    # lowered in its module alone, a limit binds the library and the config alike
    depth = getattr(module, limit)
    library(depth)
    config(depth)
    monkeypatch.setattr(module, limit, depth - 1)
    message = _refusal(lambda: library(depth))
    assert f"limited to depth <= {depth - 1}" in message
    assert _refusal(lambda: config(depth)) == message


def test_identity_suite_refuses_depths_beyond_its_limit(monkeypatch):
    # patched so that a missing guard fails here instead of contracting terabytes
    def boom(*args, **kwargs):
        raise AssertionError("the suite ran")
    for name in ("random_grid", "random_symbol", "commutator_matrices"):
        monkeypatch.setattr(experiments, name, boom)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"limited to depth <= {experiments.IDENTITIES_MAX_DEPTH}"):
        identity_gap_suite(experiments.IDENTITIES_MAX_DEPTH + 1, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_config_refuses_heuristic_search_beyond_its_limit():
    ExperimentConfig("jn", depth=4, strategy="heuristic")
    for command in ("jn", "commutator", "paraproduct"):
        with pytest.raises(ValueError, match="heuristic"):
            ExperimentConfig(command, depth=5, strategy="heuristic", mode="sampled")
    # the limit binds only where a BMO search runs
    ExperimentConfig("khintchine", depth=5, strategy="heuristic")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_main_identities(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["identities", "--depth", "2", "--trials", "2", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["pass"] is True
    saved = json.loads(out.read_text())
    assert saved == printed


def test_cli_main_csv_artifact(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["jn", "--depth", "2", "--p", "2", "--delta", "0",
                 "--trials", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


def _no_constant(name):
    raise ValueError(f"non-finite value {name} printed as a number")


@pytest.mark.parametrize("command", ["commutator", "jn", "paraproduct"])
@pytest.mark.parametrize("p", ["1.05", "100"])
@pytest.mark.parametrize("delta", ["0", "40", "1e300"])
def test_cli_ratio_commands_run_clean_at_extreme_exponents_and_strengths(command, p, delta,
                                                                         capsys):
    # the cascade clamps what overflows and the power iteration reports it: nothing warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--depth", "2", "--p", p, "--delta", delta, "--trials", "1"])
    assert code == 0 and not caught, [str(w.message) for w in caught]
    json.loads(capsys.readouterr().out, parse_constant=_no_constant)


def test_cli_rejects_bad_args():
    with pytest.raises(SystemExit):
        main(["jn", "--p", "two"])
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["commutator", "--mode", "exhaustive", "--strategy", "heuristic", "--depth", "3"],
    ["commutator", "--mode", "sampled", "--strategy", "exact", "--depth", "3"],
    ["jn", "--strategy", "exact", "--depth", "3"],
])
def test_cli_refuses_unaffordable_combinations(argv, monkeypatch, capsys):
    def boom(cfg):
        raise AssertionError("a trial ran")
    monkeypatch.setitem(COMMANDS, argv[0], boom)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "limited to depth <= 2" in err


@pytest.mark.parametrize("argv", [
    ["jn", "--p", "1"],
    ["jn", "--p", "2,inf"],
    ["jn", "--delta", "-0.5"],
    ["identities", "--depth", "5"],
    ["jn", "--strategy", "heuristic", "--depth", "5"],
    ["paraproduct", "--strategy", "heuristic", "--depth", "5"],
    ["commutator", "--strategy", "heuristic", "--mode", "sampled", "--depth", "5"],
    ["commutator", "--p", "300"],
    ["commutator", "--p", "1.002"],
    ["jn", "--seed", "-1"],
    ["jn", "--out", str(Path(__file__).with_name("no-such-dir") / "rows.csv")],
    ["jn", "--out", str(Path(__file__).parent)],
    ["khintchine", "--depth", "40"],
    ["identities", "--p", "1.5", "--strategy", "heuristic"],
    ["jn", "--mode", "sampled"],
    ["paraproduct", "--mode", "exhaustive"],
    ["identities", "--delta", "0.5"],
    ["khintchine", "--strategy", "exact"],
    ["--bogus", "jn"],
])
def test_cli_refuses_bad_values(argv, monkeypatch, capsys):
    def boom(cfg):
        raise AssertionError("a trial ran")
    monkeypatch.setitem(COMMANDS, argv[0], boom)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


@pytest.mark.parametrize("argv, usage", [
    (["khintchine", "--depth", "40"], "usage: haar-bloom khintchine [-h] [--trials TRIALS]"),
    (["identities", "--p", "1.5"], "usage: haar-bloom identities [-h] [--depth DEPTH]"),
])
def test_cli_reports_an_unrecognized_option_through_its_command(argv, usage, monkeypatch,
                                                               capsys):
    monkeypatch.setitem(COMMANDS, argv[0], lambda cfg: pytest.fail("a trial ran"))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert f"haar-bloom {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err


def test_cli_reports_an_option_before_the_command_through_the_top_level(monkeypatch, capsys):
    monkeypatch.setitem(COMMANDS, "jn", lambda cfg: pytest.fail("a trial ran"))
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "jn", "--depth", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: haar-bloom [-h] {identities,jn,")
    assert "haar-bloom: error: unrecognized arguments: --bogus\n" in err


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_parses_each_call_afresh(capsys):
    argv = ["jn", "--depth", "1", "--p", "1.5", "--delta", "0.5", "--trials", "1",
            "--seed", "7", "--strategy", "heuristic"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)["config"]
    assert first == ExperimentConfig("jn", depth=1, p_values=(1.5,), deltas=(0.5,), trials=1,
                                     seed=7, strategy="heuristic").echo()
    for bad in (["commutator", "--p", "1.5", "--depth", "9"], ["khintchine", "--depth", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    # nothing of the earlier calls carries over: every other field is back at its default
    assert main(["khintchine", "--trials", "1"]) == 0
    second = json.loads(capsys.readouterr().out)["config"]
    assert second == ExperimentConfig("khintchine", trials=1).echo()


@pytest.mark.parametrize("command", sorted(READS))
def test_cli_defaults_are_the_config_defaults(command, capsys):
    assert main([command]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == ExperimentConfig(command).echo()


#: one argument list per config field, and the value it sets
FIELD_ARGS = {
    "depth": (["--depth", "1"], 1),
    "p_values": (["--p", "1.5,3"], (1.5, 3.0)),
    "deltas": (["--delta", "0.5"], (0.5,)),
    "trials": (["--trials", "1"], 1),
    "seed": (["--seed", "3"], 3),
    "strategy": (["--strategy", "heuristic"], "heuristic"),
    "mode": (["--mode", "sampled"], "sampled"),
    "out": (["--out", "rows.csv"], Path("rows.csv")),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_cli_takes_exactly_the_fields_the_command_reads(command, capsys):
    assert set(FIELD_ARGS) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"command"}
    for field, (args, value) in FIELD_ARGS.items():
        if field in READS[command]:
            got = cli._parse_config([command] + args)
            assert got == dataclasses.replace(ExperimentConfig(command), **{field: value})
            continue
        with pytest.raises(SystemExit) as exc:
            cli._parse_config([command] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: haar-bloom {command} [-h]")
        assert f"haar-bloom {command}: error: unrecognized arguments: {' '.join(args)}" in err


@pytest.mark.parametrize("flag, names", [("--strategy", STRATEGIES), ("--mode", MODES)])
def test_cli_choices_are_the_library_names(flag, names, capsys):
    with pytest.raises(SystemExit):
        main(["commutator", "-h"])
    assert f"{flag} {{{','.join(names)}}}" in capsys.readouterr().out
    for name in names:
        assert getattr(cli._parse_config(["commutator", "--depth", "1", flag, name]),
                       flag[2:]) == name


def test_cli_installed_entry_point(tmp_path):
    # end to end through a real process, the way a user runs it
    proc = subprocess.run(
        [sys.executable, "-m", "haarbloom.cli", "khintchine", "--trials", "3",
         "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["pass"] is True and rep["config"]["command"] == "khintchine"


# ---------------------------------------------------------------------------
# the sweeps solve their norms per combination; the per-trial loop is the oracle
# ---------------------------------------------------------------------------

def run_jn_per_trial(cfg):
    """``run_jn`` as one loop per combination, as it was before the shared sweep."""
    records, combos_out, violations = [], [], []
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = len(records)
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = experiments._draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            left = bmo_prod_one_weight(b, nu, cfg.strategy, seed=rng).value
            right = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng).value
            rec = RatioRecord(
                len(records), ap_characteristic(mu, p).characteristic,
                ap_characteristic(lam, p).characteristic,
                ap_characteristic(nu, 2).characteristic,
                left, right, math.nan, left / right if right > 0 else math.nan,
                math.nan, "ok" if right > 0 else "degenerate")
            if p == 2 and delta == 0 and rec.flag == "ok" and abs(rec.ratio_lr - 1.0) > 1e-12:
                violations.append(f"p=2 delta=0 trial {trial}: one- and two-weight "
                                  f"norms differ ({rec.ratio_lr})")
            records.append(rec)
        combos_out.append({"p": p, "delta": delta, "rows": [start, len(records)],
                           "ratio_lr": experiments._finite_stats(
                               [r.ratio_lr for r in records[start:]])})
    return ({"config": cfg.echo(), "combos": combos_out,
             "violations": violations, "pass": not violations}, records)


def run_commutator_per_trial(cfg):
    """``run_commutator`` with every norm finished inside its own trial."""
    records, combos_out, violations = [], [], []
    row = 0
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = row
        lr, lm = [], []
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = experiments._draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            sup = sup_commutator_norm(b, mu, lam, p, mode=cfg.mode,
                                      trials=experiments.SAMPLED_PAIRS, seed=rng)
            mid = opnorm(lambda_matrix(b), mu, lam, p).value
            right = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng).value
            if (p == 2 and delta == 0 and cfg.mode == "exhaustive"
                    and sup.value > 4.0 * mid * (1.0 + 1e-9)):
                violations.append(
                    f"p=2 delta=0 trial {trial}: supremum {sup.value} exceeds 4x {mid}")
            flag = "ok" if right > 0 else "degenerate"
            rl = sup.value / right if right > 0 else math.nan
            rm = sup.value / mid if mid > 0 else math.nan
            records.append(RatioRecord(
                row, ap_characteristic(mu, p).characteristic,
                ap_characteristic(lam, p).characteristic,
                ap_characteristic(nu, 2).characteristic,
                sup.value, right, mid, rl, rm, flag))
            lr.append(rl)
            lm.append(rm)
            row += 1
        combos_out.append({"p": p, "delta": delta, "rows": [start, row],
                           "ratio_lr": experiments._finite_stats(lr),
                           "ratio_lm": experiments._finite_stats(lm)})
    return ({"config": cfg.echo(), "combos": combos_out,
             "violations": violations, "pass": not violations}, records)


def run_paraproduct_per_trial(cfg):
    """``run_paraproduct`` with every norm finished inside its own trial."""
    records, combos_out, violations = [], [], []
    row = 0
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = row
        lr, lm, tested = [], [], []
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = experiments._draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            pi = paraproduct_matrix("11", b)
            left = opnorm(pi, mu, lam, p).value
            bmo = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng)
            right = bmo.value
            mid = little_bmo(b, mu, lam, p).value
            one_omega = indicator(bmo.witness)
            image = GridFunction2D(b.depth, (pi @ one_omega.values.ravel())
                                   .reshape(b.values.shape))
            t = lp_weighted_norm(image, lam, p) / lp_weighted_norm(one_omega, mu, p)
            if p == 2 and t > left * (1.0 + 1e-9):
                violations.append(
                    f"trial {trial}: testing-function ratio {t} above the exact norm {left}")
            if p == 2 and delta == 0 and left < right * (1.0 - 1e-9):
                violations.append(
                    f"p=2 delta=0 trial {trial}: norm {left} below the BMO norm {right}")
            flag = "ok" if right > 0 else "degenerate"
            rl = left / right if right > 0 else math.nan
            rm = left / mid if mid > 0 else math.nan
            records.append(RatioRecord(
                row, ap_characteristic(mu, p).characteristic,
                ap_characteristic(lam, p).characteristic,
                ap_characteristic(nu, 2).characteristic,
                left, right, mid, rl, rm, flag))
            lr.append(rl)
            lm.append(rm)
            tested.append(t / left if left > 0 else math.nan)
            row += 1
        combos_out.append({"p": p, "delta": delta, "rows": [start, row],
                           "ratio_lr": experiments._finite_stats(lr),
                           "ratio_lm": experiments._finite_stats(lm),
                           "testing_ratio": experiments._finite_stats(tested)})
    return ({"config": cfg.echo(), "combos": combos_out,
             "violations": violations, "pass": not violations}, records)


@pytest.mark.parametrize("budget", [experiments.PENDING_BYTES, 0])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("command", ["commutator", "paraproduct", "jn"])
def test_sweeps_match_the_per_trial_loop(command, mode, budget, monkeypatch):
    monkeypatch.setattr(experiments, "PENDING_BYTES", budget)
    real_solve = experiments.solve
    flushed = []
    monkeypatch.setattr(experiments, "solve",
                        lambda jobs: flushed.append(sum(isinstance(job, NormJob) for job in jobs))
                        or real_solve(jobs))
    cfg = ExperimentConfig(command, depth=2, p_values=(1.5, 2.0, 3.0), deltas=(0.0, 0.6),
                           trials=3, seed=5, mode=mode)
    oracle = {"commutator": run_commutator_per_trial, "jn": run_jn_per_trial,
              "paraproduct": run_paraproduct_per_trial}[command]
    report, records = COMMANDS[command](cfg)
    want_report, want_records = oracle(cfg)
    assert json.dumps(report, sort_keys=True) == json.dumps(want_report, sort_keys=True)
    assert [r.to_csv_row() for r in records] == [r.to_csv_row() for r in want_records]
    if command == "jn":
        # no jobs: one empty solve per combination
        assert flushed == [0] * 6
        return
    per_trial = 2 if command == "commutator" else 1
    # four p != 2 combinations, solved once each or flushed after every trial
    pending = [n for n in flushed if n]
    if budget:
        assert pending == [3 * per_trial] * 4
    else:
        assert pending == [per_trial] * 12


@pytest.mark.parametrize("depth", [2, 3])
def test_jn_heuristic_sweep_matches_the_per_trial_loop(depth, monkeypatch):
    # a trial's two norms share one symbol table and draw from its generator in turn,
    # the one-weight norm first: each search sees the weights and generator state it did
    searches, search = [], norms._heuristic_search

    def recording(obj, seed):
        searches.append((obj.p, obj.mu_cell.tobytes(), str(seed.bit_generator.state)))
        return search(obj, seed)

    monkeypatch.setattr(norms, "_heuristic_search", recording)
    cfg = ExperimentConfig("jn", depth=depth, p_values=(1.5, 2.0, 3.0), deltas=(0.0, 0.6),
                           trials=2, seed=8, strategy="heuristic")
    report, records = COMMANDS["jn"](cfg)
    got, searches[:] = searches[:], []
    want_report, want_records = run_jn_per_trial(cfg)
    assert len(got) == 2 * 6 * 2 and got == searches
    assert json.dumps(report, sort_keys=True) == json.dumps(want_report, sort_keys=True)
    assert [r.to_csv_row() for r in records] == [r.to_csv_row() for r in want_records]
