import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from haarbloom import experiments
from haarbloom.cli import main
from haarbloom.dyadic import random_grid
from haarbloom.experiments import (
    COMMANDS,
    CSV_HEADER,
    ExperimentConfig,
    IDENTITY_TOL,
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
from haarbloom.operators import SignChoice1D, axis_sign_rows, iterated_commutator


def test_identity_suite_all_small():
    gaps = identity_gap_suite(2, np.random.default_rng(0))
    assert set(gaps) == {
        "round_trip", "plancherel", "partial_sum_inclusion_exclusion",
        "lambda_two_forms", "commutator_projection_replacement",
        "commutator_multiplier_replacement", "one_parameter_annihilation",
        "restricted_projection_recovery", "theta_single_commutator",
        "theta_annihilation", "multiplier_is_projection_sum",
        "khintchine_consistency",
    }
    assert max(gaps.values()) < IDENTITY_TOL


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
    cfg = ExperimentConfig("commutator", depth=2, p_values=(2.0,), deltas=(0.0,),
                           trials=3, seed=6)
    rep, recs = run_commutator(cfg)
    assert rep["pass"] is True
    for r in recs:
        assert r.left <= 4.0 * r.mid * (1 + 1e-9)     # ratio_lm stays below 4
        assert np.isfinite(r.ratio_lr)
    combo = rep["combos"][0]
    assert 0.0 <= combo["zero_sign_spotcheck_max_ratio"] <= 1.0 + 1e-9
    assert combo["ratio_lm"]["max"] <= 4.0


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
    for bad in (1.0, 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig("jn", p_values=(2.0, bad))
    for bad in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig("jn", deltas=(0.0, bad))
    with pytest.raises(ValueError):
        ExperimentConfig("identities", depth=4)


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
])
def test_cli_refuses_bad_values(argv, monkeypatch, capsys):
    def boom(cfg):
        raise AssertionError("a trial ran")
    monkeypatch.setitem(COMMANDS, argv[0], boom)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_cli_installed_entry_point(tmp_path):
    # end to end through a real process, the way a user runs it
    proc = subprocess.run(
        [sys.executable, "-m", "haarbloom.cli", "khintchine", "--trials", "3",
         "--seed", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["pass"] is True and rep["config"]["command"] == "khintchine"
