"""Acceptance gate: nine numbered criteria, one printed line each.

Every criterion states its own tolerance and wall-clock budget and is
exercised end to end through the public API, the way a user would drive
it.  Budgets are generous; the assertions on values are the real gate.
"""

import time

import numpy as np
import pytest

from haarbloom.dyadic import (
    GridFunction2D,
    cancellative_rectangles,
    haar_forward,
    haar_inverse,
    random_grid,
    random_symbol,
)
from haarbloom.experiments import (
    ExperimentConfig,
    rademacher_moment_exhaustive,
    run_commutator,
    run_identities,
    run_jn,
    run_paraproduct,
)
from haarbloom.norms import bmo_prod_two_weight, lp_weighted_norm, square_function
from haarbloom.operators import lambda_operator, materialize
from haarbloom.opnorm import opnorm_p2_exact, sup_commutator_norm
from haarbloom.weights import (
    Weight,
    ap_characteristic,
    average_comparability_report,
    bloom_weight,
    conjugate_weight,
    constant_weight,
    random_cascade_weight,
)

P_CYCLE = (1.5, 2.0, 3.0)


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    rep = run_identities(ExperimentConfig("identities", depth=2, trials=100, seed=2026))
    elapsed = time.perf_counter() - start
    worst = max(rep["max_gaps"].values())
    assert rep["pass"], rep["violations"]
    assert worst < 1e-11
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS identity suite: 100 draws at depth 2, "
          f"worst gap {worst:.2e} < 1e-11, {elapsed:.1f}s")


def test_criterion_2_transform_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_rt, worst_pl = 0.0, 0.0
    for depth in range(1, 7):
        for _ in range(3):
            f = random_grid(depth, rng)
            coeffs = haar_forward(f)
            back = haar_inverse(coeffs)
            worst_rt = max(worst_rt, (back - f).max_abs() / f.max_abs())
            energy, mass = coeffs.energy(), (f * f).integral()
            worst_pl = max(worst_pl, abs(energy - mass) / mass)
    elapsed = time.perf_counter() - start
    assert worst_rt < 1e-12
    assert worst_pl < 1e-12
    assert elapsed < 5.0
    print(f"\n[criterion 2] PASS round trip and energy identity, depths 1..6: "
          f"rel errors {worst_rt:.2e}, {worst_pl:.2e} < 1e-12, {elapsed:.2f}s")


def test_criterion_3_weighted_square_function_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        f = random_grid(3, rng)
        w = random_cascade_weight(3, 0.8, rng)
        lhs = lp_weighted_norm(square_function(f), w, 2) ** 2
        coeffs = haar_forward(f)
        rhs = sum(coeffs.coefficient(r) ** 2 * w.values[r.cell_box(3)].mean()
                  for r in cancellative_rectangles(3))
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-12
    print(f"\n[criterion 3] PASS weighted square-function identity: "
          f"100 pairs at depth 3, worst rel gap {worst:.2e} < 1e-12")


def test_criterion_4_bmo_heuristic_matches_exact():
    rng = np.random.default_rng(4)
    hits, slowest = 0, 0.0
    for trial in range(100):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, 0.6, rng)
        lam = random_cascade_weight(2, 0.6, rng)
        p = P_CYCLE[trial % 3]
        t0 = time.perf_counter()
        exact = bmo_prod_two_weight(b, mu, lam, p, "exact")
        slowest = max(slowest, time.perf_counter() - t0)
        heur = bmo_prod_two_weight(b, mu, lam, p, "heuristic", seed=trial)
        assert heur.value <= exact.value * (1 + 1e-12)
        if heur.value >= exact.value * (1 - 1e-12):
            hits += 1
    assert hits >= 95
    assert slowest < 60.0
    print(f"\n[criterion 4] PASS BMO searches: heuristic never above exact, "
          f"equal in {hits}/100 trials, slowest exhaustive search {slowest * 1000:.0f}ms")


def test_criterion_5_commutator_constant_four():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    one = constant_weight(2)
    worst = 0.0
    for _ in range(100):
        b = random_symbol(2, rng)
        sup = sup_commutator_norm(b, one, one, 2, mode="exhaustive")
        assert sup.kind == "exact"
        lam_norm = opnorm_p2_exact(materialize(lambda_operator(b), 2), one, one).value
        assert sup.value <= 4.0 * lam_norm * (1 + 1e-9)
        worst = max(worst, sup.value / (4.0 * lam_norm))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[criterion 5] PASS sign supremum vs paraproduct sum: 100/100 symbols "
          f"below 4x, largest fraction of the bound {worst:.3f}, {elapsed:.0f}s")


def test_criterion_6_second_moment_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((n1, n2))
        frob2 = float((a * a).sum())
        m2 = rademacher_moment_exhaustive(a, 2)
        worst = max(worst, abs(m2 - frob2) / max(1.0, frob2))
    assert worst < 1e-14
    print(f"\n[criterion 6] PASS exhaustive second moment equals the square sum: "
          f"100 matrices up to 4x4, worst rel gap {worst:.2e} < 1e-14")


def test_criterion_7_weight_calculus():
    rng = np.random.default_rng(7)
    worst_conj = 0.0
    for trial in range(100):
        depth = (2, 3)[trial % 2]
        p = P_CYCLE[trial % 3]
        pp = p / (p - 1.0)
        strength = (0.3, 0.6, 0.9)[trial % 3]
        mu = random_cascade_weight(depth, strength, rng)
        lam = random_cascade_weight(depth, strength, rng)
        for w in (mu, lam):
            rep = ap_characteristic(w, p)
            assert rep.characteristic >= 1.0
            dual = ap_characteristic(conjugate_weight(w, p), pp).characteristic
            rel = abs(dual - rep.characteristic ** (pp - 1.0)) / dual
            worst_conj = max(worst_conj, rel)
        nu = bloom_weight(mu, lam, p)   # asserts its bracket internally
        a2 = ap_characteristic(nu, 2).characteristic
        cap = (ap_characteristic(mu, p).characteristic
               * ap_characteristic(lam, p).characteristic) ** (1.0 / p)
        assert 1.0 - 1e-12 <= a2 <= cap * (1 + 1e-9)
        average_comparability_report(mu, p)         # asserts the average chain
    assert worst_conj < 1e-10
    print(f"\n[criterion 7] PASS weight calculus: 100 pairs, characteristics >= 1, "
          f"conjugation identity to {worst_conj:.2e} < 1e-10, intermediate brackets hold")


def test_criterion_8_ratio_experiments():
    start = time.perf_counter()
    kwargs = dict(depth=2, p_values=(1.5, 2.0, 3.0), deltas=(0.0, 0.25, 0.5),
                  trials=50, seed=2026)
    jn_rep, jn_recs = run_jn(ExperimentConfig("jn", **kwargs))
    assert jn_rep["pass"], jn_rep["violations"]
    comm_rep, comm_recs = run_commutator(ExperimentConfig("commutator", **kwargs))
    assert comm_rep["pass"], comm_rep["violations"]
    para_rep, para_recs = run_paraproduct(ExperimentConfig("paraproduct", **kwargs))
    assert para_rep["pass"], para_rep["violations"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert len(jn_recs) == len(comm_recs) == len(para_recs) == 450
    spread = [c["ratio_lr"]["max"] / c["ratio_lr"]["min"] for c in jn_rep["combos"]]
    print(f"\n[criterion 8] PASS ratio experiments: 3 commands x 9 combos x 50 trials, "
          f"all asserted directions hold, largest one/two-weight spread {max(spread):.2f}, "
          f"{elapsed:.0f}s")


def test_criterion_9_duality():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        b = random_symbol(2, rng)
        mu = random_cascade_weight(2, 0.7, rng)
        lam = random_cascade_weight(2, 0.7, rng)
        mat = materialize(lambda_operator(b), 2)
        forward = opnorm_p2_exact(mat, mu, lam).value
        dual = opnorm_p2_exact(
            mat.transpose(),
            Weight(GridFunction2D(2, 1.0 / lam.values)),
            Weight(GridFunction2D(2, 1.0 / mu.values))).value
        worst = max(worst, abs(forward - dual) / forward)
    assert worst < 1e-10
    print(f"\n[criterion 9] PASS duality: 50 paraproduct sums, adjoint norm between "
          f"inverted weights matches to {worst:.2e} < 1e-10")
