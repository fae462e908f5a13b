"""Randomized experiment drivers behind the command line front end.

Each driver runs seeded trials over a grid of (exponent, weight
strength) combinations, collects one :class:`RatioRecord` per trial in a
fixed CSV schema, and returns a JSON-ready summary.  Inequalities that
are exact on the grid are asserted (collected as violations, reflected
in the exit code); everything else is recorded, never enforced.

Reports are deterministic byte-for-byte for a fixed seed: trials derive
independent generators from (seed, combo, trial), and no timestamps or
environment data enter the output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    cancellative_rectangles,
    haar_forward,
    haar_function,
    haar_inverse,
    haar_project,
    haar_project_x,
    haar_project_y,
    indicator,
    partial_haar_sum,
    random_grid,
    random_symbol,
    slot_interval,
)
from .norms import (
    EXACT_MAX_DEPTH,
    HEURISTIC_MAX_DEPTH,
    bmo_prod_one_weight,
    bmo_prod_two_weight,
    little_bmo,
    lp_weighted_norm,
)
from .operators import (
    OperatorMatrix,
    SignChoice1D,
    SignChoice2D,
    axis_sign_rows,
    commutator_apply,
    commutator_matrices,
    haar_multiplier,
    haar_multiplier_x,
    iterated_commutator,
    iterated_projection_commutator,
    lambda_apply,
    lambda_matrix,
    lambda_operator,
    multiplication_operator,
    multiplier_operator_x,
    multiplier_operator_y,
    nested_commutator_apply,
    paraproduct_matrix,
    restricted_projection,
    sign_rows,
    theta_operator,
)
from .opnorm import EXHAUSTIVE_MAX_DEPTH, opnorm, opnorm_p2_exact, sup_commutator_norm
from .weights import ap_characteristic, bloom_weight, random_cascade_weight

#: absolute gap below which an exact identity counts as holding
IDENTITY_TOL = 1e-11
#: sign pairs drawn per trial when the commutator supremum is sampled
SAMPLED_PAIRS = 16
#: Monte Carlo draws for the moment cross-check
MC_DRAWS = 20000
#: deepest grid for the identity suite, which scores all 4^(2^N - 1) sign pairs:
#: one draw takes about 0.45 s at depth 3, while depth 4 has 2^30 pairs
#: (a 17 GB matrix stack per x-axis sign row)
IDENTITIES_MAX_DEPTH = 3

CSV_HEADER = "trial,ap_mu,ap_lambda,a2_nu,left,right,mid,ratio_lr,ratio_lm,flag"


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment commands."""

    command: str
    depth: int = 2
    p_values: tuple[float, ...] = (2.0,)
    deltas: tuple[float, ...] = (0.0,)
    trials: int = 10
    seed: int = 0
    strategy: str = "exact"
    mode: str = "exhaustive"
    out: Path | None = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.strategy not in ("exact", "heuristic"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not all(1.0 < p < math.inf for p in self.p_values):
            raise ValueError(f"every --p must lie in (1, inf), got {list(self.p_values)}")
        if not all(0.0 <= d < math.inf for d in self.deltas):
            raise ValueError(f"every --delta must be finite and >= 0, got {list(self.deltas)}")
        if self.command == "identities" and self.depth > IDENTITIES_MAX_DEPTH:
            raise ValueError(f"identities walks every sign pair and is limited "
                             f"to depth <= {IDENTITIES_MAX_DEPTH}")
        if (self.command in ("jn", "commutator", "paraproduct") and self.strategy == "exact"
                and self.depth > EXACT_MAX_DEPTH):
            raise ValueError(f"--strategy exact scores every union of finest rectangles, "
                             f"where the supremum over all open sets is attained, and is "
                             f"limited to depth <= {EXACT_MAX_DEPTH}; use --strategy heuristic")
        if (self.command in ("jn", "commutator", "paraproduct") and self.strategy == "heuristic"
                and self.depth > HEURISTIC_MAX_DEPTH):
            raise ValueError(f"--strategy heuristic scores every pair of cancellative "
                             f"rectangles and is limited to depth <= {HEURISTIC_MAX_DEPTH}")
        if (self.command == "commutator" and self.mode == "exhaustive"
                and self.depth > EXHAUSTIVE_MAX_DEPTH):
            raise ValueError(f"--mode exhaustive walks every sign pair and is limited "
                             f"to depth <= {EXHAUSTIVE_MAX_DEPTH}; use --mode sampled")

    def combos(self) -> list[tuple[float, float]]:
        return list(itertools.product(self.p_values, self.deltas))

    def rng_for(self, combo: int, trial: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, combo, trial])

    def echo(self) -> dict:
        return {
            "command": self.command, "depth": self.depth,
            "p": list(self.p_values), "delta": list(self.deltas),
            "trials": self.trials, "seed": self.seed,
            "strategy": self.strategy, "mode": self.mode,
        }


@dataclass
class RatioRecord:
    """One CSV row; fields not meaningful for a command are nan."""

    trial: int
    ap_mu: float
    ap_lambda: float
    a2_nu: float
    left: float
    right: float
    mid: float
    ratio_lr: float
    ratio_lm: float
    flag: str

    def to_csv_row(self) -> str:
        nums = (self.ap_mu, self.ap_lambda, self.a2_nu, self.left,
                self.right, self.mid, self.ratio_lr, self.ratio_lm)
        return ",".join([str(self.trial)]
                        + [format(v, ".17g") for v in nums]
                        + [self.flag])


def write_records_csv(records: list[RatioRecord], path: str | Path) -> None:
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def _finite_stats(values: list[float]) -> dict:
    good = [v for v in values if math.isfinite(v)]
    if not good:
        return {"count": 0}
    return {
        "count": len(good),
        "min": min(good),
        "median": float(np.median(good)),
        "max": max(good),
    }


def _draw_pair(depth: int, delta: float, rng: np.random.Generator):
    mu = random_cascade_weight(depth, delta, rng, role="mu")
    lam = random_cascade_weight(depth, delta, rng, role="lambda")
    return mu, lam


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _sign_pair_square_norms(b: GridFunction2D, f: GridFunction2D) -> np.ndarray:
    """``||[T1_sx, [T2_sy, M_b]] f||^2`` for every pair of axis sign rows.

    Entry ``(i, j)`` pairs x-row ``i`` with y-row ``j`` of
    :func:`axis_sign_rows`.  One :func:`commutator_matrices` call per
    x-row covers all y-rows (a stack of 4 MB at depth 3).
    """
    rows = axis_sign_rows(b.depth)
    fv = f.values.ravel()
    out = np.empty((len(rows), len(rows)))
    for i, sx in enumerate(rows):
        g = commutator_matrices(b, np.broadcast_to(sx, rows.shape), rows) @ fv
        out[i] = (g * g).mean(axis=1)
    return out


def identity_gap_suite(depth: int, rng: np.random.Generator) -> dict[str, float]:
    """One random draw of every exact identity; returns absolute gaps.

    Identities needing a bi-cancellative argument get one; the rest are
    exercised on arbitrary grid functions.
    """
    gaps: dict[str, float] = {}
    b = random_grid(depth, rng)
    f_any = random_grid(depth, rng)
    f_cc = random_symbol(depth, rng)
    n = 1 << depth

    back = haar_inverse(haar_forward(f_any))
    gaps["round_trip"] = (back - f_any).max_abs()
    coeffs = haar_forward(f_any)
    gaps["plancherel"] = abs(coeffs.energy() - (f_any * f_any).integral())

    # partial sums against the inclusion-exclusion formula
    lx, ly = int(rng.integers(0, depth + 1)), int(rng.integers(0, depth + 1))
    rect = DyadicRectangle(DyadicInterval(lx, int(rng.integers(0, 1 << lx))),
                           DyadicInterval(ly, int(rng.integers(0, 1 << ly))))
    box = rect.cell_box(depth)
    expect = np.zeros_like(b.values)
    blk = b.values[box]
    expect[box] = (blk - blk.mean(axis=0, keepdims=True)
                   - blk.mean(axis=1, keepdims=True) + blk.mean())
    gaps["partial_sum_inclusion_exclusion"] = float(
        np.abs(partial_haar_sum(b, rect).values - expect).max())

    # the four-paraproduct sum against its rectangle-local form
    second = GridFunction2D.zeros(depth)
    fcoeffs = haar_forward(f_cc)
    for r in cancellative_rectangles(depth):
        second = second + partial_haar_sum(b, r) * haar_function(r, depth) * fcoeffs.coefficient(r)
    gaps["lambda_two_forms"] = (lambda_apply(b, f_cc) - second).max_abs()

    # nested commutators cannot tell b from its paraproduct sum
    # ... and their squares sum to the right side of the sign-average check
    lam_op = lambda_operator(b)
    worst = 0.0
    projection_square_sum = 0.0
    for p in range(1, n):
        for q in range(1, n):
            ix, jy = slot_interval(p), slot_interval(q)
            got = iterated_projection_commutator(b, f_any, ix, jy)
            via = nested_commutator_apply(
                lambda g: haar_project_x(g, ix), lambda g: haar_project_y(g, jy),
                lam_op, f_any)
            worst = max(worst, (got - via).max_abs())
            projection_square_sum += (got * got).integral()
    gaps["commutator_projection_replacement"] = worst

    sx, sy = SignChoice1D.random(depth, rng), SignChoice1D.random(depth, rng)
    got = iterated_commutator(b, f_any, sx, sy)
    via = nested_commutator_apply(multiplier_operator_x(sx), multiplier_operator_y(sy),
                                  lam_op, f_any)
    gaps["commutator_multiplier_replacement"] = (got - via).max_abs()

    worst = 0.0
    for p in range(1, n):
        iv = slot_interval(p)
        worst = max(worst, haar_project_x(lam_op(haar_project_x(f_any, iv)), iv).max_abs())
        worst = max(worst, haar_project_y(lam_op(haar_project_y(f_any, iv)), iv).max_abs())
    gaps["one_parameter_annihilation"] = worst

    mask = rng.random((n, n)) < 0.5
    if not mask.any():
        mask[0, 0] = True
    omega = Shadow(mask)
    left = restricted_projection(b, omega)
    right = restricted_projection(lambda_apply(b, indicator(omega)), omega)
    gaps["restricted_projection_recovery"] = (left - right).max_abs()

    th = theta_operator(b)
    worst = 0.0
    for r in cancellative_rectangles(depth):
        qr = lambda g, r=r: haar_project(g, r)
        worst = max(worst, (commutator_apply(qr, multiplication_operator(b), f_cc)
                            - commutator_apply(qr, th, f_cc)).max_abs())
    sigma = SignChoice2D.random(depth, rng)
    tm = lambda g: haar_multiplier(g, sigma)
    worst = max(worst, (commutator_apply(tm, multiplication_operator(b), f_cc)
                        - commutator_apply(tm, th, f_cc)).max_abs())
    gaps["theta_single_commutator"] = worst

    worst = 0.0
    for r in cancellative_rectangles(depth):
        worst = max(worst, haar_project(th(haar_project(f_any, r)), r).max_abs())
    gaps["theta_annihilation"] = worst

    total = GridFunction2D.zeros(depth)
    for p in range(1, n):
        iv = slot_interval(p)
        total = total + haar_project_x(f_any, iv) * sx.sign(iv)
    gaps["multiplier_is_projection_sum"] = (haar_multiplier_x(f_any, sx) - total).max_abs()

    # averaged sign supremum consistency: the mean squared commutator norm
    # over all sign pairs (from the commutator matrices) equals the sum
    # over interval pairs (from the literal projection commutators)
    lhs = float(_sign_pair_square_norms(b, f_any).mean())
    gaps["khintchine_consistency"] = abs(lhs - projection_square_sum)
    return gaps


def run_identities(cfg: ExperimentConfig) -> dict:
    worst: dict[str, float] = {}
    for trial in range(cfg.trials):
        gaps = identity_gap_suite(cfg.depth, cfg.rng_for(0, trial))
        for name, gap in gaps.items():
            prev = worst.get(name, 0.0)
            # a nan gap must stick, and max(0.0, nan) is 0.0
            worst[name] = gap if math.isnan(gap) or gap > prev else prev
    violations = [f"{name}: gap {gap:.3e} exceeds {IDENTITY_TOL}"
                  for name, gap in sorted(worst.items()) if not gap <= IDENTITY_TOL]
    return {
        "config": cfg.echo(),
        "tolerance": IDENTITY_TOL,
        "max_gaps": {k: worst[k] for k in sorted(worst)},
        "violations": violations,
        "pass": not violations,
    }


# ---------------------------------------------------------------------------
# ratio experiments
# ---------------------------------------------------------------------------

def run_jn(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """One-weight against two-weight BMO norms over random symbols and weights."""
    records: list[RatioRecord] = []
    combos_out = []
    violations: list[str] = []
    row = 0
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = row
        ratios = []
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = _draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            left = bmo_prod_one_weight(b, nu, cfg.strategy, seed=rng).value
            right = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng).value
            flag = "ok" if right > 0 else "degenerate"
            ratio = left / right if right > 0 else math.nan
            if p == 2 and delta == 0 and flag == "ok" and abs(ratio - 1.0) > 1e-12:
                violations.append(
                    f"p=2 delta=0 trial {trial}: one- and two-weight norms differ ({ratio})")
            records.append(RatioRecord(
                row, ap_characteristic(mu, p).characteristic,
                ap_characteristic(lam, p).characteristic,
                ap_characteristic(nu, 2).characteristic,
                left, right, math.nan, ratio, math.nan, flag))
            ratios.append(ratio)
            row += 1
        combos_out.append({"p": p, "delta": delta, "rows": [start, row],
                           "ratio_lr": _finite_stats(ratios)})
    report = {"config": cfg.echo(), "combos": combos_out,
              "violations": violations, "pass": not violations}
    return report, records


def run_commutator(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """Sign-supremum commutator norm against the paraproduct-sum norm and BMO."""
    records: list[RatioRecord] = []
    combos_out = []
    violations: list[str] = []
    row = 0
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = row
        lr, lm = [], []
        spotcheck = 0.0
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = _draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            sup = sup_commutator_norm(b, mu, lam, p, mode=cfg.mode,
                                      trials=SAMPLED_PAIRS, seed=rng)
            mid = opnorm(lambda_matrix(b), mu, lam, p).value
            right = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng).value
            if (p == 2 and delta == 0 and cfg.mode == "exhaustive"
                    and sup.value > 4.0 * mid * (1.0 + 1e-9)):
                violations.append(
                    f"p=2 delta=0 trial {trial}: supremum {sup.value} exceeds 4x {mid}")
            if trial == 0 and p == 2:
                # informational only: how close do {-1,0,1} signs come?
                draws = [SignChoice1D.random(cfg.depth, rng, values=(-1.0, 0.0, 1.0)).signs
                         for _ in range(10)]
                mats = commutator_matrices(b, np.array(draws[0::2]), np.array(draws[1::2]))
                for mat in mats:
                    v = opnorm_p2_exact(OperatorMatrix(cfg.depth, mat), mu, lam).value
                    if sup.value > 0:
                        spotcheck = max(spotcheck, v / sup.value)
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
                           "ratio_lr": _finite_stats(lr), "ratio_lm": _finite_stats(lm),
                           "zero_sign_spotcheck_max_ratio": spotcheck})
    report = {"config": cfg.echo(), "combos": combos_out,
              "violations": violations, "pass": not violations}
    return report, records


def run_paraproduct(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """Paraproduct operator norm against the BMO norms, with explicit testing function."""
    records: list[RatioRecord] = []
    combos_out = []
    violations: list[str] = []
    row = 0
    for ci, (p, delta) in enumerate(cfg.combos()):
        start = row
        lr, lm, tested = [], [], []
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = _draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            pi = paraproduct_matrix("11", b)
            left = opnorm(pi, mu, lam, p).value
            bmo = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng)
            right = bmo.value
            mid = little_bmo(b, mu, lam, p).value
            # drive the operator with the indicator of the witness shadow
            one_omega = indicator(bmo.witness)
            t = (lp_weighted_norm(pi.apply(one_omega), lam, p)
                 / lp_weighted_norm(one_omega, mu, p))
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
                           "ratio_lr": _finite_stats(lr), "ratio_lm": _finite_stats(lm),
                           "testing_ratio": _finite_stats(tested)})
    report = {"config": cfg.echo(), "combos": combos_out,
              "violations": violations, "pass": not violations}
    return report, records


# ---------------------------------------------------------------------------
# sign-average moments
# ---------------------------------------------------------------------------

def rademacher_moment_exhaustive(a: np.ndarray, q: float) -> float:
    """Exact q-th absolute moment of the bilinear sign average of a matrix."""
    n1, n2 = a.shape
    if n1 > 4 or n2 > 4:
        raise ValueError("exhaustive moments are limited to 4 x 4 matrices")
    # fsum is exactly rounded, so the order of the sign rows cannot move the moment
    vals = np.abs(sign_rows(n1) @ a @ sign_rows(n2).T) ** q
    return math.fsum(vals.ravel()) / vals.size


def rademacher_moment_mc(a: np.ndarray, q: float, draws: int,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the same moment; returns (mean, standard error)."""
    n1, n2 = a.shape
    e1 = rng.choice((-1.0, 1.0), size=(draws, n1))
    e2 = rng.choice((-1.0, 1.0), size=(draws, n2))
    vals = np.abs(np.einsum("ti,ij,tj->t", e1, a, e2)) ** q
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


def run_khintchine(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """Moment identities for bilinear sign averages of random matrices."""
    records: list[RatioRecord] = []
    violations: list[str] = []
    m4_ratios = []
    for trial in range(cfg.trials):
        rng = cfg.rng_for(0, trial)
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((n1, n2))
        frob2 = float((a * a).sum())
        m2 = rademacher_moment_exhaustive(a, 2)
        m4 = rademacher_moment_exhaustive(a, 4)
        mc4, se = rademacher_moment_mc(a, 4, MC_DRAWS, rng)
        if abs(m2 - frob2) > 1e-14 * max(1.0, frob2):
            violations.append(f"trial {trial}: second moment {m2} != square sum {frob2}")
        # the rounding floor matters when the average is deterministic (1 x 1)
        if abs(mc4 - m4) > 3.0 * se + 1e-12 * max(1.0, m4):
            violations.append(
                f"trial {trial}: Monte Carlo fourth moment {mc4} further than 3 SE from {m4}")
        records.append(RatioRecord(
            trial, math.nan, math.nan, math.nan,
            m2, frob2, m4, m2 / frob2, m4 / m2 ** 2, "ok"))
        m4_ratios.append(m4 / m2 ** 2)
    report = {"config": cfg.echo(),
              "normalized_fourth_moment": _finite_stats(m4_ratios),
              "violations": violations, "pass": not violations}
    return report, records


COMMANDS = {
    "identities": run_identities,
    "jn": run_jn,
    "commutator": run_commutator,
    "khintchine": run_khintchine,
    "paraproduct": run_paraproduct,
}
