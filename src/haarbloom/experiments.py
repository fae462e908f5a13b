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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    GridFunction2D,
    Shadow,
    cancellative_rectangles,
    check_depth,
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
    bmo_prod_norms,
    bmo_prod_two_weight,
    check_search,
    little_bmo,
    lp_weighted_norm,
    one_weight_pair,
)
from .operators import (
    Operator,
    SignChoice1D,
    SignChoice2D,
    axis_sign_rows,
    commutator_apply,
    commutator_matrices,
    haar_multiplier,
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
from .opnorm import (
    SAMPLED_PAIRS,
    NormJob,
    check_walk,
    opnorm_job,
    solve,
    sup_commutator_job,
)
from .weights import ap_characteristic, bloom_weight, random_cascade_weight

#: absolute gap below which an exact identity counts as holding
IDENTITY_TOL = 1e-11
#: Monte Carlo draws for the moment cross-check
MC_DRAWS = 20000
#: deepest grid for the identity suite, which scores all 4^(2^N - 1) sign pairs:
#: one draw takes about 17 ms at depth 3 with one BLAS thread, while depth 4 has 2^30 pairs
#: (2 TB of commutator images)
IDENTITIES_MAX_DEPTH = 3
#: exponents the l^p arithmetic stays finite for on moderate weights: |u|^p overflows in
#: the power iteration at p = 300, the BMO energies at p = 1000, |y|^(p'-1) at p = 1.01 on
#: strength-2 depth-3 weights and at p = 1.05 on strength 1e300 (reported not converged)
P_RANGE = (1.05, 100.0)
#: bytes of operator matrices a sweep holds before it solves its pending norms
#: (one depth-3 sampled commutator trial holds under 1 MB)
PENDING_BYTES = 32 << 20

_SWEEP = ("depth", "p_values", "deltas", "trials", "seed", "strategy", "out")
#: the config fields each command reads, the options its parser takes
READS = {"identities": ("depth", "trials", "seed", "out"), "jn": _SWEEP,
         "commutator": _SWEEP + ("mode",), "khintchine": ("trials", "seed", "out"),
         "paraproduct": _SWEEP}


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment commands; the defaults are the CLI's too."""

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
        if self.command not in READS:
            raise ValueError(f"unknown command {self.command!r}")
        check_depth(self.depth)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.out is not None and (Path(self.out).is_dir()
                                     or not Path(self.out).parent.is_dir()):
            raise ValueError(f"--out {self.out} must name a file in an existing directory")
        if not (self.p_values and self.deltas):
            raise ValueError("--p and --delta each need at least one value")
        if not all(P_RANGE[0] <= p <= P_RANGE[1] for p in self.p_values):
            raise ValueError(f"every --p must lie in [{P_RANGE[0]}, {P_RANGE[1]}], "
                             f"got {list(self.p_values)}")
        if not all(0.0 <= d < math.inf for d in self.deltas):
            raise ValueError(f"every --delta must be finite and >= 0, got {list(self.deltas)}")
        # every name is checked, a depth limit only where the field is read (depth 0)
        check_search(self.strategy, self.depth if "strategy" in READS[self.command] else 0)
        check_walk(self.mode, self.depth if "mode" in READS[self.command] else 0, SAMPLED_PAIRS)
        check_identities(self.depth if self.command == "identities" else 0)

    def combos(self) -> list[tuple[float, float]]:
        return list(itertools.product(self.p_values, self.deltas))

    def rng_for(self, combo: int, trial: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, combo, trial])

    def echo(self) -> dict:
        """Every field but ``out``, the value lists under their flags' names."""
        shown = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}
        shown["p"], shown["delta"] = list(shown.pop("p_values")), list(shown.pop("deltas"))
        return shown


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


CSV_HEADER = ",".join(f.name for f in fields(RatioRecord))


def write_records_csv(records: list[RatioRecord], path: str | Path) -> None:
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def _finite_stats(values: list[float]) -> dict:
    good = [v for v in values if math.isfinite(v)]
    if not good:
        return {"count": 0}
    # statistics.median's arithmetic, without that import or np.median's per-call cost
    ranked, half = sorted(good), len(good) // 2
    median = ranked[half] if len(good) % 2 else (ranked[half - 1] + ranked[half]) / 2
    return {
        "count": len(good),
        "min": min(good),
        "median": float(median),
        "max": max(good),
    }


def _draw_pair(depth: int, delta: float, rng: np.random.Generator):
    mu = random_cascade_weight(depth, delta, rng)
    lam = random_cascade_weight(depth, delta, rng)
    return mu, lam


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _sign_pair_square_norms(b: GridFunction2D, f: GridFunction2D) -> np.ndarray:
    """``||[T1_sx, [T2_sy, M_b]] f||^2`` for every pair of axis sign rows.

    Entry ``(i, j)`` pairs x-row ``i`` with y-row ``j`` of
    :func:`axis_sign_rows`.  The commutator is bilinear in the two sign
    rows, ``sum_pq sx(p) sy(q) C_pq f``, so the block images ``C_pq f`` are
    taken once, from :func:`commutator_matrices` on unit sign rows, and
    every pair of rows is contracted against them by two matmuls, over p
    and then q, with the bits of ``einsum("ip,jq,pqc->ijc", ..., optimize=True)``.
    """
    rows = axis_sign_rows(b.depth)[:, 1:]
    n = 1 << b.depth
    unit = np.eye(n)[1:]
    blocks = commutator_matrices(b, np.repeat(unit, n - 1, axis=0), np.tile(unit, (n - 1, 1)))
    images = (blocks @ f.values.ravel()).reshape(n - 1, -1)
    g = (rows @ (images.T @ rows.T).reshape(n - 1, -1)).reshape(len(rows), -1, len(rows))
    return (g * g).mean(axis=1).T.copy()      # C order: a later .mean() sums in (i, j) order


def check_identities(depth: int) -> None:
    """Refuse an identity suite deeper than :data:`IDENTITIES_MAX_DEPTH`, its one check."""
    if depth > IDENTITIES_MAX_DEPTH:
        raise ValueError(f"identities walks every sign pair and is limited "
                         f"to depth <= {IDENTITIES_MAX_DEPTH}")


def _once(op: Operator) -> Operator:
    """``op``, run at most once per input object: the memo holds each input beside its
    image, so no other object can take the input's id while the memo lives."""
    memo: dict[int, tuple[GridFunction2D, GridFunction2D]] = {}

    def apply(g: GridFunction2D) -> GridFunction2D:
        seen = memo.get(id(g))
        if seen is None:
            seen = memo[id(g)] = (g, op(g))
        return seen[1]
    return apply


def identity_gap_suite(depth: int, rng: np.random.Generator) -> dict[str, float]:
    """One random draw of every exact identity; returns absolute gaps.

    Identities needing a bi-cancellative argument get one; the rest are
    exercised on arbitrary grid functions.  ``M_b``, ``Lambda_b``, ``Theta_b``,
    each slot's two projections and the two multipliers are literal closures
    built once and run at most once per input object (:func:`_once`), so both
    sides of a replacement share every image they can; the cancellative
    rectangles and the slots are each walked once, and the gaps keep their
    order in the dict.
    """
    check_identities(depth)
    gaps: dict[str, float] = {}
    b = random_grid(depth, rng)
    f_any = random_grid(depth, rng)
    f_cc = random_symbol(depth, rng)
    n = 1 << depth
    mb, lam_op, th = (_once(op(b)) for op in
                      (multiplication_operator, lambda_operator, theta_operator))
    slots = [slot_interval(p) for p in range(1, n)]
    px = [_once(lambda g, iv=iv: haar_project_x(g, iv)) for iv in slots]
    py = [_once(lambda g, iv=iv: haar_project_y(g, iv)) for iv in slots]

    coeffs = haar_forward(f_any)
    gaps["round_trip"] = (haar_inverse(coeffs) - f_any).max_abs()
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

    def theta_gap(op):      # [op, M_b] against [op, Theta_b], on f_cc
        op = _once(op)
        return (commutator_apply(op, mb, f_cc) - commutator_apply(op, th, f_cc)).max_abs()

    # one walk of the rectangles: the four-paraproduct sum against its
    # rectangle-local form, and Theta's single commutators and annihilation
    second = GridFunction2D.zeros(depth)
    fcoeffs = haar_forward(f_cc)
    theta_commutator = theta_annihilation = 0.0
    for r in cancellative_rectangles(depth):
        second = second + partial_haar_sum(b, r) * haar_function(r, depth) * fcoeffs.coefficient(r)
        theta_commutator = max(theta_commutator, theta_gap(lambda g: haar_project(g, r)))
        theta_annihilation = max(theta_annihilation,
                                 haar_project(th(haar_project(f_any, r)), r).max_abs())
    gaps["lambda_two_forms"] = (lam_op(f_cc) - second).max_abs()

    # nested commutators cannot tell b from its paraproduct sum
    # ... and their squares sum to the right side of the sign-average check
    worst = projection_square_sum = 0.0
    for qx, qy in itertools.product(px, py):
        got = nested_commutator_apply(qx, qy, mb, f_any)
        via = nested_commutator_apply(qx, qy, lam_op, f_any)
        worst = max(worst, (got - via).max_abs())
        projection_square_sum += (got * got).integral()
    gaps["commutator_projection_replacement"] = worst

    sx, sy = SignChoice1D.random(depth, rng), SignChoice1D.random(depth, rng)
    tx, ty = _once(multiplier_operator_x(sx)), _once(multiplier_operator_y(sy))
    got = nested_commutator_apply(tx, ty, mb, f_any)
    via = nested_commutator_apply(tx, ty, lam_op, f_any)
    gaps["commutator_multiplier_replacement"] = (got - via).max_abs()

    # one walk of the slots: one-parameter annihilation, the multiplier as a projection sum
    worst, total = 0.0, GridFunction2D.zeros(depth)
    for iv, qx, qy in zip(slots, px, py):
        worst = max(worst, qx(lam_op(qx(f_any))).max_abs(), qy(lam_op(qy(f_any))).max_abs())
        total = total + qx(f_any) * sx.sign(iv)
    gaps["one_parameter_annihilation"] = worst

    mask = rng.random((n, n)) < 0.5
    if not mask.any():
        mask[0, 0] = True
    omega = Shadow(mask)
    left = restricted_projection(b, omega)
    right = restricted_projection(lam_op(indicator(omega)), omega)
    gaps["restricted_projection_recovery"] = (left - right).max_abs()

    sigma = SignChoice2D.random(depth, rng)
    gaps["theta_single_commutator"] = max(theta_commutator,
                                          theta_gap(lambda g: haar_multiplier(g, sigma)))
    gaps["theta_annihilation"] = theta_annihilation
    gaps["multiplier_is_projection_sum"] = (tx(f_any) - total).max_abs()

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

def _ratio_sweep(cfg: ExperimentConfig, build, summary=None) -> tuple[dict, list[RatioRecord]]:
    """The sweep shared by the ratio commands.

    Every trial draws, from its own generator, a symbol ``b`` and the
    weight pair ``mu``, ``lam``; ``nu`` is their Bloom weight.  Then
    ``build(p, delta, trial, b, mu, lam, nu, rng)`` returns ``(jobs,
    finish)``, the jobs from :func:`opnorm_job` or :func:`sup_commutator_job`.
    The jobs of consecutive trials go to one :func:`solve`: at the end of
    the combination, or sooner once the pending matrices pass
    ``PENDING_BYTES``.  Then, in trial order, ``finish(violations, norms)``
    gets the results of the trial's jobs, appends its failed checks and
    returns ``(left, right, mid, extra)`` for its row.  Each combination
    reports its rows and ``ratio_lr``, plus ``summary(rows, extras)``.
    """
    records: list[RatioRecord] = []
    combos_out = []
    violations: list[str] = []
    for ci, (p, delta) in enumerate(cfg.combos()):
        built, pending, held, norms = [], [], 0, []
        for trial in range(cfg.trials):
            rng = cfg.rng_for(ci, trial)
            b = random_symbol(cfg.depth, rng)
            mu, lam = _draw_pair(cfg.depth, delta, rng)
            nu = bloom_weight(mu, lam, p)
            jobs, finish = build(p, delta, trial, b, mu, lam, nu, rng)
            built.append((finish, len(jobs), [ap_characteristic(w, q).characteristic
                                              for w, q in ((mu, p), (lam, p), (nu, 2))]))
            pending += jobs
            held += sum(job.live.nbytes for job in jobs if isinstance(job, NormJob))
            if held > PENDING_BYTES:
                norms += solve(pending)
                pending, held = [], 0
        norms += solve(pending)
        start, extras, done = len(records), [], iter(norms)
        for finish, count, aps in built:
            left, right, mid, extra = finish(violations, list(itertools.islice(done, count)))
            records.append(RatioRecord(
                len(records), *aps, left, right, mid, left / right if right > 0 else math.nan,
                left / mid if mid > 0 else math.nan, "ok" if right > 0 else "degenerate"))
            extras.append(extra)
        rows = records[start:]
        combos_out.append({"p": p, "delta": delta, "rows": [start, len(records)],
                           "ratio_lr": _finite_stats([r.ratio_lr for r in rows]),
                           **(summary(rows, extras) if summary else {})})
    report = {"config": cfg.echo(), "combos": combos_out,
              "violations": violations, "pass": not violations}
    return report, records


def run_jn(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """One-weight against two-weight BMO norms over random symbols and weights."""
    def build(p, delta, trial, b, mu, lam, nu, rng):
        left, right = (bmo.value for bmo in bmo_prod_norms(
            b, [one_weight_pair(nu), (mu, lam, p)], cfg.strategy, seed=rng))

        def finish(violations, norms):
            if p == 2 and delta == 0 and right > 0 and abs(left / right - 1.0) > 1e-12:
                violations.append(f"p=2 delta=0 trial {trial}: one- and two-weight "
                                  f"norms differ ({left / right})")
            return left, right, math.nan, None
        return [], finish

    return _ratio_sweep(cfg, build)


def run_commutator(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """Sign-supremum commutator norm against the paraproduct-sum norm and BMO."""
    def build(p, delta, trial, b, mu, lam, nu, rng):
        jobs = [sup_commutator_job(b, mu, lam, p, mode=cfg.mode, seed=rng),
                opnorm_job(lambda_matrix(b), mu, lam, p)]
        right = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng).value

        def finish(violations, norms):
            left, mid = norms[0].value, norms[1].value
            if (p == 2 and delta == 0 and cfg.mode == "exhaustive"
                    and left > 4.0 * mid * (1.0 + 1e-9)):
                violations.append(
                    f"p=2 delta=0 trial {trial}: supremum {left} exceeds 4x {mid}")
            return left, right, mid, None
        return jobs, finish

    return _ratio_sweep(cfg, build, lambda rows, _: {
        "ratio_lm": _finite_stats([r.ratio_lm for r in rows])})


def run_paraproduct(cfg: ExperimentConfig) -> tuple[dict, list[RatioRecord]]:
    """Paraproduct operator norm against the BMO norms, with explicit testing function."""
    def build(p, delta, trial, b, mu, lam, nu, rng):
        pi = paraproduct_matrix("11", b)
        jobs = [opnorm_job(pi, mu, lam, p)]
        bmo = bmo_prod_two_weight(b, mu, lam, p, cfg.strategy, seed=rng)
        right, mid = bmo.value, little_bmo(b, mu, lam, p).value
        # drive the operator with the indicator of the witness shadow
        one_omega = indicator(bmo.witness)
        image = GridFunction2D(b.depth, (pi @ one_omega.values.ravel()).reshape(b.values.shape))
        t = lp_weighted_norm(image, lam, p) / lp_weighted_norm(one_omega, mu, p)

        def finish(violations, norms):
            left = norms[0].value
            if p == 2 and t > left * (1.0 + 1e-9):
                violations.append(
                    f"trial {trial}: testing-function ratio {t} above the exact norm {left}")
            if p == 2 and delta == 0 and left < right * (1.0 - 1e-9):
                violations.append(
                    f"p=2 delta=0 trial {trial}: norm {left} below the BMO norm {right}")
            return left, right, mid, t / left if left > 0 else math.nan
        return jobs, finish

    return _ratio_sweep(cfg, build, lambda rows, tested: {
        "ratio_lm": _finite_stats([r.ratio_lm for r in rows]),
        "testing_ratio": _finite_stats(tested)})


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
