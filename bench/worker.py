"""One benchmark process: import haarbloom, warm up, then run trials in process.

``run.py`` starts this file in a fresh interpreter, with ``src/`` of the
checkout on ``PYTHONPATH``.  The worker prints ``ready`` once
``import haarbloom`` and one warm-up trial are done (that instant ends the
set-up time ``run.py`` measures), then, by ``--mode``:

* ``setup``:  exits;
* ``timed``:  runs trials in a closed loop for ``--seconds`` seconds;
* ``traced``: runs a fixed list of trials untraced, traced twice, untraced.

Its last stdout line is one JSON object with the measurements.  The
workload table and the output check live here too, so that
``record_reference.py`` runs trials exactly as the benchmark does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: relative slack for values that must repeat, and for lower bounds
REL_TOL = 1e-9
#: identity gaps must stay below the package's own exactness threshold
IDENTITY_GAP_MAX = 1e-11
#: speed-probe seconds on a quiet reference core; timings are reported at that speed
PROBE_REF_S = 0.005
#: the timed loop probes the host's speed whenever this many seconds have passed
PROBE_EVERY_S = 0.2
#: a trial is scaled by the probes taken within this many seconds of its end
PROBE_WINDOW_S = 1.0

SWEEP = tuple((p, d) for p in ("1.5", "2", "3") for d in ("0", "0.5"))
CSV_FIELDS = ("ap_mu", "ap_lambda", "a2_nu", "left", "right", "mid")


@dataclass(frozen=True)
class Workload:
    """A fixed CLI command swept over (p, delta) combinations, one per trial.

    ``exact`` names the CSV fields that must repeat within ``REL_TOL``;
    ``lower`` those that are lower bounds and may only rise.  Fields in
    ``lower_off_p2`` are exact at p = 2 and lower bounds elsewhere.
    ``pool`` is the number of recorded CLI seeds per combination: enough
    that a 25 s run here does not repeat an input.
    ``tail_pct`` is the percentile reported as ``trial_ms.tail``, fixed so
    that two commits are compared at the same percentile: the highest one
    with at least ten trials beyond it in a 25 s run here for the slow
    workloads, and p90 for the fast ones, whose higher percentiles are set
    by stalls of the host too short for the speed probe to see.
    ``trace_trials`` is the fixed trial count of a traced pass.  ``stress``
    names the self-time buckets the workload is meant to load, and
    ``min_share`` the share of traced self time they should take.
    """

    args: tuple[str, ...]
    combos: tuple[tuple[str, str], ...] = SWEEP
    csv: bool = True
    exact: tuple[str, ...] = ()
    lower: tuple[str, ...] = ()
    lower_off_p2: tuple[str, ...] = ()
    pool: int = 32
    tail_pct: float = 70.0
    trace_trials: int = 6
    stress: tuple[str, ...] = ()
    min_share: float = 0.6


WORKLOADS = {
    "commutator-d2": Workload(
        ("commutator", "--depth", "2", "--mode", "exhaustive", "--strategy", "exact"),
        exact=("ap_mu", "ap_lambda", "a2_nu", "right"), lower_off_p2=("left", "mid"),
        stress=("operators", "dyadic")),
    "bmo-d3-heuristic": Workload(
        ("jn", "--depth", "3", "--strategy", "heuristic"),
        exact=("ap_mu", "ap_lambda", "a2_nu"), lower=("left", "right"),
        stress=("norms.bmo_heuristic",), min_share=0.9),
    "paraproduct-d2": Workload(
        ("paraproduct", "--depth", "2", "--strategy", "exact"),
        exact=("ap_mu", "ap_lambda", "a2_nu", "right", "mid"), lower_off_p2=("left",),
        pool=256, tail_pct=90.0, trace_trials=30, stress=("norms.bmo_exact",)),
    "identities-d2": Workload(
        ("identities", "--depth", "2"), combos=((None, None),), csv=False,
        pool=1024, tail_pct=90.0, trace_trials=30, stress=("dyadic", "operators")),
}


# ---------------------------------------------------------------------------
# trial inputs
# ---------------------------------------------------------------------------

class TrialPlan:
    """Trial i runs combo i mod C with a pool seed in a seed-derived order."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        pool = self.workload.pool
        self.orders = [random.Random(f"{seed}:{c}").sample(range(pool), pool)
                       for c in range(len(self.workload.combos))]
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / f"{name}.csv"

    def trial(self, i: int) -> tuple[int, int]:
        """(combo index, CLI seed) of trial i."""
        c = i % len(self.orders)
        order = self.orders[c]
        return c, order[(i // len(self.orders)) % len(order)]

    def argv(self, combo: int, cli_seed: int) -> list[str]:
        wl = self.workload
        argv = list(wl.args)
        p, delta = wl.combos[combo]
        if p is not None:
            argv += ["--p", p, "--delta", delta]
        argv += ["--trials", "1", "--seed", str(cli_seed)]
        if wl.csv:
            argv += ["--out", str(self.out_path)]
        return argv


@dataclass
class TrialOutput:
    combo: int
    cli_seed: int
    seconds: float
    end: float               # perf_counter() when the trial returned
    status: int | None       # exit status, None when main raised
    stdout: str
    csv: bytes
    error: str = ""


def run_trial(cli, plan: TrialPlan, combo: int, cli_seed: int) -> TrialOutput:
    """One closed-loop trial: a call to ``haarbloom.cli.main`` with stdout captured."""
    buf = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(plan.argv(combo, cli_seed))
    except (Exception, SystemExit) as exc:   # a failed trial, not a failed benchmark
        status, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    csv = plan.out_path.read_bytes() if plan.workload.csv and status is not None else b""
    return TrialOutput(combo, cli_seed, end - start, end, status, buf.getvalue(), csv, error)


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def trial_values(wl: Workload, out: TrialOutput) -> tuple[bool, dict]:
    """The report's pass flag and the values the reference keeps."""
    report = json.loads(out.stdout)
    if not wl.csv:
        return bool(report["pass"]), dict(report["max_gaps"])
    header, row = out.csv.decode().splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    return bool(report["pass"]), {k: float(cells[k]) for k in CSV_FIELDS}


def check_trial(wl: Workload, out: TrialOutput, ref: dict) -> list[str]:
    """Reasons this trial's output is rejected (empty when it is accepted)."""
    if out.status is None:
        return [f"raised {out.error}"]
    try:
        passed, values = trial_values(wl, out)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems = [] if passed else ['"pass" is false']
    if out.status != 0:
        problems.append(f"exit status {out.status}")
    if not wl.csv:
        if set(values) != set(ref["values"]):
            problems.append(f"identity names {sorted(values)} differ from the reference")
        problems += [f"{k} gap {v:.3e} above {IDENTITY_GAP_MAX}"
                     for k, v in values.items() if not v <= IDENTITY_GAP_MAX]
        return problems
    p_is_2 = wl.combos[out.combo][0] == "2"
    exact = wl.exact + (wl.lower_off_p2 if p_is_2 else ())
    lower = wl.lower + (() if p_is_2 else wl.lower_off_p2)
    for k in exact:
        got, want = values[k], ref["values"][k]
        if not abs(got - want) <= REL_TOL * abs(want):
            problems.append(f"{k} = {got!r}, reference {want!r}")
    for k in lower:
        got, want = values[k], ref["values"][k]
        if not got >= want - REL_TOL * abs(want):
            problems.append(f"lower bound {k} = {got!r} fell below reference {want!r}")
    return problems


def check_outputs(plan: TrialPlan, outputs: list[TrialOutput]) -> dict:
    """Check every trial against the shipped reference; count byte-identical reports."""
    refs = json.loads(REFERENCE_PATH.read_text())["workloads"][plan.name]
    failed, json_same, csv_same, examples = 0, 0, 0, []
    for out in outputs:
        ref = refs[f"{out.combo}:{out.cli_seed}"]
        problems = check_trial(plan.workload, out, ref)
        if problems:
            failed += 1
            if len(examples) < 5:
                examples.append(f"combo {out.combo} seed {out.cli_seed}: " + "; ".join(problems))
        json_same += digest(out.stdout) == ref["json_sha256"]
        csv_same += plan.workload.csv and digest(out.csv) == ref["csv_sha256"]
    return {"attempted": len(outputs), "failed": failed, "rejections": examples,
            "json_bytes_match": json_same,
            "csv_bytes_match": csv_same if plan.workload.csv else None}


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def speed_probe() -> float:
    """Seconds taken by a fixed loop of tiny-array numpy steps, like haarbloom's own.

    Shared hosts change speed by 20-40% within minutes.  The probe slows
    down with them, so trial times scaled by the probe time measured
    around them repeat far better than raw times do.  The garbage
    collector stays on: pausing it here moved collections into the next
    trial and raised the peak memory of two workloads by about 9%.
    """
    import numpy as np
    g = np.arange(16.0).reshape(4, 4)
    x = g
    start = time.perf_counter()
    for _ in range(200):
        y = x.reshape(2, 2, 2, 2).mean(axis=(1, 3))
        x = g + np.kron(y, np.ones((2, 2))) * 1e-3
        np.abs(x).max()
    return time.perf_counter() - start


def adjusted_seconds(outputs: list[TrialOutput], probes: list[tuple[float, float]]) -> list[float]:
    """Trial seconds at the speed where the probe takes ``PROBE_REF_S``.

    Each trial is scaled by the median probe time within ``PROBE_WINDOW_S``
    of its end, or by the nearest probe when none is that close.
    """
    out = []
    for o in outputs:
        near = ([p for t, p in probes if abs(t - o.end) <= PROBE_WINDOW_S]
                or [min(probes, key=lambda tp: abs(tp[0] - o.end))[1]])
        out.append(o.seconds * PROBE_REF_S / statistics.median(near))
    return out


def run_timed(cli, plan: TrialPlan, seconds: float) -> dict:
    """Closed loop: trials back to back for ``seconds``, a speed probe every ``PROBE_EVERY_S``."""
    outputs: list[TrialOutput] = []
    probes = [(time.perf_counter(), speed_probe())]
    start = last_probe = time.perf_counter()
    deadline = start + seconds
    while True:
        outputs.append(run_trial(cli, plan, *plan.trial(len(outputs))))
        end = outputs[-1].end
        if end >= deadline:
            break
        if end - last_probe >= PROBE_EVERY_S:
            probes.append((end, speed_probe()))
            last_probe = time.perf_counter()
    wall = end - start
    adjusted_ms = [1e3 * s for s in adjusted_seconds(outputs, probes)]
    raw_ms = [1e3 * o.seconds for o in outputs]
    tail_ms, beyond = percentile(adjusted_ms, plan.workload.tail_pct)
    # read before the check loads the reference, which is the benchmark's memory, not haarbloom's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "check": check_outputs(plan, outputs),
        "metrics": {
            "trials_per_s": (1e3 * len(outputs) / sum(adjusted_ms), "1/s"),
            "trial_ms.p50": (statistics.median(adjusted_ms), "ms"),
            "trial_ms.tail": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "info": {"trials": len(outputs),
                 "repeated_inputs": len(outputs) - len({(o.combo, o.cli_seed) for o in outputs}),
                 "trial_ms.tail.percentile": plan.workload.tail_pct,
                 "trial_ms.tail.trials_beyond": beyond,
                 "raw.trials_per_s": len(outputs) / wall,
                 "raw.trial_ms.p50": statistics.median(raw_ms),
                 "raw.trial_ms.tail": percentile(raw_ms, plan.workload.tail_pct)[0],
                 "probe_ms.p50": 1e3 * statistics.median(p for _, p in probes),
                 "probes": len(probes)},
    }


def run_traced(cli, plan: TrialPlan, spans_path: Path) -> dict:
    """Four passes over one fixed list of trials: untraced, traced twice, untraced.

    Self times and counts come from the second traced pass.  The overhead
    compares its probe-adjusted time with the mean of the untraced passes.
    """
    import tracing

    trials = [plan.trial(i) for i in range(plan.workload.trace_trials)]

    def run_pass(tracer=None) -> tuple[float, float, list[TrialOutput]]:
        """Summed raw and probe-adjusted trial seconds, and the outputs."""
        outs, probes = [], []
        for i, (combo, cli_seed) in enumerate(trials):
            if tracer is not None:
                tracer.trial = i
            outs.append(run_trial(cli, plan, combo, cli_seed))
            probes.append((time.perf_counter(), speed_probe()))
        return sum(o.seconds for o in outs), sum(adjusted_seconds(outs, probes)), outs

    _, plain_before, outputs = run_pass()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    outputs += run_pass(tracer)[2]
    first = tracer.reset()
    traced_wall, traced_adjusted, more = run_pass(tracer)
    outputs += more
    uninstall()
    _, plain_after, more = run_pass()
    outputs += more
    plain_adjusted = (plain_before + plain_after) / 2

    mismatch = {k: (first[k], tracer.counts[k]) for k in tracing.REPEATABLE
                if first[k] != tracer.counts[k]}
    if mismatch:
        raise SystemExit(f"count repeatability check failed for seed-identical passes: {mismatch}")
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (1.0 - plain_adjusted / traced_adjusted, "fraction")
    self_total = sum(tracer.self_s.values())
    share = sum(tracer.self_s[b] for b in plan.workload.stress) / self_total
    check = check_outputs(plan, outputs)
    return {
        "check": check,
        "metrics": metrics,
        "info": {"trials_per_pass": len(trials),
                 "self_time_coverage": self_total / traced_wall,
                 "layer_shares": {k: v / self_total for k, v in sorted(tracer.self_s.items())},
                 "stress_share": {"buckets": "+".join(plan.workload.stress), "share": share,
                                  "target": plan.workload.min_share,
                                  "met": share >= plan.workload.min_share},
                 "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))},
    }


def blas_name() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f'{deps["blas"]["name"]} {deps["blas"].get("version", "")}'.strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args(argv)

    import haarbloom
    from haarbloom import cli
    source = Path(haarbloom.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"haarbloom imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    plan = TrialPlan(args.workload, args.seed)
    warm = run_trial(cli, plan, 0, 0)
    if warm.status is None:
        print(f"warm-up trial failed: {warm.error}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    print(f"probe {statistics.median(speed_probe() for _ in range(3))!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = run_timed(cli, plan, args.seconds)
    else:
        result = run_traced(cli, plan, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    import numpy as np
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "blas": blas_name()}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
