"""Seeded sweep of ``haar-bloom`` over admissible argument lists, one process at a time.

    python3 tools/stress_sweep.py [--runs 96] [--seed 0]

Admissible means that ``ExperimentConfig`` accepts the arguments, so the
sweep follows the package's own limits instead of copying them: each
command's depth limit is probed per strategy and mode, and depths are drawn
up to it.  The exponents come from both ends of ``P_RANGE``, 2 and a draw in
between; the weight strengths go up to 1e6; both strategies and both modes
are drawn.  Run ``i`` is a command picked round-robin, so every command
runs; the argument lists listed in ``KNOWN`` come first.

Each run is one ``python -m haarbloom.cli`` process of this checkout's
``src/``, with one BLAS thread and a wall-time cap of ``TIMEOUT`` seconds,
and the sweep records its exit status, wall time and the last line of its
stderr (the last traceback line), or, for a report that failed its checks,
the first violation.  Exit 0 is a pass and exit 2 a refusal, both fine;
exit 1 or a timeout is a fault.  The sweep prints one line per run and a
summary, and exits 1 when any run was a fault.  It is a tool rather than a
test: the default 96 runs take about 35 s on a 2-vCPU Xeon, most of it in
depth-4 ``commutator`` runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from haarbloom.experiments import P_RANGE, READS, ExperimentConfig
from haarbloom.norms import STRATEGIES
from haarbloom.opnorm import MODES

#: argument lists that once exited 1, run first in every sweep
KNOWN = (
    ["commutator", "--depth", "4", "--p", "1.5", "--delta", "0.5", "--mode", "sampled",
     "--strategy", "heuristic", "--trials", "10", "--seed", "1"],
)
DELTAS = (0.0, 0.5, 1.0, 50.0, 1e3, 1e6)
TRIALS = (1, 2, 5, 10)
#: no command is probed deeper than this
DEPTH_CEILING = 8
#: wall-time cap of one run, in seconds
TIMEOUT = 120.0


def depth_limit(command: str, strategy: str, mode: str) -> int:
    """The deepest grid ``ExperimentConfig`` accepts for these settings."""
    depth = 0
    while depth < DEPTH_CEILING:
        try:
            ExperimentConfig(command, depth=depth + 1, strategy=strategy, mode=mode)
        except ValueError:
            break
        depth += 1
    return depth


def draw(command: str, rng: np.random.Generator) -> list[str]:
    """One admissible argument list for ``command``."""
    reads = READS[command]
    strategy = str(rng.choice(STRATEGIES)) if "strategy" in reads else STRATEGIES[0]
    mode = str(rng.choice(MODES)) if "mode" in reads else MODES[0]
    argv = [command, "--trials", str(rng.choice(TRIALS)), "--seed", str(rng.integers(0, 1000))]
    if "depth" in reads:
        limit = depth_limit(command, strategy, mode)
        # half the runs at the limit, the rest spread below it
        depth = limit if rng.random() < 0.5 else int(rng.integers(1, limit + 1))
        argv += ["--depth", str(depth)]
    if "strategy" in reads:
        argv += ["--strategy", strategy]
    if "mode" in reads:
        argv += ["--mode", mode]
    if "p_values" in reads:
        middle = round(float(rng.uniform(*P_RANGE)), 3)
        pool = (P_RANGE[0], P_RANGE[1], 2.0, middle)
        ps = rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)
        argv += ["--p", ",".join(f"{p:g}" for p in ps)]
    if "deltas" in reads:
        ds = rng.choice(DELTAS, size=int(rng.integers(1, 3)), replace=False)
        argv += ["--delta", ",".join(f"{d:g}" for d in ds)]
    return argv


def run(argv: list[str]) -> dict:
    """One ``haar-bloom`` process: its status, wall time and last telling line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "haarbloom.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"argv": argv, "status": "timeout", "seconds": TIMEOUT, "last": ""}
    lines = proc.stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode == 1 and not last:
        try:
            last = json.loads(proc.stdout)["violations"][0]
        except (ValueError, KeyError, IndexError):
            last = proc.stdout.strip()[-200:]
    return {"argv": argv, "status": proc.returncode,
            "seconds": round(time.perf_counter() - start, 2), "last": last}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=96, help="drawn runs, after KNOWN")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    commands = list(READS)
    argvs = [list(a) for a in KNOWN] + [draw(commands[i % len(commands)], rng)
                                        for i in range(args.runs)]
    records = []
    for argv in argvs:
        rec = run(argv)
        records.append(rec)
        print(f"{rec['status']!s:>7} {rec['seconds']:7.2f}s  {' '.join(argv)}"
              + (f"\n        {rec['last']}" if rec["status"] not in (0, 2) else ""),
              flush=True)
    counts = {}
    for rec in records:
        counts[str(rec["status"])] = counts.get(str(rec["status"]), 0) + 1
    faults = [rec for rec in records if rec["status"] not in (0, 2)]
    summary = {"seed": args.seed, "runs": len(records), "by_status": counts,
               "faults": len(faults),
               "seconds": round(sum(rec["seconds"] for rec in records), 1)}
    print(json.dumps(summary, sort_keys=True))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
