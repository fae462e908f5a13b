"""haarbloom benchmark: seeded CLI sweeps, end-to-end and per-layer metrics.

    python3 bench/run.py --workload commutator-d2 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: set-up time over several
fresh interpreters, then trials in a closed loop for ``--seconds``
seconds.  ``--trace 1`` runs a fixed list of trials with every public
haarbloom function wrapped, in two fresh interpreters whose counts must
agree, and reports the per-layer metrics of the first.  Every trial's
output is checked against ``bench/reference.json``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report, with the environment stamp, goes to
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import tracing
import worker

ROOT, OUT_DIR = worker.ROOT, worker.OUT_DIR
WORKLOADS = tuple(worker.WORKLOADS)
#: fresh interpreters whose set-up time is measured; the last one goes on to the timed loop
SETUP_SAMPLES = 5
#: a worker still running this many seconds after its --seconds are up is killed
WORKER_MARGIN_S = 120.0
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict[str, str]:
    """This process's environment with src/ first on the path and one BLAS thread.

    One thread is within the "at most nproc" the benchmark allows.  On the
    two-vCPU host it was written on, a second BLAS thread bought no speed
    (16x16 matrices, 65535x16 products) but made trials wait on the other
    vCPU: involuntary context switches and tail trials twice the median.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(BLAS_THREADS)))
    return env


def run_worker(workload: str, seed: int, seconds: float,
               mode: str) -> tuple[float, float, dict | None]:
    """Start one worker and wait for it.

    Returns its raw set-up seconds, the factor that scales them to the
    probe's reference speed, and its final JSON (None in setup mode).
    """
    cmd = [sys.executable, worker.__file__, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + WORKER_MARGIN_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        probe = proc.stdout.readline().split()
        rest = proc.stdout.read()
        status = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if status != 0 or first.strip() != "ready" or probe[:1] != ["probe"]:
        raise BenchError(f"{workload} worker ({mode}) exited with status {status}")
    scale = worker.PROBE_REF_S / float(probe[1])
    if mode == "setup":
        return setup_s, scale, None
    return setup_s, scale, json.loads(rest.strip().splitlines()[-1])


def environment() -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, env={**os.environ,
                                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"nproc": nproc(), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "git_sha": sha, "git_dirty": None if status is None else bool(status)}


def bench_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the full report."""
    if trace:
        _, _, result = run_worker(workload, seed, seconds, "traced")
        _, _, again = run_worker(workload, seed, seconds, "traced")
        counts = [{k: r["metrics"][k][0] for k in tracing.REPEATABLE} for r in (result, again)]
        if counts[0] != counts[1]:
            raise BenchError(f"{workload}: counts differ between two traced processes "
                             f"of seed {seed}: {counts}")
        for key in ("attempted", "failed", "json_bytes_match", "csv_bytes_match"):
            if result["check"][key] is not None:
                result["check"][key] += again["check"][key]
        result["check"]["rejections"] += again["check"]["rejections"]
        setup = {}
    else:
        samples = [run_worker(workload, seed, seconds, "setup")[:2]
                   for _ in range(SETUP_SAMPLES - 1)]
        raw, scale, result = run_worker(workload, seed, seconds, "timed")
        samples.append((raw, scale))
        setup = {"setup_s": (statistics.median(r * k for r, k in samples), "s")}
        result["info"]["raw.setup_s"] = statistics.median(r for r, _ in samples)
    check = result["check"]
    metrics = {**result["metrics"], **setup}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": check["failed"] == 0, "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "info": result["info"], "check": check,
        "environment": {**environment(), **result["versions"]},
    }


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, trace {report['trace']})")
    for name, m in report["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    check = report["check"]
    print(f"  {'failed_frac':36s} {check['failed'] / check['attempted']:>14.6g} fraction")
    for name, value in report["info"].items():
        print(f"  {name:36s} {json.dumps(value)}")
    print(f"  output check: {check['failed']} of {check['attempted']} trials rejected; "
          f"byte-identical JSON {check['json_bytes_match']}, CSV {check['csv_bytes_match']}")
    for line in check["rejections"]:
        print(f"  rejected: {line}")
    print("  environment: " + json.dumps(report["environment"]), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "haarbloom" / "__init__.py").is_file():
        print(f"no haarbloom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            report = bench_one(name, args.seed, args.seconds, bool(args.trace))
            path = OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(report, indent=2) + "\n")
            print_report(report)
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in reports for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
