"""Alternating parent/change runs of the benchmark, summarised in ``BENCH_<workload>.json``.

    python3 tools/bench_pair.py --workload identities-d2 --parent HEAD~1 \
        --pairs 10 --seeds 3,4,5,6,7,8,9,10,11,12

The committed files of ``--parent`` and of ``HEAD`` are each exported with
``git archive`` into a temporary directory, so both sides run exactly what
their commit holds, from a fresh checkout alike, and nothing is registered in
``.git``.  Uncommitted changes under ``src/`` or ``bench/`` are refused
rather than left out of the run.  Each pair then runs the unchanged
``bench/run.py --trace 0`` once in each export, with the same seed and the
``run_seconds`` of ``BENCHMARK.json``, alternating which side goes first.
Pair ``i`` uses seed ``seeds[i % len(seeds)]``.

The output file holds, for every end-to-end metric, each side's runs,
median and quartiles, how many pairs the change won (by the direction
``BENCHMARK.json`` gives the metric), the relative change of the medians
and the parent's interquartile range; plus the seeds, the run order,
``nproc``, the CPU, the Python, numpy and BLAS versions, and both SHAs.
A gain holds when the change wins at least nine tenths of the pairs and
its median beats the parent's by more than the parent's interquartile
range.  Every run's output check (trials rejected by
``bench/reference.json``) is recorded too.

Each ``bench/run.py`` starts in a session of its own, and SIGTERM is turned
into ``SystemExit``, so however the tool exits it kills that process group
(``bench/run.py`` and its workers) and the exports are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref: str, dest: Path) -> Path:
    """Write the committed tree of ``ref`` into ``dest/<ref's sha>`` and return that path."""
    tree = dest / git("rev-parse", ref)
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run: its final JSON line plus its report's environment."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        # whatever ended the wait, no worker may outlive it on the export
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{stderr}")
    summary = json.loads(stdout.strip().splitlines()[-1])
    report = json.loads((tree / "bench" / "out" /
                         f"result-{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: m["value"] for k, m in summary["metrics"].items()},
            "units": {k: m["unit"] for k, m in summary["metrics"].items()},
            "attempted": summary["attempted"], "failed": summary["failed"],
            "environment": report["environment"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, pair wins and the gain verdict."""
    spec = {m["name"]: m for m in end_to_end}
    out = {}
    for name, unit in runs["parent"][0]["units"].items():
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        better = spec.get(name, {}).get("better", "higher")
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = spread(sides["parent"]), spread(sides["change"])
        gap = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": unit, "better": better, "bound": spec.get(name, {}).get("bound"),
            "parent": parent, "change": change, "change_won_pairs": wins,
            "median_rel_change": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["q3"] - parent["q1"],
            "gain": wins >= 0.9 * len(sides["parent"]) and gap > parent["q3"] - parent["q1"],
        }
    return out


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD~1", help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1", help="comma-separated benchmark seeds")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json at the root")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if dirty := git("status", "--porcelain", "--", "src", "bench"):
        parser.error(f"commit or stash the changes under src/ and bench/ first:\n{dirty}")
    out_path = args.out or ROOT / f"BENCH_{args.workload}.json"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    order = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": export(args.parent, Path(tmp)), "change": export("HEAD", Path(tmp))}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(sides[0] + " first")
            for side in sides:
                run = run_bench(trees[side], args.workload, seed, seconds)
                runs[side].append(run)
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{json.dumps(run['metrics'])} failed {run['failed']}/{run['attempted']}",
                      file=sys.stderr, flush=True)

    env = runs["change"][0]["environment"]
    result = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": args.pairs, "seeds": [seeds[i % len(seeds)] for i in range(args.pairs)],
        "order": order,
        # the src/ tree hashes still identify what ran after a commit is amended
        "parent": {"ref": args.parent, "sha": trees["parent"].name,
                   "src_tree": git("rev-parse", f"{trees['parent'].name}:src")},
        "change": {"sha": trees["change"].name,
                   "src_tree": git("rev-parse", f"{trees['change'].name}:src")},
        "environment": {k: env.get(k) for k in ("nproc", "cpu", "blas_threads", "python",
                                                "numpy", "blas")},
        "metrics": summarise(runs, bench["end_to_end"]),
        "output_check": {side: {"attempted": sum(r["attempted"] for r in rs),
                                "failed": sum(r["failed"] for r in rs)}
                         for side, rs in runs.items()},
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
