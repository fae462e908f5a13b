"""Smoke test of the benchmark itself: a few trials per workload, every metric present.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute on two cores.  Checks that each workload's result
line carries exactly the metrics BENCHMARK.json declares, with their
units, and that no trial was rejected.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> tuple[list[str], dict]:
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload: str, trace: int) -> None:
    lines, result = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert any(line.split()[:1] == [name] for line in lines), f"{name} not printed"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_trials() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import worker

    for name in WORKLOADS:
        a, b = worker.TrialPlan(name, 11), worker.TrialPlan(name, 11)
        other = worker.TrialPlan(name, 12)
        first = [a.trial(i) for i in range(500)]
        assert first == [b.trial(i) for i in range(500)]
        assert first != [other.trial(i) for i in range(500)]


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
