"""Record bench/reference.json: every pooled trial's checked values and byte digests.

    python3 bench/record_reference.py

Runs each (combo, pool seed) trial of every workload through
``haarbloom.cli.main`` from this checkout's ``src/``, and writes the
reference anew.  Re-record only when a change to the program is meant to
change its outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys

import worker

sys.path.insert(0, str(worker.ROOT / "src"))


def record(name: str) -> dict:
    from haarbloom import cli

    plan = worker.TrialPlan(name, 0)
    entries = {}
    for combo in range(len(plan.workload.combos)):
        for cli_seed in range(plan.workload.pool):
            out = worker.run_trial(cli, plan, combo, cli_seed)
            if out.status != 0:
                raise SystemExit(f"{name} combo {combo} seed {cli_seed} failed: "
                                 f"status {out.status} {out.error}")
            passed, values = worker.trial_values(plan.workload, out)
            if not passed:
                raise SystemExit(f"{name} combo {combo} seed {cli_seed}: pass is false")
            entries[f"{combo}:{cli_seed}"] = {
                "values": values,
                "json_sha256": worker.digest(out.stdout),
                "csv_sha256": worker.digest(out.csv) if plan.workload.csv else None,
            }
    return entries


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit(__doc__)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT,
                         capture_output=True, text=True).stdout.strip()
    ref = {"recorded_at": sha or None, "workloads": {}}
    for name in sorted(worker.WORKLOADS):
        ref["workloads"][name] = record(name)
        print(f"recorded {name}: {len(ref['workloads'][name])} trials", flush=True)
    worker.REFERENCE_PATH.write_text(
        json.dumps(ref, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
