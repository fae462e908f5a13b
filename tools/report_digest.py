"""One sha256 over the report bytes of a fixed set of ``haar-bloom`` runs.

    python3 tools/report_digest.py [--src DIR]

Every run calls ``haarbloom.cli.main`` in process and hashes its argument
list, its exit status, its stdout and the bytes it wrote to ``--out``.
The runs are ``jn`` (depth 2 exact, depth 3 heuristic), ``commutator``
(depth 2 exhaustive, depth 3 sampled heuristic) and ``paraproduct``
(depth 2), each with ``--p 1.5,2,3 --delta 0,0.5 --trials 3`` at seeds
0-3; the same sweep of ``jn --depth 4 --strategy heuristic`` at seed 0;
and one ``identities --depth 2`` and one ``khintchine`` run.  Single-trial
runs shaped like the benchmark's follow, where every ``p != 2`` norm is
solved on its own: ``commutator`` and ``paraproduct`` at depth 2 with
``--trials 1``, one run per ``p`` in {1.5, 3}, ``delta`` in {0, 0.5} and
seed 0-7.

Run it at the parent and at the change, for instance on a ``git archive``
export of the parent with ``--src <export>/src``: equal digests are the
evidence that a refactor moved no stdout or CSV/JSON byte.  The first line
on stdout is the digest of every run but the single-trial ones; one line
per command follows, ``<command> <digest>``, over that command's runs only,
so a change that moves the bytes of one command shows that the others did
not move.  The last line, ``single-trial <digest>``, covers the single-trial
runs.
stderr names the package directory it imported, which shows that
``--src`` took effect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP = ["--p", "1.5,2,3", "--delta", "0,0.5", "--trials", "3"]
SHAPES = [
    ["jn", "--depth", "2", "--strategy", "exact"],
    ["jn", "--depth", "3", "--strategy", "heuristic"],
    ["commutator", "--depth", "2", "--strategy", "exact", "--mode", "exhaustive"],
    ["commutator", "--depth", "3", "--strategy", "heuristic", "--mode", "sampled"],
    ["paraproduct", "--depth", "2", "--strategy", "exact"],
]
RUNS = ([shape + SWEEP + ["--seed", str(seed)] for shape in SHAPES for seed in range(4)]
        + [["jn", "--depth", "4", "--strategy", "heuristic"] + SWEEP + ["--seed", "0"],
           ["identities", "--depth", "2", "--seed", "0"],
           ["khintchine", "--seed", "0"]])
SINGLE_TRIAL_RUNS = [shape + ["--p", p, "--delta", delta, "--trials", "1", "--seed", str(seed)]
                     for shape in (SHAPES[2], SHAPES[4]) for p in ("1.5", "3")
                     for delta in ("0", "0.5") for seed in range(8)]


def run_bytes(main, argv: list[str], folder: Path) -> bytes:
    """Argument list, exit status, stdout and ``--out`` bytes of one run."""
    out = folder / "artifact"
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out)])
    return b"\0".join([" ".join(argv).encode(), str(code).encode(),
                       stdout.getvalue().encode(), out.read_bytes()])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the haarbloom package (default: src/ here)")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from haarbloom.cli import main as cli_main
    print("package:", Path(sys.modules["haarbloom"].__file__).parent, file=sys.stderr)

    total = hashlib.sha256()
    commands = {argv[0]: hashlib.sha256() for argv in RUNS}
    with tempfile.TemporaryDirectory() as folder:
        for argv in RUNS:
            run = hashlib.sha256(run_bytes(cli_main, argv, Path(folder))).digest()
            total.update(run)
            commands[argv[0]].update(run)
        single = hashlib.sha256()
        for argv in SINGLE_TRIAL_RUNS:
            single.update(hashlib.sha256(run_bytes(cli_main, argv, Path(folder))).digest())
    print(total.hexdigest())
    for command, digest in commands.items():
        print(command, digest.hexdigest())
    print("single-trial", single.hexdigest())


if __name__ == "__main__":
    main()
