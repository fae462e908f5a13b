"""One sha256 over the report bytes of a fixed set of ``haar-bloom`` runs.

    python3 tools/report_digest.py [--src DIR]
    python3 tools/report_digest.py --against REF [--src DIR]

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
seed 0-7.  Last come library calls whose results the CLI prints only in
part: ``opnorm`` of Lambda_b and of pi_b (kind "11"), and
``sup_commutator_norm`` exhaustive (depth 2) and sampled (12 pairs), at
depths 2 and 3, ``p`` in {1.5, 2, 3}, on symbols and strength-0.5 cascade
weights drawn from seeds 0-5.

Run it at the parent and at the change, for instance on a ``git archive``
export of the parent with ``--src <export>/src``: equal digests are the
evidence that a refactor moved no stdout or CSV/JSON byte.  The first line
on stdout is the digest of every run but the single-trial ones; one line
per command follows, ``<command> <digest>``, over that command's runs only,
so a change that moves the bytes of one command shows that the others did
not move.  The line ``single-trial <digest>`` covers the single-trial runs,
and the last line, ``library <digest>``, the library calls: per result its
``as_dict()`` as sorted JSON, its witness bytes and its sign pair's bytes,
so fields no report prints (``iterations``, ``pruned``, ``converged``,
``upper_bound``, the witness) are covered too.
Four lines close the output.  ``identity-gaps <digest>`` covers the ``repr``
of every gap ``identity_gap_suite`` returns on 16, 16 and 8 draws at depths
1, 2 and 3, digits the ``identities`` report rounds away in its maximum.
``cli-text <digest>`` covers the exit status, stdout and stderr of
``haar-bloom -h``, of each ``<command> -h`` and of a fixed set of refused
argument lists (relative ``--out`` paths, so the bytes do not depend on
where the repository lives), with ``COLUMNS=80``; its help text follows
the running Python's argparse.  ``rectangles <digest>`` covers the
functions that sum over dyadic rectangles, at depths 1-5 on four seeded
draws each of a symbol, a function, two strength-0.8 cascade weights and a
shadow: ``little_bmo`` (value and witness) and the ``A_p`` characteristics
of mu, lambda and the Bloom weight nu, plus ``average_comparability_report``'s
table, at ``p`` in {1.5, 2, 3}; and ``square_function`` and
``restricted_projection`` on the shadow, ``strong_maximal`` and
``triebel_lizorkin_square_function``.  ``bmo <digest>`` covers ``as_dict()``
(value, strategy and witness mask) of ``bmo_prod_norms`` on ``jn``'s two
pairs, the one-weight norm of the Bloom weight and the two-weight norm, at
``p`` in {1.5, 2, 3}: the exact search at depths 1-2 and the heuristic at
depths 2-4, on four seeded draws (two at depth 4) of a symbol and two
strength-0.5 cascade weights, the heuristic drawing its restarts from the
draw's generator.
stderr names the package directory it imported, which shows that
``--src`` took effect, numpy's version, and the OpenBLAS kernel numpy's
bundled scipy-openblas library runs (``unknown`` if neither the library nor
its ``scipy_openblas_get_corename64_`` is found).  A digest is evidence for
one numpy version and one kernel: digests taken on two kernels, such as
SkylakeX and Haswell, can differ, and the paraproduct and sign-average
matmuls keep the bits of numpy 2.4's ``einsum(optimize=True)`` plan,
which an older numpy may carry out in other steps.  Compare digests on one
of each.

``--against REF`` exports ``REF``'s ``src/`` with ``git archive`` into a
temporary directory, runs this tool in a fresh interpreter on that export
and then on ``--src``, and prints each line as ``equal <line>`` or
``DIFFERS <name> <REF's digest> <--src's digest>`` (the first line is named
``all``; two counts of lines print ``DIFFERS lines <n> <m>``); it exits 1
if any line differs.  Each side's stderr shows its
package, numpy and BLAS kernel.  It takes two digest runs.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
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
IDENTITY_DRAWS = {1: 16, 2: 16, 3: 8}
BMO_SEARCHES = (("exact", (1, 2)), ("heuristic", (2, 3, 4)))
BMO_DRAWS = {1: 4, 2: 4, 3: 4, 4: 2}
REFUSED = [
    ["jn", "--p", "1"], ["jn", "--p", "2,inf"], ["jn", "--delta", "-0.5"],
    ["identities", "--depth", "5"], ["jn", "--strategy", "heuristic", "--depth", "5"],
    ["paraproduct", "--strategy", "heuristic", "--depth", "5"],
    ["commutator", "--strategy", "heuristic", "--mode", "sampled", "--depth", "5"],
    ["commutator", "--p", "300"], ["commutator", "--p", "1.002"], ["jn", "--seed", "-1"],
    ["jn", "--out", "no-such-dir/rows.csv"], ["jn", "--out", "."],
    ["khintchine", "--depth", "40"], ["identities", "--p", "1.5", "--strategy", "heuristic"],
    ["jn", "--mode", "sampled"], ["paraproduct", "--mode", "exhaustive"],
    ["identities", "--delta", "0.5"], ["khintchine", "--strategy", "exact"],
    ["--bogus", "jn"], [], ["frobnicate"], ["jn", "--p", "two"],
]


def run_bytes(main, argv: list[str], folder: Path) -> bytes:
    """Argument list, exit status, stdout and ``--out`` bytes of one run."""
    out = folder / "artifact"
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out)])
    return b"\0".join([" ".join(argv).encode(), str(code).encode(),
                       stdout.getvalue().encode(), out.read_bytes()])


def cli_text_bytes(main, argv: list[str]) -> bytes:
    """Argument list, exit status, stdout and stderr of one run that stops in the parser."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return b"\0".join([" ".join(argv).encode(), str(code).encode(),
                       stdout.getvalue().encode(), stderr.getvalue().encode()])


def identity_gap_bytes():
    """``name=repr(gap)`` of every gap of the ``identity-gaps`` draws, in a fixed order."""
    import numpy as np
    from haarbloom.experiments import identity_gap_suite

    for depth, draws in IDENTITY_DRAWS.items():
        for draw in range(draws):
            gaps = identity_gap_suite(depth, np.random.default_rng([depth, draw]))
            yield "\n".join(f"{name}={gap!r}" for name, gap in gaps.items()).encode()


def library_results():
    """The library calls of the ``library`` line, in a fixed order."""
    import numpy as np
    from haarbloom.dyadic import random_symbol
    from haarbloom.operators import lambda_matrix, paraproduct_matrix
    from haarbloom.opnorm import opnorm, sup_commutator_norm
    from haarbloom.weights import random_cascade_weight

    for seed in range(6):
        for depth in (2, 3):
            rng = np.random.default_rng(seed)
            b = random_symbol(depth, rng)
            mu, lam = (random_cascade_weight(depth, 0.5, rng) for _ in range(2))
            for p in (1.5, 2.0, 3.0):
                yield opnorm(lambda_matrix(b), mu, lam, p)
                yield opnorm(paraproduct_matrix("11", b), mu, lam, p)
                if depth == 2:
                    yield sup_commutator_norm(b, mu, lam, p, mode="exhaustive")
                yield sup_commutator_norm(b, mu, lam, p, mode="sampled", trials=12, seed=seed)


def rectangle_bytes():
    """The results of the ``rectangles`` line, in a fixed order, as bytes."""
    import numpy as np
    from haarbloom.dyadic import Shadow, random_grid
    from haarbloom.norms import (little_bmo, square_function, strong_maximal,
                                 triebel_lizorkin_square_function)
    from haarbloom.operators import restricted_projection
    from haarbloom.weights import (ap_characteristic, average_comparability_report,
                                   bloom_weight, random_cascade_weight)

    for depth in range(1, 6):
        for seed in range(4):
            rng = np.random.default_rng([depth, seed])
            b, f = random_grid(depth, rng), random_grid(depth, rng)
            mu, lam = (random_cascade_weight(depth, 0.8, rng) for _ in range(2))
            shadow = Shadow(rng.random((1 << depth,) * 2) < 0.7)
            for grid in (square_function(f, shadow), restricted_projection(f, shadow),
                         strong_maximal(f)):
                yield grid.values.tobytes()
            for p in (1.5, 2.0, 3.0):
                yield json.dumps(little_bmo(b, mu, lam, p).as_dict(), sort_keys=True).encode()
                mu_p = ap_characteristic(mu, p)           # alone, before the stacked pass
                nu = bloom_weight(mu, lam, p)
                for rep in (mu_p, ap_characteristic(lam, p), ap_characteristic(nu, 2.0)):
                    yield json.dumps(rep.as_dict(), sort_keys=True).encode()
                yield average_comparability_report(mu, p).table.tobytes()
                yield triebel_lizorkin_square_function(f, mu, p).values.tobytes()


def bmo_bytes():
    """The results of the ``bmo`` line, in a fixed order, as bytes."""
    import numpy as np
    from haarbloom.dyadic import random_symbol
    from haarbloom.norms import bmo_prod_norms, one_weight_pair
    from haarbloom.weights import bloom_weight, random_cascade_weight

    for strategy, depths in BMO_SEARCHES:
        for depth in depths:
            for seed in range(BMO_DRAWS[depth]):
                rng = np.random.default_rng([depth, seed])
                b = random_symbol(depth, rng)
                mu, lam = (random_cascade_weight(depth, 0.5, rng) for _ in range(2))
                for p in (1.5, 2.0, 3.0):
                    pairs = [one_weight_pair(bloom_weight(mu, lam, p)), (mu, lam, p)]
                    for res in bmo_prod_norms(b, pairs, strategy, seed=rng):
                        yield json.dumps(res.as_dict(), sort_keys=True).encode()


def result_bytes(res) -> bytes:
    """``as_dict()`` as sorted JSON, the witness bytes and the sign pair's bytes."""
    witness = b"" if res.witness is None else res.witness.values.tobytes()
    signs = b"" if res.sign_pair is None else b"".join(s.signs.tobytes() for s in res.sign_pair)
    return b"\0".join([json.dumps(res.as_dict(), sort_keys=True).encode(), witness, signs])


def blas_core() -> str:
    """The core type OpenBLAS picked at load time, from numpy's bundled library."""
    import numpy as np
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def compare(ref: str, src: Path) -> int:
    """Print each digest line of ``ref``'s ``src/`` against ``src``'s; 1 if any differs."""
    with tempfile.TemporaryDirectory() as folder:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", folder], input=archive, check=True)
        before, after = (subprocess.run([sys.executable, __file__, "--src", str(where)], check=True,
                                        stdout=subprocess.PIPE, text=True).stdout.splitlines()
                         for where in (Path(folder) / "src", src))
    differs = len(before) != len(after)
    if differs:
        print(f"DIFFERS lines {len(before)} {len(after)}")
    for old, new in zip(before, after):
        name, digest = old.split()[-2:] if " " in old else ("all", old)
        print(f"equal {old}" if old == new else f"DIFFERS {name} {digest} {new.split()[-1]}")
        differs |= old != new
    return int(differs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the haarbloom package (default: src/ here)")
    parser.add_argument("--against", metavar="REF",
                        help="compare every line with the package at git ref REF instead")
    args = parser.parse_args()
    if args.against:
        sys.exit(compare(args.against, args.src.resolve()))
    sys.path.insert(0, str(args.src.resolve()))
    from haarbloom.cli import main as cli_main
    print("package:", Path(sys.modules["haarbloom"].__file__).parent, file=sys.stderr)
    print("numpy:", sys.modules["numpy"].__version__, file=sys.stderr)
    print("blas core:", blas_core(), file=sys.stderr)

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
    library = hashlib.sha256()
    for res in library_results():
        library.update(hashlib.sha256(result_bytes(res)).digest())
    print("library", library.hexdigest())
    gaps = hashlib.sha256()
    for text in identity_gap_bytes():
        gaps.update(hashlib.sha256(text).digest())
    print("identity-gaps", gaps.hexdigest())
    os.environ["COLUMNS"] = "80"
    texts = hashlib.sha256()
    for argv in [["-h"]] + [[command, "-h"] for command in commands] + REFUSED:
        texts.update(hashlib.sha256(cli_text_bytes(cli_main, argv)).digest())
    print("cli-text", texts.hexdigest())
    rectangles = hashlib.sha256()
    for data in rectangle_bytes():
        rectangles.update(hashlib.sha256(data).digest())
    print("rectangles", rectangles.hexdigest())
    bmo = hashlib.sha256()
    for data in bmo_bytes():
        bmo.update(hashlib.sha256(data).digest())
    print("bmo", bmo.hexdigest())


if __name__ == "__main__":
    main()
