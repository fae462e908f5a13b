"""Command line front end: seeded experiments with CSV/JSON artifacts.

Exit status is 0 exactly when every asserted invariant of the requested
experiment held, 1 when one failed, and 2 for a usage error: bad
arguments, or a combination the grid cannot afford (an exhaustive
search beyond its depth limit), refused before any trial runs.  The JSON
summary goes to stdout; ``--out`` writes the per-trial CSV (ratio
commands) or the JSON report (the others).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import COMMANDS, ExperimentConfig, write_records_csv


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haar-bloom",
        description="Seeded experiments for the dyadic biparameter Haar calculus "
                    "with weight pairs on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "identities": "check every exact operator identity on random draws",
        "jn": "compare one-weight and two-weight product BMO norms",
        "commutator": "sign-supremum commutator norms against paraproduct and BMO norms",
        "khintchine": "moment identities for bilinear sign averages",
        "paraproduct": "paraproduct operator norms against BMO and rectangle oscillation",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--depth", type=int, default=2,
                         help="grid refinement: 2^depth cells per axis (default 2)")
        cmd.add_argument("--p", type=_float_list, default=(2.0,), metavar="P[,P...]",
                         help="integrability exponents, comma separated (default 2)")
        cmd.add_argument("--delta", type=_float_list, default=(0.0,), metavar="D[,D...]",
                         help="weight cascade strengths, comma separated (default 0)")
        cmd.add_argument("--trials", type=int, default=10,
                         help="trials per (p, delta) combination (default 10)")
        cmd.add_argument("--seed", type=int, default=0,
                         help="base seed; reports are reproducible bytes (default 0)")
        cmd.add_argument("--strategy", choices=("exact", "heuristic"), default="exact",
                         help="BMO search strategy (default exact)")
        cmd.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                         help="sign supremum walk (default exhaustive)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="artifact path: per-trial CSV for ratio commands, "
                              "JSON report otherwise")
    return parser


def _parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse arguments into a config; an unaffordable combination is a usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return ExperimentConfig(
            command=args.command, depth=args.depth, p_values=args.p,
            deltas=args.delta, trials=args.trials, seed=args.seed,
            strategy=args.strategy, mode=args.mode, out=args.out)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    cfg = _parse_config(argv)
    result = COMMANDS[cfg.command](cfg)
    if isinstance(result, tuple):
        report, records = result
        if cfg.out is not None:
            write_records_csv(records, cfg.out)
    else:
        report = result
        if cfg.out is not None:
            Path(cfg.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
