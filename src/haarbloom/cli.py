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
from functools import lru_cache
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


#: every option with its argparse settings
_OPTIONS = {
    "--depth": dict(type=int, default=2,
                    help="grid refinement: 2^depth cells per axis (default 2)"),
    "--p": dict(type=_float_list, default=(2.0,), metavar="P[,P...]",
                help="integrability exponents, comma separated (default 2)"),
    "--delta": dict(type=_float_list, default=(0.0,), metavar="D[,D...]",
                    help="weight cascade strengths, comma separated (default 0)"),
    "--trials": dict(type=int, default=10,
                     help="trials per (p, delta) combination (default 10)"),
    "--seed": dict(type=int, default=0,
                   help="base seed; reports are reproducible bytes (default 0)"),
    "--strategy": dict(choices=("exact", "heuristic"), default="exact",
                       help="BMO search strategy (default exact)"),
    "--mode": dict(choices=("exhaustive", "sampled"), default="exhaustive",
                   help="sign supremum walk (default exhaustive)"),
    "--out": dict(type=Path, default=None,
                  help="artifact path: per-trial CSV for ratio commands, "
                       "JSON report otherwise"),
}

_SWEEP_OPTIONS = ("--depth", "--p", "--delta", "--trials", "--seed", "--strategy", "--out")

#: each command with its help and the options it reads; the others are refused
_COMMANDS = {
    "identities": ("check every exact operator identity on random draws",
                   ("--depth", "--trials", "--seed", "--out")),
    "jn": ("compare one-weight and two-weight product BMO norms", _SWEEP_OPTIONS),
    "commutator": ("sign-supremum commutator norms against paraproduct and BMO norms",
                   tuple(_OPTIONS)),
    "khintchine": ("moment identities for bilinear sign averages",
                   ("--trials", "--seed", "--out")),
    "paraproduct": ("paraproduct operator norms against BMO and rectangle oscillation",
                    _SWEEP_OPTIONS),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves no state in it.

    An option a command does not read is not registered on it, so passing
    it is a usage error; its default still fills the namespace, so every
    report echoes the full config.  A usage error goes through the
    command's own parser (``usage_error``), so it shows that command's usage.
    """
    parser = argparse.ArgumentParser(
        prog="haar-bloom",
        description="Seeded experiments for the dyadic biparameter Haar calculus "
                    "with weight pairs on the unit square.")
    parser.set_defaults(**{flag[2:]: settings["default"] for flag, settings in _OPTIONS.items()})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(usage_error=cmd.error)
        for flag in options:
            cmd.add_argument(flag, **_OPTIONS[flag])
    return parser


def _parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse arguments into a config; an unaffordable combination is a usage error.

    The top level takes no option but ``-h``, so whatever stands before the
    command is unknown and is reported through the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    leading = argv[:argv.index(args.command)]
    if leading:
        parser.error(f"unrecognized arguments: {' '.join(leading)}")
    if unknown:
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return ExperimentConfig(
            command=args.command, depth=args.depth, p_values=args.p,
            deltas=args.delta, trials=args.trials, seed=args.seed,
            strategy=args.strategy, mode=args.mode, out=args.out)
    except ValueError as exc:
        args.usage_error(str(exc))


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
