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

from .experiments import COMMANDS, READS, ExperimentConfig, write_records_csv
from .norms import STRATEGIES
from .opnorm import MODES


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


#: each command's help line, in the order ``-h`` lists them
_HELP = {
    "identities": "check every exact operator identity on random draws",
    "jn": "compare one-weight and two-weight product BMO norms",
    "commutator": "sign-supremum commutator norms against paraproduct and BMO norms",
    "khintchine": "moment identities for bilinear sign averages",
    "paraproduct": "paraproduct operator norms against BMO and rectangle oscillation",
}

#: each config field's flag, help and argparse settings, in the order usage lists them
_OPTIONS = {
    "depth": ("--depth", "grid refinement: 2^depth cells per axis", dict(type=int)),
    "p_values": ("--p", "integrability exponents, comma separated",
                 dict(type=_float_list, metavar="P[,P...]")),
    "deltas": ("--delta", "weight cascade strengths, comma separated",
               dict(type=_float_list, metavar="D[,D...]")),
    "trials": ("--trials", "trials per (p, delta) combination", dict(type=int)),
    "seed": ("--seed", "base seed; reports are reproducible bytes", dict(type=int)),
    "strategy": ("--strategy", "BMO search strategy", dict(choices=STRATEGIES)),
    "mode": ("--mode", "sign supremum walk", dict(choices=MODES)),
    "out": ("--out", "artifact path: per-trial CSV for ratio commands, JSON report otherwise",
            dict(type=Path)),
}


@lru_cache(maxsize=None)
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own, built once per process; parsing
    leaves no state in them.  A command's parser takes an option for each field
    ``READS`` names, defaulting to the field's default; any other is a usage error."""
    top = argparse.ArgumentParser(
        prog="haar-bloom",
        description="Seeded experiments for the dyadic biparameter Haar calculus "
                    "with weight pairs on the unit square.")
    sub = top.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in _HELP.items():
        cmd = commands[name] = sub.add_parser(name, help=help_text)
        defaults = vars(ExperimentConfig(name))
        for field, (flag, text, settings) in _OPTIONS.items():
            if field in READS[name]:
                shown = defaults[field]
                if isinstance(shown, tuple):
                    shown = ",".join(f"{v:g}" for v in shown)
                cmd.add_argument(flag, dest=field, default=defaults[field], **settings,
                                 help=text if shown is None else f"{text} (default {shown})")
    return top, commands


def _parse_config(argv: list[str] | None = None) -> ExperimentConfig:
    """Parse arguments into a config; an unaffordable combination is a usage error.
    The command's own parser takes what follows the command; an argument list that
    does not start with one (``-h``, an unknown command, ...) goes to the top level."""
    argv = sys.argv[1:] if argv is None else list(argv)
    top, commands = build_parser()
    if not argv or argv[0] not in commands:
        top.parse_args(argv)                # exits: help, or a usage error
        top.error(f"unrecognized arguments: {argv[0]}")    # "--" before it, if that parses
    cmd = commands[argv[0]]
    args = cmd.parse_args(argv[1:])
    try:
        return ExperimentConfig(argv[0], **vars(args))
    except ValueError as exc:
        cmd.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    cfg = _parse_config(argv)
    result = COMMANDS[cfg.command](cfg)
    report, records = result if isinstance(result, tuple) else (result, None)
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out is not None:
        if records is None:
            Path(cfg.out).write_text(text + "\n")
        else:
            write_records_csv(records, cfg.out)
    print(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
