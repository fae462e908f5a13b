"""Spans and counters around haarbloom's public functions, from outside ``src/``.

``install`` replaces every public module-level function of the seven
package modules by a wrapper, wherever the function is bound: its own
module, every module that bound it with ``from ... import``, the package
namespace, and module-level dicts such as ``experiments.COMMANDS``.
Calls inside a module resolve through the module's globals, so they are
wrapped too.

Each wrapper records a span (name, start, end, parent span, trial id) in
memory and charges the span's self time (its duration minus its direct
children's) to one bucket: the function's module, or a finer
``<module>.<part>`` for the parts the benchmark reports separately.
Counters are computed from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("dyadic", "weights", "operators", "norms", "opnorm", "experiments", "cli")

#: counts that must repeat exactly between two traced passes over the same trials
REPEATABLE = ("dyadic.transform.calls", "operators.materialize.columns",
              "opnorm.lp.iterations", "opnorm.sup.pairs_scored", "norms.bmo_exact.masks")

#: self-time buckets finer than the module, by function name
BUCKETS = {
    "opnorm_p2_exact": "opnorm.svd",
    "opnorm_lp_lower": "opnorm.lp",
    "sup_commutator_norm": "opnorm.sup",
    "lp_weighted_norm": "norms.other",
    "little_bmo": "norms.other",
    "square_function": "norms.other",
    "triebel_lizorkin_square_function": "norms.other",
    "strong_maximal": "norms.other",
    # defined in experiments, but only the CLI calls it, to write its artifact
    "write_records_csv": "cli",
}
#: the two BMO searches are charged to norms.bmo_<strategy argument>
BMO_SEARCHES = {"bmo_prod_two_weight", "bmo_prod_one_weight"}
APPLY_ENTRY_POINTS = {
    "commutator_apply", "nested_commutator_apply", "iterated_commutator",
    "iterated_projection_commutator", "haar_multiplier", "haar_multiplier_x",
    "haar_multiplier_y", "paraproduct_apply", "lambda_apply", "theta_apply",
}

SELF_BUCKETS = ("dyadic", "weights", "operators", "norms.bmo_heuristic", "norms.bmo_exact",
                "norms.other", "opnorm.svd", "opnorm.lp", "opnorm.sup", "opnorm.other",
                "experiments", "cli")
COUNTS = ("dyadic.transform.calls", "operators.materialize.calls",
          "operators.materialize.columns", "operators.apply.calls", "opnorm.svd.calls",
          "opnorm.lp.calls", "opnorm.lp.iterations", "opnorm.sup.pairs_scored",
          "norms.bmo_heuristic.calls", "norms.bmo_exact.calls", "norms.bmo_exact.masks",
          "weights.calls")


class Tracer:
    """In-memory spans, per-bucket self time and counters of one traced pass."""

    def __init__(self) -> None:
        self.trial = -1
        self.counts: Counter = Counter()
        self.reset()

    def reset(self) -> Counter:
        """Start a new pass; return the counters of the pass that ended."""
        done = self.counts
        self.spans: list[list] = []
        self.open: list[int] = []           # indices of open spans, innermost last
        self.child_s: list[float] = []      # time covered by each open span's children
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts = Counter()
        self.bracket_ratios: list[float] = []
        return done

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)
        bucket_of = _bucket(layer, fn.__name__, signature)
        before, after = _hooks(self, layer, fn.__name__, signature)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.open[-1] if self.open else -1
            span = [name, 0.0, 0.0, parent, self.trial]
            if before is not None:
                before(args, kwargs, parent)
            self.open.append(len(self.spans))
            self.spans.append(span)
            self.child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open.pop()
                children = self.child_s.pop()
                if self.child_s:
                    self.child_s[-1] += end - start
                self.self_s[bucket_of(args, kwargs)] += (end - start) - children
                span[1], span[2] = start, end
            if after is not None:
                after(result)
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for bucket in SELF_BUCKETS:
            out[f"{bucket}.self_s"] = (self.self_s.get(bucket, 0.0), "s")
        for key in COUNTS:
            out[key] = (self.counts[key], "count")
        ratios = self.bracket_ratios
        out["opnorm.lp.bracket_ratio.p50"] = (statistics.median(ratios) if ratios else 0.0,
                                              "ratio")
        calls, hits = self.counts["weights.ap_calls"], self.counts["weights.ap_cache_hits"]
        out["weights.ap_cache_hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON list per line: name, start, end, parent span index, trial id."""
        with open(path, "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


def _argument(signature: inspect.Signature, args, kwargs, name: str):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _bucket(layer: str, fn_name: str, signature: inspect.Signature):
    if fn_name in BMO_SEARCHES:
        return lambda args, kwargs: f"norms.bmo_{_argument(signature, args, kwargs, 'strategy')}"
    split = layer in ("norms", "opnorm")
    bucket = BUCKETS.get(fn_name, f"{layer}.other" if split else layer)
    return lambda args, kwargs: bucket


def _hooks(tracer: Tracer, layer: str, fn_name: str, signature: inspect.Signature):
    """(before, after) counter hooks of one function; either may be None.

    ``before(args, kwargs, parent)`` sees the arguments and the index of
    the enclosing span (-1 at the root); ``after(result)`` sees the result.
    """
    def counts() -> Counter:       # reset() replaces the Counter between passes
        return tracer.counts

    if layer == "weights":
        def before(args, kwargs, parent):
            counts()["weights.calls"] += 1
            if fn_name == "ap_characteristic":
                counts()["weights.ap_calls"] += 1
                w = _argument(signature, args, kwargs, "w")
                if _argument(signature, args, kwargs, "p") in w._ap_cache:
                    counts()["weights.ap_cache_hits"] += 1
        return before, None
    if fn_name in ("haar_forward", "haar_inverse"):
        return lambda args, kwargs, parent: counts().update(("dyadic.transform.calls",)), None
    if fn_name == "materialize":
        def before(args, kwargs, parent):
            counts()["operators.materialize.calls"] += 1
            counts()["operators.materialize.columns"] += 4 ** _argument(
                signature, args, kwargs, "depth")
        return before, None
    if fn_name in APPLY_ENTRY_POINTS:
        return lambda args, kwargs, parent: counts().update(("operators.apply.calls",)), None
    if fn_name in ("opnorm_p2_exact", "opnorm_lp_lower"):
        kind = "svd" if fn_name == "opnorm_p2_exact" else "lp"

        def before(args, kwargs, parent):
            counts()[f"opnorm.{kind}.calls"] += 1
            if parent >= 0 and tracer.spans[parent][0] == "opnorm.sup_commutator_norm":
                counts()["opnorm.sup.pairs_scored"] += 1

        def after(result):
            if kind == "lp":
                counts()["opnorm.lp.iterations"] += result.iterations
                if result.upper_bound is not None and result.value > 0:
                    tracer.bracket_ratios.append(result.upper_bound / result.value)
        return before, after
    if fn_name == "bmo_prod_two_weight":
        def before(args, kwargs, parent):
            strategy = _argument(signature, args, kwargs, "strategy")
            counts()[f"norms.bmo_{strategy}.calls"] += 1
            if strategy == "exact":
                depth = _argument(signature, args, kwargs, "b").depth
                counts()["norms.bmo_exact.masks"] += 2 ** (4 ** depth) - 1
        return before, None
    return None, None


def install(tracer: Tracer):
    """Wrap every public function of the package modules wherever it is bound.

    Returns a function that puts the originals back.
    """
    package = importlib.import_module("haarbloom")
    modules = {layer: importlib.import_module(f"haarbloom.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = tracer.wrap(layer, obj)
    replaced = []      # (namespace dict, key, original)
    for module in (package, *modules.values()):
        for namespace in [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]:
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    replaced.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]

    def uninstall() -> None:
        for namespace, key, original in replaced:
            namespace[key] = original
    return uninstall
