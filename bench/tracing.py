"""In-process tracing of the vcn layers for the benchmark's per-layer metrics.

Every public function of the layer modules is wrapped in every module
namespace that binds it: ``vcn.cli`` binds the library functions its verbs
call, ``vcn.fmodel`` binds ``vc_n_dim`` and the package binds everything.
A wrapper records one span (function, start, end, parent) in memory and,
for a few functions, tallies work from the call's arguments or its return
value.  A layer's self time is the summed duration of its spans minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from math import comb, prod
from time import perf_counter

LAYERS = ("cli", "setsys", "zar", "fmodel", "ramsey", "hyperrand")

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("setsys.self_s", "s"),
    ("setsys.boxes", "count"),
    ("setsys.shatter_hit_ratio", "ratio"),
    ("setsys.us_per_box", "us"),
    ("zar.self_s", "s"),
    ("zar.calls", "count"),
    ("zar.exact_ratio", "ratio"),
    ("fmodel.self_s", "s"),
    ("fmodel.evals_computed", "count"),
    ("fmodel.us_per_eval", "us"),
    ("ramsey.self_s", "s"),
    ("ramsey.colorings", "count"),
    ("ramsey.ns_per_coloring", "ns"),
    ("ramsey.copy_hit_ratio", "ratio"),
    ("hyperrand.self_s", "s"),
    ("hyperrand.attempts", "count"),
    ("hyperrand.accept_ratio", "ratio"),
    ("hyperrand.walk_steps", "count"),
    ("trace.overhead_s", "s"),
)

# Span fields.
NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    """Spans and work tallies of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, perf_counter(), 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            caller = self.spans[parent][NAME] if parent >= 0 else None
            tally(self.counts, name, caller, signature, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, outside their children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out = dict.fromkeys(LAYERS, 0.0)
        for span, child in zip(self.spans, covered):
            out[span[LAYER]] += span[END] - span[START] - child
        return out


def tally(counts: Counter, name, caller, signature, args, kwargs, result) -> None:
    """Add the work one returned call did to the per-layer counts.

    Counts named *_computed are computed from the arguments: they state
    the work the call's input defines, not the work it chose to do.
    """
    if name in ("setsys.trace", "setsys.is_shattered"):
        counts["setsys.boxes"] += 1
    if name == "setsys.is_shattered":
        counts["setsys.shatter_calls"] += 1
        counts["setsys.shattered"] += bool(result)
    elif name == "zar.zarankiewicz":
        counts["zar.calls"] += 1
        counts["zar.exact"] += result.status == "exact"
    elif name in ("fmodel.phi_class", "fmodel.count_types", "fmodel.verify_ipn_witness"):
        a = signature.bind(*args, **kwargs).arguments
        domain = a["structure"].domain_size
        if name == "fmodel.phi_class":
            lengths = a["phi"].block_lengths
            cells, formulas = domain ** sum(lengths[1:]), 1
        elif name == "fmodel.count_types":
            lengths = a["delta"][0].block_lengths
            cells, formulas = prod(len(box) for box in a["boxes"]), len(a["delta"])
        else:
            lengths = a["phi"].block_lengths
            cells, formulas = prod(len(lst) for lst in a["params"]), 1
        counts["fmodel.evals_computed"] += domain ** lengths[0] * cells * formulas
    elif name == "ramsey.arrow_scan":
        counts["ramsey.colorings"] += result[1]
    elif name == "ramsey.copies":
        a = signature.bind(*args, **kwargs).arguments
        counts["ramsey.copies_found"] += len(result.embeddings)
        counts["ramsey.copy_candidates"] += comb(a["target"].size, a["source"].size)
    elif name == "hyperrand.check_extension_level":
        if caller == "hyperrand.gen_extension_hypergraph":
            counts["hyperrand.attempts"] += 1
    elif name == "hyperrand.gen_extension_hypergraph":
        counts["hyperrand.accepted"] += 1
    elif name == "hyperrand.adjacency_walk":
        counts["hyperrand.walk_steps"] += len(result) - 1


@contextmanager
def installed(tracer: Tracer):
    """Wrap the public layer functions for the duration of the block."""
    modules = [importlib.import_module("vcn")]
    modules += [importlib.import_module(f"vcn.{layer}") for layer in LAYERS]
    wrappers: dict = {}
    patched = []
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.split(".")
            if home[0] != "vcn" or len(home) != 2 or home[1] not in LAYERS:
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(home[1], obj)
            patched.append((module, name, obj))
            setattr(module, name, wrappers[obj])
    try:
        yield
    finally:
        for module, name, obj in patched:
            setattr(module, name, obj)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except start-up and overhead."""
    s = tracer.self_times()
    c = tracer.counts
    return {
        "cli.self_s": s["cli"],
        "setsys.self_s": s["setsys"],
        "setsys.boxes": c["setsys.boxes"],
        "setsys.shatter_hit_ratio": _ratio(c["setsys.shattered"], c["setsys.shatter_calls"]),
        "setsys.us_per_box": _ratio(s["setsys"] * 1e6, c["setsys.boxes"]),
        "zar.self_s": s["zar"],
        "zar.calls": c["zar.calls"],
        "zar.exact_ratio": _ratio(c["zar.exact"], c["zar.calls"]),
        "fmodel.self_s": s["fmodel"],
        "fmodel.evals_computed": c["fmodel.evals_computed"],
        "fmodel.us_per_eval": _ratio(s["fmodel"] * 1e6, c["fmodel.evals_computed"]),
        "ramsey.self_s": s["ramsey"],
        "ramsey.colorings": c["ramsey.colorings"],
        "ramsey.ns_per_coloring": _ratio(s["ramsey"] * 1e9, c["ramsey.colorings"]),
        "ramsey.copy_hit_ratio": _ratio(c["ramsey.copies_found"], c["ramsey.copy_candidates"]),
        "hyperrand.self_s": s["hyperrand"],
        "hyperrand.attempts": c["hyperrand.attempts"],
        "hyperrand.accept_ratio": _ratio(c["hyperrand.accepted"], c["hyperrand.attempts"]),
        "hyperrand.walk_steps": c["hyperrand.walk_steps"],
    }
