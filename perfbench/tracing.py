"""Spans around the calls into each skeinlab layer, recorded from outside.

`instrument` replaces chosen library functions and methods with wrappers that
record a span: name, start, end, parent span, operation id and an optional
count.  Spans stay in memory until the run ends.  LaurentPoly multiplication
runs millions of times per operation, so its calls are folded into one
aggregate span per (parent span, name) instead of one span each.

Nothing here changes what the library computes: a wrapper calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute or Class.method, span name, kind); kind "hot" aggregates
# calls, "crossings" and "terms" attach a count to the span.
TRACED = [
    ("skeinlab.diagram", "parse_braid", "diagram.parse_braid", None),
    ("skeinlab.bracket", "sweep_order", "bracket.sweep_order", None),
    ("skeinlab.bracket", "bracket_tl_sweep", "bracket.sweep", "crossings"),
    ("skeinlab.bracket", "bracket_statesum", "bracket.statesum", None),
    ("skeinlab.poly", "LaurentPoly.__mul__", "poly.mul", "hot"),
    ("skeinlab.poly", "LaurentPoly.__rmul__", "poly.mul", "hot"),
    ("skeinlab.poly", "LaurentPoly.to_h_series", "poly.to_h_series", None),
    ("skeinlab.torus_skein", "TorusSkeinElement.__mul__", "torus_skein.product", None),
    ("skeinlab.torus_skein", "TorusSkeinElement.__pow__", "torus_skein.power", None),
    ("skeinlab.torus_skein", "poisson_bracket", "torus_skein.poisson", None),
    ("skeinlab.qlattice", "decorated_words", "qlattice.decorated_words", "terms"),
    ("skeinlab.qlattice", "wilson_qlink", "qlattice.wilson", None),
    ("skeinlab.qlattice", "skein_residual", "qlattice.residual", None),
    ("skeinlab.qlattice", "gauge_act_q", "qlattice.gauge_act_q", None),
    ("skeinlab.qlattice", "nabla_coassociativity_residual", "qlattice.nabla_coassoc", None),
    ("skeinlab.qlattice", "classical_to_quantum", "qlattice.classical_to_quantum", None),
    ("skeinlab.lattice", "wilson_loop", "lattice.wilson_loop", None),
    ("skeinlab.characters", "trace_word", "characters.trace", None),
] + [("skeinlab.formats", f"{kind}_from_json", "formats.load", None)
     for kind in ("diagram", "rep", "graph", "connection", "qlink", "qconnection")]

CLI_COMMANDS = ("bracket", "skein", "char", "lattice", "qlattice")

# per-layer metric -> (span name, statistic); "self" is mean self time per
# call, "total" mean inclusive time per call, for layers whose own work is
# mostly calls into other traced layers.
LAYER_METRICS = {
    "diagram.parse_braid_ms": ("diagram.parse_braid", "self"),
    "bracket.sweep_order_ms": ("bracket.sweep_order", "self"),
    "bracket.sweep_ms": ("bracket.sweep", "self"),
    "bracket.crossings_per_s": ("bracket.sweep", "count_per_self_s"),
    "bracket.statesum_ms": ("bracket.statesum", "self"),
    "poly.mul_ms": ("poly.mul", "self"),
    "poly.to_h_series_ms": ("poly.to_h_series", "self"),
    "torus_skein.product_ms": ("torus_skein.product", "self"),
    "torus_skein.power_ms": ("torus_skein.power", "total"),
    "torus_skein.poisson_ms": ("torus_skein.poisson", "total"),
    "qlattice.decorated_words_ms": ("qlattice.decorated_words", "self"),
    "qlattice.decorated_terms": ("qlattice.decorated_words", "count_per_call"),
    "qlattice.wilson_ms": ("qlattice.wilson", "self"),
    "qlattice.residual_ms": ("qlattice.residual", "total"),
    "qlattice.gauge_act_q_ms": ("qlattice.gauge_act_q", "self"),
    "qlattice.nabla_coassoc_ms": ("qlattice.nabla_coassoc", "self"),
    "qlattice.classical_to_quantum_ms": ("qlattice.classical_to_quantum", "self"),
    "lattice.wilson_loop_ms": ("lattice.wilson_loop", "self"),
    "characters.trace_ms": ("characters.trace", "self"),
    "formats.load_ms": ("formats.load", "self"),
    "cli.import_ms": ("cli.import", "total"),
    **{f"cli.{c}_ms": (f"cli.{c}", "total") for c in CLI_COMMANDS},
    "cli.verify_s": ("cli.verify", "total_s"),
}


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    return "count"


LAYER_UNITS = {m: _unit(m) for m in LAYER_METRICS}


class Tracer:
    """In-memory span recorder; `active` is cleared while outputs are checked."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op, count]
        self.stack: list[int] = []
        self.hot: dict[tuple[str, int, object], list] = {}   # -> [calls, seconds]
        self.op: object = None
        self.ops = 0                     # operations started; the next op id
        self.active = True

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def add_foreign(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under the given parent span."""
        base = len(self.spans)
        for name, start, end, par, op, count in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.spans[parent][4], count])

    def all_spans(self) -> list[list]:
        """Spans plus one aggregate span per (name, parent) of hot calls.  An
        aggregate's start is 0 and its end is its summed duration."""
        out = [list(s) for s in self.spans]
        for (name, parent, op), (calls, secs) in self.hot.items():
            out.append([name, 0.0, secs, parent, op, calls])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.all_spans()}, fh)


def _wrap(tracer: Tracer, fn, name: str, kind):
    if kind == "hot":
        def hot(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, tracer.stack[-1] if tracer.stack else -1, tracer.op)
                acc = tracer.hot.get(key)
                if acc is None:
                    tracer.hot[key] = [1, perf_counter() - t0]
                else:
                    acc[0] += 1
                    acc[1] += perf_counter() - t0
        return hot

    def span(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if kind == "crossings":
                rec[5] = args[0].crossing_count
            elif kind == "terms":
                rec[5] = sum(len(w.items()) for products in out for w in products)
            return out
        finally:
            tracer.close(rec)
    return span


def instrument(tracer: Tracer) -> None:
    """Wrap every function in TRACED, wherever skeinlab modules bind it."""
    for modname, attr, name, kind in TRACED:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(tracer, cls.__dict__[meth], name, kind))
            continue
        original = getattr(mod, attr)
        wrapper = _wrap(tracer, original, name, kind)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "skeinlab":
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)


def layer_metrics(spans: list[list], scales: list[float], default: float) -> dict:
    """Per-layer metrics from a finished trace.  A span's duration is scaled
    by its operation's host-speed factor (`default` for spans outside any
    operation); its self time is that minus its direct children's."""
    def duration(span) -> float:
        name, start, end, parent, op, count = span
        scale = scales[op] if isinstance(op, int) and op < len(scales) else default
        return (end - start) * scale

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += duration(span)
    stats: dict[str, list] = {}      # name -> [calls, total s, self s, count]
    for i, span in enumerate(spans):
        name, count = span[0], span[5]
        acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
        acc[0] += count if name == "poly.mul" else 1
        acc[1] += duration(span)
        acc[2] += duration(span) - child_time[i]
        acc[3] += 0 if name == "poly.mul" else count
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        calls, total, own, count = stats.get(name, [0, 0.0, 0.0, 0])
        if not calls:
            out[metric] = None
        elif stat == "self":
            out[metric] = 1000 * own / calls
        elif stat == "total":
            out[metric] = 1000 * total / calls
        elif stat == "total_s":
            out[metric] = total / calls
        elif stat == "count_per_call":
            out[metric] = count / calls
        else:                                   # count_per_self_s
            out[metric] = count / own
    return out
