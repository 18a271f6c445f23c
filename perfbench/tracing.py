"""Span tracing of posetdim, installed from outside the library.

Each traced function is replaced, under every ``posetdim`` module name
that binds it, by a wrapper that records one span: name, start, end,
parent span and operation id.  Spans stay in memory and are written out
when the run ends.  Self time is a span's duration minus the time its
direct child spans cover; it is accumulated when the span closes.

A few wrappers also read the wrapped function's result, to count useful
work against attempts.  That reading is timed and charged to nobody, so
it does not inflate the parent span's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from posetdim.errors import BudgetExceeded

# "<module>.<function>" or "<module>.<Class>.<method>", relative to posetdim.
TRACED = (
    "core.find_standard_example",
    "core.random_bipartite",
    "core.Poset.from_relations",
    "core.Poset.restrict",
    "core.kimble_split",
    "core.poset_from_text",
    "dimension.critical_pairs",
    "dimension.check_extension",
    "dimension.is_realizer",
    "dimension.exact_dimension",
    "dimension.greedy_reversing_extensions",
    "dimension.realizer_from_json_dict",
    "skfree.peel_realizer",
    "skfree.peel_step",
    "skfree.subset_color",
    "skfree.find_monochromatic",
    "skfree.acquire_event_matrix",
    "skfree.extension_from_sigma",
    "skfree.build_reversing_extensions",
    "skfree.general_upper_bound",
    "experiments.run_growth_experiment",
    "cli.main",
)

# Spanned only so that the sampler's acceptance can be counted.
_COUNTED = ("core.random_skfree_bipartite",)

LAYERS = ("core", "dimension", "skfree", "experiments", "cli")


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.op = -1  # operation id stamped on new spans; -1 is set-up
        self.phase = "setup"
        # (phase, name) -> [calls, self_ns]
        self.totals: dict[tuple[str, str], list[int]] = {}
        self.counting = True  # whether results feed the useful-work counts
        self.counts = {
            "peel_extensions": 0,
            "peel_distinct": 0,
            "peel_cleanup": 0,
            "skfree_results": 0,
            "bipartite_calls": 0,
            "exact_calls": 0,
            "exact_settled": 0,
        }
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # listed names the library lacks

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            try:
                importlib.import_module("posetdim." + layer)
            except ModuleNotFoundError:
                pass  # its names are reported missing below
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "posetdim" or name.startswith("posetdim.")
        }
        self.missing = []
        for dotted in TRACED + _COUNTED:
            mod_name, _, attr_path = dotted.partition(".")
            owner = modules.get("posetdim." + mod_name)
            cls_name, _, name = attr_path.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            if holder is None or name not in vars(holder):
                self.missing.append(dotted)  # renamed or removed since
                continue
            raw = vars(holder)[name]
            if cls_name:  # a method: rebind it on its class
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(dotted, raw.__func__))
                else:
                    wrapped = self.wrap(dotted, raw)
                self._restore.append((holder, name, raw))
                setattr(holder, name, wrapped)
                continue
            wrapped = self.wrap(dotted, raw)
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around every call."""
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack
        observe = _OBSERVERS.get(name)
        is_exact = name == "dimension.exact_dimension"

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            spans.append(None)  # reserve the id; filled on close
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BudgetExceeded:
                # an unsettled search still returns a bound; count the try
                if is_exact and self.counting:
                    self.counts["exact_calls"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[span_id] = (span_id, parent, self.op, name, start, end)
                tot = self.totals.setdefault((self.phase, name), [0, 0])
                tot[0] += 1
                tot[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if ok and observe is not None and self.counting:
                    t0 = clock()
                    observe(self.counts, result)
                    if stack:
                        stack[-1][1] += clock() - t0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- reading -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id, op id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of a traced run.

    Calls and self time are per operation of the traced loop, which runs
    whole passes over the inputs, so calls per operation repeat exactly.
    Set-up self time is for the one traced set-up.  The useful-work
    ratios cover the set-up and the first traced pass, each with its base.
    """
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in TRACED + ("op",):
        calls, self_ns = tracer.totals.get(("ops", name), (0, 0))
        if name != "op":
            put(f"{name}.calls", calls / ops, "1/op")
        put(f"{name}.self_s", self_ns / 1e9 / ops, "s/op")
    for phase, prefix, per, unit in (("ops", "layer", ops, "s/op"),
                                     ("setup", "setup", 1, "s")):
        for layer in LAYERS:
            ns = sum(self_ns for (ph, name), (_, self_ns) in tracer.totals.items()
                     if ph == phase and name.split(".", 1)[0] == layer)
            put(f"{prefix}.{layer}.self_s", ns / 1e9 / per, unit)

    c = tracer.counts
    put("skfree.peel.distinct_ratio",
        c["peel_distinct"] / c["peel_extensions"] if c["peel_extensions"] else 0.0,
        "ratio")
    put("skfree.peel.extensions", c["peel_extensions"], "count")
    put("skfree.peel.distinct_extensions", c["peel_distinct"], "count")
    put("skfree.peel.cleanup_exts", c["peel_cleanup"], "count")
    put("core.skfree_sampler.accept_ratio",
        c["skfree_results"] / c["bipartite_calls"] if c["bipartite_calls"] else 0.0,
        "ratio")
    put("core.skfree_sampler.results", c["skfree_results"], "count")
    put("core.skfree_sampler.draws", c["bipartite_calls"], "count")
    put("dimension.exact.optimal_ratio",
        c["exact_settled"] / c["exact_calls"] if c["exact_calls"] else 0.0,
        "ratio")
    put("dimension.exact.solves", c["exact_calls"], "count")
    return out


def _observe_peel(counts: dict, cert) -> None:
    orders = [ext.order for ext in cert.realizer.extensions]
    counts["peel_extensions"] += len(orders)
    counts["peel_distinct"] += len(set(orders))
    counts["peel_cleanup"] += sum(step.cleanup_count for step in cert.steps)


def _observe_skfree(counts: dict, _bp) -> None:
    counts["skfree_results"] += 1


def _observe_bipartite(counts: dict, _bp) -> None:
    counts["bipartite_calls"] += 1


def _observe_exact(counts: dict, res) -> None:
    counts["exact_calls"] += 1
    if res.optimal:
        counts["exact_settled"] += 1


_OBSERVERS = {
    "skfree.peel_realizer": _observe_peel,
    "core.random_skfree_bipartite": _observe_skfree,
    "core.random_bipartite": _observe_bipartite,
    "dimension.exact_dimension": _observe_exact,
}
