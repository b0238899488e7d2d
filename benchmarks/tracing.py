"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces public functions of the ``chasekit`` modules
with wrappers, in every module that holds a reference to them (so a name
imported with ``from .matching import match_each`` is wrapped too), and
``Tracer.uninstall`` puts the originals back.  Untraced rounds run the
unmodified program.

Each wrapper is a span of one layer, named after the module that defines
the function.  A layer's self time is the duration of its spans minus the
part covered by the spans they contain.  The callback that ``match_each``
makes for every match runs in a frame of its caller's layer, so the
chase's own work in it is the chase's.  Counts are taken at the same
boundaries.  Spans of the coarse functions (chase, analyze, the certificate
search, the guided tree chase, parsing, ...) are kept in memory with their
parent and written out when the run ends; the hot ones (homomorphism
search, head checks, entailment, path queries) are only aggregated, which
keeps memory flat over millions of calls.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from importlib import import_module

from chasekit import (analysis, arboreal, corpus, datalog, depgraph, matching,
                      model, saturation, treechase)

# the package exports the function chase() under the module's name
chase = import_module("chasekit.chase")

# (defining module, function name, layer, keep span, inclusive-time key,
#  call-count key)
FUNCTIONS = (
    (model, "parse_program", "model", True, "model.parse_s", None),
    (model, "parse_facts", "model", True, "model.parse_s", None),
    (model, "parse_query", "model", True, "model.parse_s", None),
    (matching, "match_each", "matching", False, None, "matching.match_each_calls"),
    (matching, "head_satisfied", "matching", False, "matching.head_check_s",
     "matching.head_checks"),
    (datalog, "saturate", "datalog", False, "datalog.saturate_s", "datalog.saturate_calls"),
    (datalog, "entails", "datalog", False, "datalog.entails_s", "datalog.entails_calls"),
    (chase, "chase", "chase", True, None, None),
    (depgraph, "build_ledgraph", "depgraph", True, "depgraph.s", None),
    (depgraph, "scc_analysis", "depgraph", True, "depgraph.s", None),
    (depgraph, "compute_rank", "depgraph", True, "depgraph.s", None),
    (saturation, "find_saturating_certificate", "saturation", True, None, None),
    (saturation, "is_base_propagating", "saturation", False, None, "saturation.base_checks"),
    (saturation, "is_step_propagating", "saturation", False, None, "saturation.step_checks"),
    (saturation, "path_query", "saturation", False, "saturation.path_query_s",
     "saturation.path_queries"),
    (arboreal, "check_arboreous", "arboreal", True, "arboreal.s", None),
    (arboreal, "compute_position_order", "arboreal", True, "arboreal.s", None),
    (arboreal, "is_path_guarded", "arboreal", True, "arboreal.s", None),
    (arboreal, "build_term_tree", "arboreal", True, "arboreal.s", None),
    (treechase, "tree_chase_guided", "treechase", True, None, None),
    (corpus, "gen_dexp", "corpus", True, "corpus.generate_s", None),
    (corpus, "gen_dexp_nonterm", "corpus", True, "corpus.generate_s", None),
    (corpus, "gen_sets", "corpus", True, "corpus.generate_s", None),
    (corpus, "gen_sets_nonterm", "corpus", True, "corpus.generate_s", None),
    (corpus, "gen_counter", "corpus", True, "corpus.generate_s", None),
    (corpus, "gen_qbf", "corpus", True, "corpus.generate_s", None),
    (analysis, "analyze", "analysis", True, None, None),
)

# (class, method name, layer, inclusive-time key, call-count key); a
# method with no layer is only counted, because it is too hot for a span.
METHODS = (
    (model.Interpretation, "add", None, None, "model.interp_adds"),
    (treechase.TreeChaseRun, "apply", "treechase", "treechase.apply_s",
     "treechase.applies"),
)

# The per-layer metrics of one traced round, with their units.
ROUND_METRICS = {
    "model.interp_adds": "count",
    "matching.match_each_calls": "count",
    "matching.self_s": "s",
    "matching.head_checks": "count",
    "matching.head_check_s": "s",
    "chase.steps": "count",
    "chase.self_s": "s",
    "chase.steps_per_head_check": "steps/check",
    "datalog.saturate_calls": "count",
    "datalog.saturate_s": "s",
    "datalog.entails_calls": "count",
    "datalog.entails_s": "s",
    "depgraph.s": "s",
    "saturation.candidates_tried": "count",
    "saturation.components_decided": "count",
    "saturation.base_checks": "count",
    "saturation.step_checks": "count",
    "saturation.path_queries": "count",
    "saturation.path_query_s": "s",
    "saturation.self_s": "s",
    "arboreal.s": "s",
    "treechase.reference_chase_s": "s",
    "treechase.applies": "count",
    "treechase.apply_s": "s",
    "treechase.replayed_steps": "count",
    "treechase.self_s": "s",
}
# The per-layer metrics of the traced set-up.
SETUP_METRICS = {"model.parse_s": "s", "corpus.generate_s": "s"}


def _chasekit_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "chasekit" or name.startswith("chasekit."))]


class Tracer:
    """Collects spans and counts while installed; ``take`` hands them over
    and starts afresh."""

    def __init__(self):
        self._saved: list = []
        self._stack: list = []       # frames: [layer, child seconds, kept span id]
        self._open: Counter = Counter()   # time key -> spans open under it
        self._reset()

    def _reset(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.totals: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list = []        # (id, parent id, name, start, end)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, name, layer, keep, time_key, count_key in FUNCTIONS:
            original = getattr(module, name)
            wrapper = self._wrap(original, layer, f"{module.__name__}.{name}",
                                 keep, time_key, count_key)
            for mod in _chasekit_modules():
                if mod.__dict__.get(name) is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for cls, name, layer, time_key, count_key in METHODS:
            original = cls.__dict__[name]
            if layer is None:
                wrapper = self._counter(original, count_key)
            else:
                wrapper = self._wrap(original, layer, f"{cls.__name__}.{name}",
                                     False, time_key, count_key)
            self._saved.append((cls, name, original))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers ---------------------------------------------------------------

    def _counter(self, fn, count_key: str):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[count_key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, layer: str, name: str, keep: bool, time_key, count_key):
        tracer = self
        stack = self._stack
        open_keys = self._open
        after = _AFTER.get(name)
        callback_at = _CALLBACK_ARG.get(name)

        def traced(*args, **kwargs):
            if callback_at is not None and stack:
                args, kwargs = tracer._callback_in(stack[-1][0], callback_at, args, kwargs)
            span_id = None
            if keep:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            if time_key:
                open_keys[time_key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_s[layer] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                if time_key:
                    # inclusive time: a span nested in one with the same key
                    # (gen_dexp inside gen_dexp_nonterm) is already covered
                    open_keys[time_key] -= 1
                    if not open_keys[time_key]:
                        tracer.totals[time_key] += elapsed
                if count_key:
                    tracer.counts[count_key] += 1
                if keep:
                    tracer.spans[span_id] = (span_id, _kept_parent(stack), name,
                                             start, end)
            if after is not None:
                after(tracer, result, elapsed, parent[0] if parent else None)
            return result

        return traced

    def _callback_in(self, layer: str, position: int, args: tuple, kwargs: dict) -> tuple:
        """Make the callback argument of a call run in a frame of ``layer``,
        the caller's, so that the caller's work done in the callback (the
        chase enqueueing the matches it discovers) is not counted as the
        callee's.  Callbacks defined in the callee's own module stay its."""
        if "callback" in kwargs:
            callback = kwargs["callback"]
        elif len(args) > position:
            callback = args[position]
        else:
            return args, kwargs
        if getattr(callback, "__module__", None) == "chasekit.matching":
            return args, kwargs
        stack, self_s = self._stack, self.self_s

        def in_caller(*a, **kw):
            frame = [layer, 0.0, None]
            stack.append(frame)
            start = perf_counter()
            try:
                return callback(*a, **kw)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        if "callback" in kwargs:
            return args, dict(kwargs, callback=in_caller)
        return args[:position] + (in_caller,) + args[position + 1:], kwargs

    # -- explicit spans for the benchmark's own operations ---------------------

    def op_span(self, name: str):
        return _OpSpan(self, name)

    def take(self) -> tuple:
        out = (dict(self.self_s), dict(self.totals), dict(self.counts), self.spans)
        self._reset()
        return out


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.span_id = len(t.spans)
        t.spans.append(None)
        self.frame = ["bench", 0.0, self.span_id]
        t._stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = perf_counter()
        t._stack.pop()
        elapsed = end - self.start
        t.self_s["bench"] += elapsed - self.frame[1]
        if t._stack:
            t._stack[-1][1] += elapsed
        t.spans[self.span_id] = (self.span_id, _kept_parent(t._stack), self.name,
                                 self.start, end)
        return False


def _kept_parent(stack: list):
    for frame in reversed(stack):
        if frame[2] is not None:
            return frame[2]
    return None


# -- counts read off results at a boundary ------------------------------------

def _after_chase(tracer, result, elapsed, parent_layer):
    tracer.counts["chase.steps"] += result.steps
    if parent_layer == "treechase":
        tracer.totals["treechase.reference_chase_s"] += elapsed


def _after_head_check(tracer, result, elapsed, parent_layer):
    if parent_layer == "chase":
        tracer.counts["chase.head_checks"] += 1


def _after_certificate(tracer, result, elapsed, parent_layer):
    for comp in result.components:
        tracer.counts["saturation.candidates_tried"] += comp.candidates_tried
        if comp.candidates_tried and comp.verdict != "inconclusive":
            tracer.counts["saturation.components_decided"] += 1


def _after_guided(tracer, result, elapsed, parent_layer):
    tracer.counts["treechase.replayed_steps"] += result.replayed_steps


# functions that call back into their caller: the position of the callback
_CALLBACK_ARG = {"chasekit.matching.match_each": 3}

_AFTER = {
    "chasekit.chase.chase": _after_chase,
    "chasekit.matching.head_satisfied": _after_head_check,
    "chasekit.saturation.find_saturating_certificate": _after_certificate,
    "chasekit.treechase.tree_chase_guided": _after_guided,
}


def round_metrics(taken: tuple) -> dict:
    """The per-layer figures of one traced round, keyed as in ROUND_METRICS."""
    self_s, totals, counts, _spans = taken
    out = {}
    for key in ROUND_METRICS:
        layer, _, field = key.partition(".")
        if field == "self_s":
            out[key] = self_s.get(layer, 0.0)
        elif ROUND_METRICS[key] == "s":
            out[key] = totals.get(key, 0.0)
        else:
            out[key] = counts.get(key, 0)
    checks = counts.get("chase.head_checks", 0)
    out["chase.steps_per_head_check"] = (counts.get("chase.steps", 0) / checks
                                         if checks else 0.0)
    return out


def setup_metrics(taken: tuple) -> dict:
    _self_s, totals, _counts, _spans = taken
    return {key: totals.get(key, 0.0) for key in SETUP_METRICS}

