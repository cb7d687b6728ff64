"""Span tracing of mvtlab's public functions, installed from outside the
package.

Each traced function is replaced, at every module attribute or class
attribute it is looked up through, by a wrapper that records a span
(id, parent id, name, start, end). Self time is a span's duration minus the
durations of the traced spans directly beneath it. Spans stay in memory;
the caller writes them out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter

# Layer (module) -> public functions whose calls and self time are recorded.
LAYERS = {
    "evaluator": ("sample_evaluator", "Evaluator.true_cr"),
    "simstats": (
        "simulate_conversions",
        "prob_beats_control",
        "posterior",
        "global_prior",
        "aggregate_runs",
    ),
    "taguchi": ("load_array", "predict_best", "best_tested"),
    "evolution": ("run_evolution", "select_elites", "next_generation"),
    "genome": ("Candidate.validate",),
    "harness": (
        "run_taguchi_arm",
        "run_evolution_arm",
        "run_experiment",
        "emit_csv",
        "emit_svg",
    ),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
# Constructions are counted, not timed: a span per Candidate would cost more
# than the construction it measures.
COUNT_NAMES = ("genome.Candidate",)
PACKAGE = "mvtlab"


def _resolve(qualname: str):
    """(owner, attribute) of a dotted name under the package, or None when
    a later version no longer defines it."""
    module_name, _, rest = qualname.partition(".")
    module = sys.modules.get(f"{PACKAGE}.{module_name}")
    owner, _, attr = rest.rpartition(".")
    target = module
    for part in filter(None, owner.split(".")):
        target = getattr(target, part, None)
    if target is None or not hasattr(target, attr):
        return None
    return target, attr


class Tracer:
    """Context manager that installs the wrappers on entry, restores the
    originals on exit, and keeps the spans recorded in between."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        next_id = self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next_id()
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _counted(self, name: str, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counts[name] += 1
            return init(*args, **kwargs)

        return counted

    def _observe_evolution(self, fn):
        """Distinct genomes tested and population slots served per
        run_evolution call, for the breeding useful-work ratio."""
        signature = inspect.signature(fn)
        counts = self.counts

        def observe(args, kwargs, result):
            plan = signature.bind(*args, **kwargs).arguments["traffic_plan"]
            counts["evolution.tested"] += len(result.tested)
            counts["evolution.slots"] += sum(len(slots) for slots in plan)

        return observe

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name in SPAN_NAMES:
            found = _resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            observe = (
                self._observe_evolution(original)
                if name == "evolution.run_evolution" else None
            )
            wrapper = self._span(name, original, observe)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            # A function imported by name into another module is looked up
            # through that module's binding, so every binding is replaced.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name in COUNT_NAMES:
            found = _resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            cls = getattr(*found)
            self._patch(cls, "__init__", self._counted(name, cls.__init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls and self seconds."""
        child_time: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[span_id]
        return out
