"""Span tracing from outside the program.

`Tracer.wrap(module, attr, name)` replaces a function at one call site: the
module that imported it by name. Every call then records a span (name,
start, end, parent). Wrapping at the caller keeps two uses of one function
apart, such as the sensor's and the scorer's use of the `trace` kernels, or
episode A* and topological-understanding A*.

Spans stay in memory until `dump`, which writes them once. `layer_stats`
derives per-name call counts, self time and duration percentiles from the
written spans; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import wraps

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Trace calls to `module.attr`.

        `name` is the span name, or a function of the call's positional
        arguments that returns it. `on_result(tracer, args, result)` runs
        after each call, outside the span, to add to `tracer.counts`.
        """
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(orig)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """{name: {calls, self_s, ms_p50, ms_p90}}; percentiles of span durations."""
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        durations[name].append(end - start)
        self_sum[name] += s
    out = {}
    for name, d in durations.items():
        ms = np.asarray(d) * 1000.0
        out[name] = {
            "calls": len(d),
            "self_s": self_sum[name],
            "ms_p50": float(np.percentile(ms, 50)),
            "ms_p90": float(np.percentile(ms, 90)),
        }
    return out


def root_time(spans: list[list]) -> float:
    """Total duration of spans without a parent; equals the sum of all self times."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
