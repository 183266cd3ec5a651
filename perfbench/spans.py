"""In-memory spans and counters for the traced benchmark rounds.

A span records its names, its parent span, and its start and end. Spans
are kept in a list while the round runs and reduced to self times once it
ends: a span's self time is its duration minus the durations of its child
spans. Spans on one thread nest, so the children never overlap and their
summed durations are exactly the part of the parent they cover.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [names, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, *names: str):
        """Time the block; its self time is credited to every name given."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([names, parent, self.clock(), None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = self.clock()

    def wrap(self, fn, names, after=None):
        """`fn` inside a span named by `names(*args, **kwargs)`.

        `after(tracer, result, *args, **kwargs)` runs once the span has
        closed, to record counts taken from the result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(*names(*args, **kwargs)):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, out, *args, **kwargs)
            return out
        return traced

    def totals(self) -> dict[str, float]:
        """Self times summed per name, merged with the counters."""
        out = self_times(self.spans)
        out.update(self.counts)
        return out


def self_times(spans) -> dict[str, float]:
    """Sum of (duration - child durations) per span name."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (names, _, start, end) in enumerate(spans):
        for name in names:
            out[name] += end - start - child[i]
    return dict(out)


def patch_everywhere(modules, original, replacement) -> int:
    """Rebind every module attribute that is `original` to `replacement`.

    Each module sees an imported function under its own name, so wrapping
    it in one module alone would miss the calls made from the others.
    Returns the number of bindings replaced.
    """
    n = 0
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, attr, replacement)
                n += 1
    return n
