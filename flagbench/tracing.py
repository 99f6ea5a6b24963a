"""In-memory spans recorded around the benchmark's calls into flagcoh.

A span holds its name, start, end, the index of its parent span and the id
of the item it ran for.  Spans stay in a list until the pass ends; the
caller writes them out.  A layer's self time is its span's duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item]

    def __enter__(self):
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Span recorder; `enabled` is False for untraced passes, where span()
    costs one shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.item: str | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def wrap(self, module, attr: str, name: str):
        """Replace module.attr by a traced wrapper; returns an undo callable.

        Used for public functions that flagcoh calls itself (inside another
        public call), so they can be timed without editing the package.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out


_NULL = nullcontext()
