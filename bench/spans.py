"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: wrappers replace public
functions in the module namespaces that call them, so the package
itself is unchanged.  Each span keeps its name, start, end, parent
id and an optional dict of work counts (rows, bytes, FLOPs) computed
from the call's arguments.  Nothing is written until the caller asks
for the aggregate at the end of the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    work: dict[str, float] = field(default_factory=dict)


class SpanRecorder:
    """Records nested spans; install() swaps wrappers in, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, parent=parent, start=self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, work=None):
        """fn wrapped in a span; work(args, kwargs) -> dict of counts, optional."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if work is not None:
                    span.work = work(args, kwargs)

        return traced

    def install(self, targets) -> None:
        """targets: (namespace module, attribute, span name, work or None) tuples."""
        for namespace, attr, name, work in targets:
            original = getattr(namespace, attr)
            self._patched.append((namespace, attr, original))
            setattr(namespace, attr, self.wrap(original, name, work))

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, cursor, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (summed durations), self_s and summed work counts."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["busy_s"] += span.end - span.start
        row["self_s"] += selfs[span.id]
        for key, value in span.work.items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}
