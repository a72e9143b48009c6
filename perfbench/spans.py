"""In-memory span recording for the traced benchmark run.

A span is one call the benchmark watched: its name, the layer (a
``src/repro`` module) it belongs to, start and end on
``time.perf_counter``, the span that was open on the same thread when it
started, and the id of the benchmark request it serves.  Spans live in
memory until the run ends and are then written out as JSON lines.

A span's *self time* is its duration minus the part of that interval
its child spans cover, so the self times of all spans of a thread add up
to the time that thread spent inside spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    #: Work counts attached after the call returned (results,
    #: interactions, nodes, ...).
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is
    always a call on the same thread.  A span opened with no parent
    starts a request; its descendants carry its id as ``request``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        """Start a span as a child of this thread's innermost open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span = Span(
            span_id=span_id,
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=None if parent is None else parent.span_id,
            request=span_id if parent is None else parent.request,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """End ``span``, which must be this thread's innermost open span."""
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Record the ``with`` block as one span."""
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        count: Callable[[Span, object], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped so every call records a span.

        ``count(span, result)`` runs after the span closed, so the time
        it takes is not charged to ``layer``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(span, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every closed span to ``path`` as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=repr) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Map each span id to its self time.

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent's own interval.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        ]
        out[span.span_id] = span.duration - covered_length(clipped)
    return out
