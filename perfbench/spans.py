"""In-memory spans for the traced run, and the self-time arithmetic.

The benchmark never turns on :mod:`repro.obs`.  Instead, the traced run
wraps the public calls it makes into each layer of the program — and a
few public calls the program makes into another layer — in spans kept
by a :class:`SpanRecorder`.  A span has a name, a start, an end, a
parent and a request id.  A layer's self time is the duration of its
spans minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    """One recorded interval (seconds on the ``perf_counter`` clock)."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; parents come from the open-span stack.

    The benchmark runs one client in one thread, so a stack gives every
    span its parent.  ``request`` tags the spans of one request (or one
    set-up) with the same id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[Span] = []
        self._next_id = 0

    def open(self, name: str, start: float | None = None) -> Span:
        """Start a span now (or at an earlier ``start``) under the open one."""
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        span = Span(
            id=self._next_id,
            name=name,
            start=time.perf_counter() if start is None else start,
            end=0.0,
            parent=parent,
            request=self.request,
        )
        self._stack.append(span)
        return span

    def close(self, span: Span, end: float | None = None) -> Span:
        """End ``span``, which must be the innermost open span."""
        span.end = time.perf_counter() if end is None else end
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        self.spans.append(span)
        return span

    def abandon(self, span: Span) -> None:
        """Drop the open ``span`` and every span of its request."""
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans = [s for s in self.spans if s.request != span.request]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, ordered by start time."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }))
                handle.write("\n")


class Patches:
    """Temporarily replaces attributes with span-recording wrappers.

    ``trace(owner, attr, name)`` swaps ``owner.attr`` (a module function,
    a class method or an instance method) for a wrapper; ``restore``
    puts every original back, newest first.  A missing attribute raises
    ``AttributeError``, so a renamed entry point fails the traced run
    instead of silently dropping its layer.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object, bool]] = []

    def trace(self, owner, attr: str, name: str) -> None:
        wrapper = self.recorder.wrap(getattr(owner, attr), name)
        own = vars(owner)
        self._saved.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Phase -> span name -> self seconds per operation of that phase.

    A request id reads ``<phase>-<n>`` (``setup-0``, ``req-17``).  A
    layer's self time in a phase is divided by the number of distinct
    requests of that phase, so a layer reads as seconds per set-up when
    it runs in set-up and as seconds per request when it serves
    requests; within a phase the layers sum to the mean duration of its
    root spans.
    """
    own = self_times(spans)
    requests: dict[str, set[str]] = defaultdict(set)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        phase = span.request.split("-", 1)[0]
        requests[phase].add(span.request)
        totals[phase][span.name] += own[span.id]
    return {
        phase: {name: seconds / len(requests[phase]) for name, seconds in layers.items()}
        for phase, layers in totals.items()
    }
