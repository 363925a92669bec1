"""In-memory spans around calls into the program's public functions.

A :class:`Tracer` replaces chosen functions (class methods, instance
methods, module-level functions) with timing wrappers for the duration of a
``with`` block, and restores the originals when the block ends.  Each call
becomes one span: ``(span_id, parent_id, name, start, end, scan_id)``.  The
parent is the innermost span open on the same thread; the scan id is set by
the root span a client thread opens around one scan and inherited by every
span nested under it on that thread.  Spans opened on other threads (server
runners, connection writers, transport readers) carry no scan id: their work
is shared by every scan of a batch.

:func:`self_times` turns spans into the per-layer ledger: a span's self time
is its duration minus the part of its interval covered by its children, with
overlapping children counted once.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

__all__ = ["Span", "Tracer", "covered", "optional_span", "self_times"]


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    scan_id: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


_MISSING = object()


class Tracer:
    """Records spans for wrapped calls; a no-op once its block has ended."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, scan_id: int | None) -> tuple[int, int | None, int | None]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        span_id = next(self._ids)
        scan = scan_id if scan_id is not None else inherited
        stack.append((span_id, scan))
        return span_id, parent, scan

    def _close(self, name: str, opened: tuple, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, scan = opened
        self.spans.append(Span(span_id, parent, name, start, end, scan))

    def span(self, name: str, scan_id: int | None = None) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name, scan_id)

    def current_scan(self) -> int | None:
        """The scan id of the innermost span open on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Callable[[object, tuple, dict], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span named ``name``.

        ``owner`` is a class (every instance is traced), an instance, or a
        module (for functions other modules look up as globals at call
        time).  ``on_result(result, args, kwargs)`` runs after each call,
        outside the span, to record counts.
        """
        original = vars(owner).get(attribute, _MISSING)
        function = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer._open(None)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(name, opened, start)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        # On a class, ``function`` is the plain function and the wrapper binds
        # ``self`` again when looked up; on an instance it is already bound.
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped function back, most recent first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON document (called when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span.start for span in self.spans), default=0.0)
        rows = [
            {
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "start_ms": (span.start - origin) * 1000.0,
                "end_ms": (span.end - origin) * 1000.0,
                "scan": span.scan_id,
            }
            for span in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, scan_id: int | None):
        self._tracer = tracer
        self._name = name
        self._scan_id = scan_id

    def __enter__(self) -> "_SpanContext":
        self._opened = self._tracer._open(self._scan_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._name, self._opened, self._start)


def optional_span(tracer: Tracer | None, name: str, scan_id: int | None = None):
    """``tracer.span(name, scan_id)``, or a no-op when running untraced."""
    return tracer.span(name, scan_id) if tracer is not None else contextlib.nullcontext()


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of its interval that
    its children cover; children that overlap each other (a parent waiting
    on parallel work) are counted once, and a child reaching past its
    parent's end only removes the part inside the parent.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        inner = covered(children.get(span.span_id, ()), span.start, span.end)
        totals[span.name] += span.seconds - inner
    return dict(totals)
