"""Nestable wall-clock spans.

A :class:`Tracer` hands out spans as context managers::

    with tracer.span("static.extract", app=apk.package) as span:
        ...
        span.set_attribute("activities", len(activities))

Spans nest through a per-thread stack, so a parallel sweep produces one
independent trace per worker: the first span opened on a thread becomes
a trace root and every descendant carries its ``trace_id``.  Finished
spans are kept on the tracer (``finished_spans()``) and forwarded to
any attached sinks.

The default tracer everywhere is :data:`NULL_TRACER`: its ``span()``
returns one shared reusable no-op context manager and its counters
discard writes, so instrumented code costs nearly nothing when
observability is off.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import NULL_METRICS, Metrics
from repro.store import shaped_fields


class Span:
    """One timed region of the pipeline."""

    __slots__ = ("name", "span_id", "trace_id", "parent_id", "depth",
                 "start", "duration", "attributes")

    def __init__(self, name: str, span_id: int, trace_id: int,
                 parent_id: Optional[int] = None, depth: int = 0,
                 start: float = 0.0, duration: float = 0.0,
                 attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = start
        self.duration = duration
        self.attributes = dict(attributes) if attributes else {}

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "duration": self.duration,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  where: str = "span") -> "Span":
        """The span ``data`` holds; else
        :class:`~repro.errors.StoreError` naming ``where``."""
        return cls(**shaped_fields(data, _SPAN_SHAPE, where))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"duration={self.duration:.6f}, attrs={self.attributes})")


#: What :meth:`Span.to_dict` writes (see :func:`repro.store.check_shape`).
_SPAN_SHAPE = {
    "name": str, "span_id": int, "trace_id": int,
    "?parent_id": (int, type(None)), "?depth": int, "?start": float,
    "?duration": float, "?attributes": dict,
}


class _ActiveSpan:
    """Context manager binding one Span to the tracer's thread stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span.start = perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> None:
        span = self._span
        span.duration = perf_counter() - span.start
        if exc is not None:
            span.attributes.setdefault("error", repr(exc))
        self._tracer._pop(span)
        self._tracer._record(span)
        return None


class _NullSpan:
    """The span the null tracer yields: attribute writes vanish."""

    __slots__ = ()
    name = ""
    span_id = 0
    trace_id = 0
    parent_id = None
    depth = 0
    start = 0.0
    duration = 0.0
    attributes: Dict[str, object] = {}

    def set_attribute(self, key: str, value: object) -> None:
        pass


class _NullSpanContext:
    __slots__ = ("_span",)

    def __init__(self) -> None:
        self._span = _NullSpan()

    def __enter__(self) -> _NullSpan:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class Tracer:
    """Span factory + finished-span store + metrics front-end."""

    enabled = True

    def __init__(self, sinks: Iterable = (),
                 metrics: Optional[Metrics] = None) -> None:
        self.sinks = list(sinks)
        self.metrics = metrics if metrics is not None else Metrics()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished: List[Span] = []
        # The same spans by trace, so a job's or an app's trace is read
        # without scanning every span the tracer has kept.
        self._by_trace: Dict[int, List[Span]] = {}
        self._local = threading.local()

    def __reduce__(self):
        # A tracer crosses a process boundary empty: its sinks and
        # record stay behind.  A process sweep folds what the far side
        # records back in (``absorb``, Metrics.merge).
        return (Tracer, ())

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        parent = self.current_span()
        span_id = next(self._ids)
        return _ActiveSpan(self, Span(
            name=name,
            span_id=span_id,
            trace_id=parent.trace_id if parent else span_id,
            parent_id=parent.span_id if parent else None,
            depth=parent.depth + 1 if parent else 0,
            start=0.0,
            attributes=attributes,
        ))

    def trace_span(self, name: str, trace_id: Optional[int],
                   **attributes: object) -> _ActiveSpan:
        """A span bound to an *explicit* trace.

        The serve scheduler correlates everything one job does — across
        scheduler rounds, sweep threads and worker processes — under the
        job's ``trace_id``.  When the thread already has an open parent
        span the parent wins (nesting stays intact); otherwise the span
        becomes a root of the given trace instead of starting a fresh
        one.  ``trace_id=None`` behaves exactly like :meth:`span`.
        """
        active = self.span(name, **attributes)
        span = active._span
        if trace_id is not None and span.parent_id is None:
            span.trace_id = trace_id
        return active

    def record_span(self, name: str, duration: float,
                    trace_id: Optional[int] = None,
                    start: float = 0.0,
                    **attributes: object) -> Span:
        """Record a span retrospectively, from timestamps already taken.

        Queue wait is the canonical case: the interval between a job's
        submission and its pickup is only known once the scheduler takes
        the job, after the fact — there is no code region to wrap.  The
        span lands as a root of ``trace_id`` (or of its own fresh trace)
        and flows to the finished store and sinks like any other.
        """
        span_id = next(self._ids)
        span = Span(
            name=name,
            span_id=span_id,
            trace_id=trace_id if trace_id is not None else span_id,
            parent_id=None,
            depth=0,
            start=start,
            duration=max(0.0, float(duration)),
            attributes=attributes,
        )
        self._record(span)
        return span

    def current_span(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)
            self._by_trace.setdefault(span.trace_id, []).append(span)
        for sink in self.sinks:
            sink.emit(span)

    # -- reading -----------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def spans_in_trace(self, trace_id: int) -> List[Span]:
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    def subtree(self, root: Span) -> List[Span]:
        """``root`` and every span under it, in recording order.

        A finished span is recorded after its children, so one backward
        pass over the root's trace meets each parent before its
        children; spans of other subtrees on the trace are left out.
        """
        ids = {root.span_id}
        spans = []
        for span in reversed(self.spans_in_trace(root.trace_id)):
            if span is root or span.parent_id in ids:
                ids.add(span.span_id)
                spans.append(span)
        spans.reverse()
        return spans

    # -- merging -----------------------------------------------------------

    def absorb(self, spans: Iterable[Span],
               into_trace: Optional[int] = None) -> List[Span]:
        """Fold spans recorded by another tracer into this one.

        The process-pool sweep backend gives each worker its own in-memory
        tracer; on join the parent absorbs each worker's record so its
        finished-span store and sinks see the whole fleet.  Span, trace
        and parent ids are remapped into this tracer's id space (the
        worker counted from 1 too), preserving the tree structure.
        ``into_trace`` re-homes every absorbed span onto an existing
        trace in *this* tracer's id space — the serve scheduler passes
        the job's trace id so worker spans correlate with the submit /
        queue / round spans recorded parent-side.  Returns the remapped
        spans, in worker recording order.
        """
        spans = list(spans)
        if not spans:
            return []
        peak = max(max(s.span_id, s.trace_id) for s in spans)
        with self._lock:
            base = next(self._ids)
            self._ids = itertools.count(base + peak + 1)
        absorbed: List[Span] = []
        for span in spans:
            absorbed.append(Span(
                name=span.name,
                span_id=span.span_id + base,
                trace_id=(into_trace if into_trace is not None
                          else span.trace_id + base),
                parent_id=(None if span.parent_id is None
                           else span.parent_id + base),
                depth=span.depth,
                start=span.start,
                duration=span.duration,
                attributes=span.attributes,
            ))
        for span in absorbed:
            self._record(span)
        return absorbed

    # -- plumbing ----------------------------------------------------------

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def inc(self, name: str, value: float = 1) -> None:
        self.metrics.inc(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._by_trace.clear()
        self.metrics.clear()

    def drop_trace(self, trace_id: int) -> None:
        """Forget the finished spans of one trace (``repro serve``
        drops a finished job's).  Sinks already have them; only
        ``finished_spans`` and ``spans_in_trace`` stop returning them."""
        with self._lock:
            if self._by_trace.pop(trace_id, None) is not None:
                self._finished = [span for span in self._finished
                                  if span.trace_id != trace_id]

    def close(self) -> None:
        """Close every sink that supports closing (flushes files)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class NullTracer(Tracer):
    """The default: every operation is a constant-time no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(metrics=NULL_METRICS)
        self._null_context = _NullSpanContext()

    def __reduce__(self):
        return (NullTracer, ())

    def span(self, name: str, **attributes: object) -> _NullSpanContext:  # type: ignore[override]
        return self._null_context

    def trace_span(self, name: str, trace_id: Optional[int],
                   **attributes: object) -> _NullSpanContext:  # type: ignore[override]
        return self._null_context

    def record_span(self, name: str, duration: float,
                    trace_id: Optional[int] = None,
                    start: float = 0.0,
                    **attributes: object) -> _NullSpan:  # type: ignore[override]
        return self._null_context._span

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def absorb(self, spans: Iterable[Span],
               into_trace: Optional[int] = None) -> List[Span]:
        return list(spans)

    def _record(self, span: Span) -> None:  # pragma: no cover - unreachable
        pass


NULL_TRACER = NullTracer()
