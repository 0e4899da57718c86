"""Record sinks: where finished spans and flight-recorder events go.

* :class:`InMemorySink` — a list, for tests and in-process inspection;
* :class:`JsonlSink` — one JSON object per line, the format
  ``repro show`` and ``repro dashboard`` read back.

A :class:`JsonlSink` accepts anything with a ``to_dict()`` — spans from
a :class:`~repro.obs.tracer.Tracer` and events from an
:class:`~repro.obs.events.EventLog` alike — and flushes after every
line, so a run that crashes mid-flight still leaves a complete record
of everything emitted before the crash.
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import IO, List, Union

from repro.obs.events import Event
from repro.obs.tracer import Span
from repro.store import read_jsonl

Source = Union[str, pathlib.Path, IO[str]]


class SpanSink:
    """Interface: ``emit`` each finished record; ``close`` when done."""

    def emit(self, record) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class InMemorySink(SpanSink):
    """Collects records into ``self.spans`` (thread-safe append)."""

    def __init__(self) -> None:
        self.spans: List = []
        self._lock = threading.Lock()

    def emit(self, record) -> None:
        with self._lock:
            self.spans.append(record)


class JsonlSink(SpanSink):
    """Writes each record as one JSON line to a path or open handle.

    Every line is flushed as it is written: a crash mid-run loses at
    most the line being formatted, never the buffered tail of the
    record (the property the flight recorder exists to provide).
    """

    def __init__(self, target: Union[str, pathlib.Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        self._lock = threading.Lock()

    def emit(self, record) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()


def read_spans(source: Source) -> List[Span]:
    """Load the spans back from a JSONL file (the round-trip of
    :class:`JsonlSink` attached to a tracer)."""
    return [span for span, _ in read_jsonl(source, Span.from_dict, "span")]


def read_events(source: Source) -> List[Event]:
    """Load flight-recorder events back from a JSONL file (the
    round-trip of :class:`JsonlSink` attached to an event log)."""
    return [event for event, _ in read_jsonl(source, Event.from_dict,
                                             "event")]
