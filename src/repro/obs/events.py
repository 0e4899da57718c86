"""The flight recorder: a typed, sequenced event log of one run.

Spans (``repro.obs.tracer``) answer *where the time went*; the event
log answers *what happened, in what order* — every state discovery,
widget click, Case-1/2/3 decision, reflection switch, forced start,
generated input, injected fault, retry, quarantine and crash recovery,
stamped with the device step at which it happened.  It is the record
the timeline analytics (``repro.obs.timeline``) and the run dashboard
(``repro.obs.dashboard``) replay offline.

Every exploration keeps its own record, ``ExplorationResult.events``:
one ordered list into which each fact is recorded exactly once (see
:meth:`EventLog.run_record`).  The run trace, the coverage curve, the
miss classifier, the result's ``stats`` and the explorer's Metrics
counters all read that record.  Sensitive-API invocations are not
restated in it: their home is ``ExplorationResult.api_invocations``
(``report.json``'s ``api_invocations`` on disk), and the readers that
chart them take their steps from there.  An enabled :class:`EventLog`
on the config receives each event as it is recorded — the same object,
sequenced in the log's global order — keeps it in memory (``events()``)
and fans it out to its sinks: attach a
:class:`~repro.obs.sinks.JsonlSink` and the run streams to disk as one
JSON object per line, crash-durable because the sink flushes per line.
The default :data:`NULL_EVENT_LOG` receives nothing, and service-mode
and attribution call sites that emit straight into it cost nothing.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from time import perf_counter
from typing import Dict, Iterable, List, Optional

from repro.store import shaped_fields
from repro.types import Positional

# -- typed event kinds -------------------------------------------------------
#
# Every emit names one of these; consumers switch on them.

RUN_START = "run.start"              # exploration begins (app)
RUN_END = "run.end"                  # exploration ends (termination)
STATE_DISCOVERED = "state.discovered"  # first visit (component, name)
WIDGET_CLICKED = "widget.clicked"    # Case 3 tap (widget)
CASE_DECISION = "case.decision"      # Section VI-A decision (case=1|2|3)
REFLECTION_SWITCH = "reflection.switch"  # reflection item succeeded
FORCED_START = "forced.start"        # Section VI-C empty-Intent start
INPUT_GENERATED = "input.generated"  # an EditText was filled (widget, value)
TRANSITION = "transition"            # interface change (src, dst, widget)
FAULT_INJECTED = "fault.injected"    # repro.faults hit the run (fault, op|widget)
RETRY = "retry"                      # an adb re-attempt (error, delay[, action])
RETRY_END = "retry.end"              # a retried adb call ended (action, op)
QUARANTINE = "quarantine"            # widget circuit breaker tripped
CRASH_RECOVERY = "crash.recovery"    # requeue / replay / abandon after a crash
ITEM_START = "item.start"            # a queue item's test case begins (item)
ITEM_FAILED = "item.failed"          # the test case failed (cause, error)
LEFT_APP = "left.app"                # an intent escaped the app (activity)

# Service-mode job lifecycle (repro.serve).  The scheduler records each
# job through a view bound with ``job=<id>`` (``EventLog.bind``), so these
# and every exploration or attribution event the job causes carry its id.
JOB_STATE = "job.state"              # lifecycle transition (job, state)
JOB_APP_DONE = "job.app.done"        # one app's outcome journaled (job, ok)
JOB_WORKER_DIED = "job.worker.died"  # a sweep worker died (job, strikes)
JOB_READMITTED = "job.readmitted"    # dead-chunk app re-admitted (job)
JOB_ROUND = "job.round"              # one scheduler round swept (job, round)

# Coverage attribution (repro.obs.attribution): emitted by the post-hoc
# explainer, never by the explorer itself, so default runs stay
# byte-identical.
ATTRIBUTION_COMPUTED = "attribution.computed"  # one app explained (causes)
ATTRIBUTION_MISS = "attribution.miss"          # one unreached target (cause)

# The canonical kind registry.  This tuple is THE list — docs and tests
# import it rather than restating it, so adding a kind in one place
# cannot drift (grouped: exploration, service-mode, attribution).
EXPLORATION_EVENT_KINDS = (
    RUN_START, RUN_END, STATE_DISCOVERED, WIDGET_CLICKED, CASE_DECISION,
    REFLECTION_SWITCH, FORCED_START, INPUT_GENERATED, TRANSITION,
    FAULT_INJECTED, RETRY, RETRY_END, QUARANTINE, CRASH_RECOVERY,
    ITEM_START, ITEM_FAILED, LEFT_APP,
)
SERVE_EVENT_KINDS = (
    JOB_STATE, JOB_APP_DONE, JOB_WORKER_DIED, JOB_READMITTED, JOB_ROUND,
)
ATTRIBUTION_EVENT_KINDS = (
    ATTRIBUTION_COMPUTED, ATTRIBUTION_MISS,
)
ALL_EVENT_KINDS = (
    EXPLORATION_EVENT_KINDS + SERVE_EVENT_KINDS + ATTRIBUTION_EVENT_KINDS
)

EVENT_KINDS = frozenset(ALL_EVENT_KINDS)


class Event(Positional):
    """One line of the flight record (it pickles by position: a run
    record crosses the process-sweep boundary with every result)."""

    __slots__ = ("seq", "kind", "step", "app", "wall", "attributes")

    def __init__(self, seq: int, kind: str, step: int = 0, app: str = "",
                 wall: float = 0.0,
                 attributes: Optional[Dict[str, object]] = None) -> None:
        self.seq = seq
        self.kind = kind
        self.step = step
        self.app = app
        self.wall = wall
        self.attributes = dict(attributes) if attributes else {}

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "step": self.step,
            "app": self.app,
            "wall": self.wall,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object],
                  where: str = "event") -> "Event":
        """The event ``data`` holds; else
        :class:`~repro.errors.StoreError` naming ``where``."""
        return cls(**shaped_fields(data, _EVENT_SHAPE, where))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.seq}, {self.kind!r}, step={self.step}, "
                f"app={self.app!r}, attrs={self.attributes})")


#: What :meth:`Event.to_dict` writes (see :func:`repro.store.check_shape`).
_EVENT_SHAPE = {
    "seq": int, "kind": str, "?step": int, "?app": str, "?wall": float,
    "?attributes": dict,
}


class EventLog:
    """Sequenced, thread-safe event store plus sink fan-out.

    One log can serve a whole parallel sweep: the sequence numbers are
    global (so the JSONL stream totally orders the fleet) and each
    event carries its ``app``, so ``events(app=...)`` slices one app's
    record back out regardless of worker interleaving.
    """

    enabled = True

    def __init__(self, sinks: Iterable = ()) -> None:
        self.sinks = list(sinks)
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._events: List[Event] = []
        self._epoch = perf_counter()

    def __reduce__(self):
        # Any log, bound or null, crosses a process boundary as a null
        # log: it stays with its sinks.  Each run still keeps its own
        # record (ExplorationResult.events), which a process sweep
        # absorbs into the parent's log.
        return (NullEventLog, ())

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, step: int = 0, app: str = "",
             **attributes: object) -> Event:
        return self._record(kind, step, app, perf_counter() - self._epoch,
                            attributes)

    def absorb(self, events: Iterable[Event]) -> List[Event]:
        """Fold events recorded by another log into this one.

        Process-pool sweep workers record into their own logs (a log
        crosses the process boundary as a null log); on join the parent
        absorbs each worker's record.  Sequence numbers are re-assigned
        from this log's global counter (keeping the fleet stream
        gap-free); kind, step, app, wall offset and attributes are
        preserved.  Returns the re-sequenced events, in order.
        """
        return [self._record(event.kind, event.step, event.app, event.wall,
                             event.attributes)
                for event in events]

    def _record(self, kind: str, step: int, app: str, wall: float,
                attributes: Dict[str, object]) -> Event:
        # Sequencing, storage and sink fan-out happen under one lock, so
        # every sink sees the log's events in seq order.
        with self._lock:
            event = Event(seq=next(self._seq), kind=kind, step=step,
                          app=app, wall=wall, attributes=attributes)
            self._events.append(event)
            for sink in self.sinks:
                sink.emit(event)
        return event

    def bind(self, **stamp: object) -> "BoundEventLog":
        """A view that stamps ``stamp`` onto every event it records.

        The view records into this log (same sequence, storage and
        sinks) and remembers only its own events, so ``events()`` on it
        costs what the view recorded, not what the whole log holds.
        """
        return BoundEventLog(self, stamp)

    def run_record(self, app: str) -> "BoundEventLog":
        """A fresh run record for one exploration of ``app``.

        Every event the record takes is filed under ``app``.  It is a
        view of this log when the log is enabled, so both hold the same
        event objects with the same ``seq``; over a disabled log it
        sequences its own events from 1 and forwards nothing.
        """
        return BoundEventLog(self if self.enabled else None, {}, app=app)

    # -- reading -----------------------------------------------------------

    def events(self, app: Optional[str] = None) -> List[Event]:
        with self._lock:
            if app is None:
                return list(self._events)
            return [e for e in self._events if e.app == app]

    # -- plumbing ----------------------------------------------------------

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def drop(self, **stamp: object) -> None:
        """Forget the kept events whose attributes carry ``stamp``
        (``repro serve`` drops a finished job's, ``job=<id>``).  Sinks
        already have them; only ``events()`` stops returning them."""
        stamp_items = stamp.items()
        with self._lock:
            self._events = [event for event in self._events
                            if not stamp_items <= event.attributes.items()]

    def close(self) -> None:
        """Close every sink that supports closing (flushes files)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class BoundEventLog(EventLog):
    """One scope's view of a parent :class:`EventLog` (see
    :meth:`EventLog.bind` and :meth:`EventLog.run_record`).  ``repro
    serve`` binds one per job with ``job=<id>``, so a job's events carry
    its id wherever they land; each exploration records into one filed
    under its app.  Without a parent the view is a private log."""

    def __init__(self, parent: Optional[EventLog], stamp: Dict[str, object],
                 app: str = "") -> None:
        super().__init__()
        self.parent = parent
        self.stamp = dict(stamp)
        self.app = app
        if parent is not None:
            self.sinks = parent.sinks
            self._epoch = parent._epoch

    def emit(self, kind: str, step: int = 0, app: str = "",
             **attributes: object) -> Event:
        return super().emit(kind, step, app or self.app, **attributes)

    def _record(self, kind: str, step: int, app: str, wall: float,
                attributes: Dict[str, object]) -> Event:
        if self.stamp:
            attributes = {**attributes, **self.stamp}
        if self.parent is None:
            return super()._record(kind, step, app, wall, attributes)
        event = self.parent._record(kind, step, app, wall, attributes)
        with self._lock:
            self._events.append(event)
        return event


class NullEventLog(EventLog):
    """The default: ``emit`` discards everything at constant cost."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_event = Event(seq=0, kind="")

    def emit(self, kind: str, step: int = 0, app: str = "",
             **attributes: object) -> Event:
        return self._null_event

    def absorb(self, events: Iterable[Event]) -> List[Event]:
        return list(events)

    def bind(self, **stamp: object) -> "NullEventLog":
        return self


NULL_EVENT_LOG = NullEventLog()


def event_census(events: Iterable[Event]) -> Dict[str, int]:
    """Event counts by kind over any event sequence."""
    census: Dict[str, int] = {}
    for event in events:
        census[event.kind] = census.get(event.kind, 0) + 1
    return census


def record_census(events: Iterable[Event]) -> Counter:
    """Event counts by ``(kind, None)`` and, for an event that carries
    a cause, action or fault, also by ``(kind, that value)``."""
    census: Counter = Counter()
    for event in events:
        attrs = event.attributes
        census[event.kind, None] += 1
        qualifier = attrs.get("cause",
                              attrs.get("action", attrs.get("fault")))
        if qualifier is not None:
            census[event.kind, qualifier] += 1
    return census
