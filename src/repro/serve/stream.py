"""Live event streaming: the per-job history and fan-out behind SSE.

The :class:`EventBroker` attaches to the service's shared
:class:`~repro.obs.events.EventLog` as a *sink*
(``event_log.add_sink(broker)``).  Every event a job causes carries
that job's ``job`` stamp (the scheduler records through a view bound
with it), so the broker files each event under its job: a per-job
history that ``/jobs/<id>/logs`` and the SSE backlog read in
O(job events), and a push to the subscribers following that job.

Each event is encoded once, as it is filed: the broker keeps the
``json.dumps(event.to_dict(), sort_keys=True)`` text next to the event
(a :class:`Filed` pair), and the SSE frame, the ``/logs`` body and the
spill file are all built from that text.

A finished job's history does not stay in memory: once its terminal
``job.state`` event has reached every sink, :meth:`EventBroker.release`
spills the texts, one per line, to ``<spill dir>/<job_id>.events.jsonl``
(beside the job's journal entry) and forgets them.  Readers of a
released job read that file; a subscribe racing the release takes
either the in-memory history or the file, decided under the broker
lock.

Each :class:`Subscription` owns a **bounded** queue: a slow client
(or one that stopped reading without closing the socket) cannot make
the service buffer without limit.  When a subscriber's queue fills,
the subscription is marked *overflowed*, the drop is counted
(``serve.sse.dropped``) and the serving loop closes that stream.  The
history still holds every event, so the client resumes where it left
off (``Last-Event-ID``) instead of losing the tail.
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import threading
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.events import JOB_STATE, Event
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.serve.jobs import TERMINAL_STATES
from repro.store import atomic_write, read_jsonl

#: Per-subscriber buffer bound; ~a few screens of events.  A client
#: further behind than this is not following live anymore.
DEFAULT_BUFFER = 256

#: A released job's history: ``<spill dir>/<job_id>`` plus this suffix.
#: Not ``.json``, so the journal's document listing never sees it.
SPILL_SUFFIX = ".events.jsonl"


def event_matches(event: Event, job_id: str) -> bool:
    """Whether ``event`` belongs to one job's stream: it carries the
    job's stamp."""
    return event.attributes.get("job") == job_id


def is_terminal(event: Event) -> bool:
    """Whether ``event`` is a job's terminal ``job.state`` event."""
    return (event.kind == JOB_STATE
            and event.attributes.get("state") in TERMINAL_STATES)


class Filed(NamedTuple):
    """One event as the broker keeps it: the event and its JSON text."""

    event: Event
    text: str

    @classmethod
    def encode(cls, event: Event) -> "Filed":
        return cls(event, json.dumps(event.to_dict(), sort_keys=True))


class Subscription:
    """One client's bounded view of a job's live event stream."""

    def __init__(self, job_id: str, buffer: int = DEFAULT_BUFFER) -> None:
        self.job_id = job_id
        self._queue: "queue.Queue[Filed]" = queue.Queue(maxsize=max(1, buffer))
        self.overflowed = False
        self.closed = False
        # Set by EventBroker.subscribe: the job's terminal event is at or
        # before the resume point, so the stream has nothing more to end.
        self.ended = False

    def matches(self, event: Event) -> bool:
        return event_matches(event, self.job_id)

    def offer(self, filed: Filed) -> bool:
        """Enqueue without blocking; a full buffer marks the
        subscription overflowed instead of stalling the emitter."""
        if self.closed or self.overflowed:
            return False
        try:
            self._queue.put_nowait(filed)
            return True
        except queue.Full:
            self.overflowed = True
            return False

    def get(self, timeout: float) -> Optional[Filed]:
        """The next event, or None after ``timeout`` seconds of quiet
        (the serving loop's heartbeat interval)."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def get_nowait(self) -> Optional[Filed]:
        """The next event already queued, or None at once."""
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            return None

    def pending(self) -> int:
        return self._queue.qsize()


class EventBroker:
    """EventLog sink keeping each job's history and fanning its events
    out to that job's subscriptions.

    ``spill_dir`` is where :meth:`release` writes a finished job's
    history and where readers of a released job find it (the service
    passes its journal directory).

    Thread-safe: the event log emits from scheduler and worker-join
    threads while HTTP handler threads subscribe and unsubscribe.
    """

    def __init__(self, spill_dir: os.PathLike,
                 metrics: Metrics = NULL_METRICS,
                 buffer: int = DEFAULT_BUFFER) -> None:
        self.metrics = metrics
        self.buffer = buffer
        self.spill_dir = pathlib.Path(spill_dir)
        self._lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        self._history: Dict[str, List[Filed]] = {}

    # -- the sink contract ---------------------------------------------------

    def emit(self, event: Event) -> None:
        job_id = event.attributes.get("job")
        if not job_id:
            return
        filed = Filed.encode(event)
        # Filing and the subscriber snapshot share one critical section
        # with subscribe(): an event is either in a new subscriber's
        # backlog or offered to it live, never both, never neither.
        with self._lock:
            self._history.setdefault(str(job_id), []).append(filed)
            subscriptions = [s for s in self._subscriptions
                             if s.matches(event)]
        for subscription in subscriptions:
            if not subscription.offer(filed) and subscription.overflowed:
                self.metrics.inc("serve.sse.dropped")

    # -- release -------------------------------------------------------------

    def spill_path(self, job_id: str) -> pathlib.Path:
        """Where a released job's history lives."""
        return self.spill_dir / f"{job_id}{SPILL_SUFFIX}"

    def release(self, job_id: str) -> None:
        """Spill the finished job's history to its file and forget it.

        Call it once the job's terminal event has been filed.  The file
        is written outside the broker lock, so running jobs keep
        emitting meanwhile; the history leaves memory, under the lock,
        only once the file holds all of it, so a reader gets one whole
        history or the other.  An event filed for the job during the
        write is caught by writing again.  A spill file already there
        (an event that reached an already released job) is extended,
        never replaced.  A failed write (counted,
        ``serve.spill.failed``) keeps the history in memory.
        """
        path = self.spill_path(job_id)
        try:
            earlier = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            earlier = ""
        except OSError:
            self.metrics.inc("serve.spill.failed")
            return
        while True:
            with self._lock:
                history = self._history.get(job_id)
                if history is None:
                    return
                filed = list(history)
            try:
                atomic_write(path, earlier + "".join(
                    entry.text + "\n" for entry in filed))
            except OSError:
                self.metrics.inc("serve.spill.failed")
                return
            with self._lock:
                history = self._history.get(job_id)
                if history is None or len(history) == len(filed):
                    self._history.pop(job_id, None)
                    return

    # -- reading -------------------------------------------------------------

    def history(self, job_id: str, after: int = 0) -> List[Filed]:
        """The job's events with ``seq > after``, in seq order, from
        memory or, once released, from its spill file."""
        with self._lock:
            kept = self._kept(job_id, after)
        return kept if kept is not None else self._spilled(job_id, after)

    def _kept(self, job_id: str, after: int) -> Optional[List[Filed]]:
        """The in-memory part of :meth:`history`; None once the job is
        released.  Called under the broker lock: the spill file is
        complete before the history leaves memory, so a reader gets
        one whole history or the other."""
        events = self._history.get(job_id)
        if events is None:
            return None
        return events[_resume_index(events, after):]

    def _spilled(self, job_id: str, after: int) -> List[Filed]:
        return [filed for filed in self._spill_file(job_id)
                if filed.event.seq > after]

    def _spill_file(self, job_id: str) -> List[Filed]:
        """The released job's events, each with its line's text; a
        damaged line raises :class:`~repro.errors.StoreError`."""
        try:
            filed = read_jsonl(self.spill_path(job_id), Event.from_dict,
                               "event")
        except FileNotFoundError:
            return []
        return [Filed(*pair) for pair in filed]

    # -- subscriber lifecycle ------------------------------------------------

    def subscribe(self, job_id: str,
                  after: int = 0) -> Tuple[Subscription, List[Filed]]:
        """A live subscription to the job's stream plus its backlog
        (``seq > after``), taken atomically.

        The subscription is marked ``ended`` when the job's history
        holds its terminal event at or before ``after``: the client
        resumed past the end, and no live event will end the stream.
        A terminal event filed after the subscription reaches it live.
        """
        subscription = Subscription(job_id, buffer=self.buffer)
        with self._lock:
            self._subscriptions.append(subscription)
            events = self._history.get(job_id)
            if events is not None:
                start = _resume_index(events, after)
                seen, backlog = events[:start], events[start:]
        if events is None:
            spilled = self._spill_file(job_id)
            seen = [filed for filed in spilled if filed.event.seq <= after]
            backlog = [filed for filed in spilled if filed.event.seq > after]
        subscription.ended = any(is_terminal(filed.event) for filed in seen)
        self.metrics.inc("serve.sse.subscribed")
        return subscription, backlog

    def unsubscribe(self, subscription: Subscription) -> None:
        """Idempotent detach; the subscription stops receiving and its
        buffer becomes garbage with it."""
        subscription.closed = True
        with self._lock:
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                return
        self.metrics.inc("serve.sse.unsubscribed")

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscriptions)


def _resume_index(events: List[Filed], after: int) -> int:
    """Where the events with ``seq > after`` start.  The log fans out in
    seq order, so a history is sorted and the point is found from the
    end."""
    start = len(events)
    while start and events[start - 1].event.seq > after:
        start -= 1
    return start
