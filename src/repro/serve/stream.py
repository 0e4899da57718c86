"""Live event streaming: the per-job history and fan-out behind SSE.

The :class:`EventBroker` attaches to the service's shared
:class:`~repro.obs.events.EventLog` as a *sink*
(``event_log.add_sink(broker)``).  Every event a job causes carries
that job's ``job`` stamp (the scheduler records through a view bound
with it), so the broker files each event under its job: a per-job
history that ``/jobs/<id>/logs`` and the SSE backlog read in
O(job events), and a push to the subscribers following that job.

Each :class:`Subscription` owns a **bounded** queue: a slow client
(or one that stopped reading without closing the socket) cannot make
the service buffer without limit.  When a subscriber's queue fills,
the subscription is marked *overflowed*, the drop is counted
(``serve.sse.dropped``) and the serving loop closes that stream.  The
history still holds every event, so the client resumes where it left
off (``Last-Event-ID``) instead of losing the tail.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs.events import Event
from repro.obs.metrics import NULL_METRICS, Metrics

#: Per-subscriber buffer bound; ~a few screens of events.  A client
#: further behind than this is not following live anymore.
DEFAULT_BUFFER = 256


def event_matches(event: Event, job_id: str) -> bool:
    """Whether ``event`` belongs to one job's stream: it carries the
    job's stamp."""
    return event.attributes.get("job") == job_id


class Subscription:
    """One client's bounded view of a job's live event stream."""

    def __init__(self, job_id: str, buffer: int = DEFAULT_BUFFER) -> None:
        self.job_id = job_id
        self._queue: "queue.Queue[Event]" = queue.Queue(maxsize=max(1, buffer))
        self.overflowed = False
        self.closed = False

    def matches(self, event: Event) -> bool:
        return event_matches(event, self.job_id)

    def offer(self, event: Event) -> bool:
        """Enqueue without blocking; a full buffer marks the
        subscription overflowed instead of stalling the emitter."""
        if self.closed or self.overflowed:
            return False
        try:
            self._queue.put_nowait(event)
            return True
        except queue.Full:
            self.overflowed = True
            return False

    def get(self, timeout: float) -> Optional[Event]:
        """The next event, or None after ``timeout`` seconds of quiet
        (the serving loop's heartbeat interval)."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def pending(self) -> int:
        return self._queue.qsize()


class EventBroker:
    """EventLog sink keeping each job's history and fanning its events
    out to that job's subscriptions.

    Thread-safe: the event log emits from scheduler and worker-join
    threads while HTTP handler threads subscribe and unsubscribe.
    """

    def __init__(self, metrics: Metrics = NULL_METRICS,
                 buffer: int = DEFAULT_BUFFER) -> None:
        self.metrics = metrics
        self.buffer = buffer
        self._lock = threading.Lock()
        self._subscriptions: List[Subscription] = []
        self._history: Dict[str, List[Event]] = {}

    # -- the sink contract ---------------------------------------------------

    def emit(self, event: Event) -> None:
        job_id = event.attributes.get("job")
        if not job_id:
            return
        # Filing and the subscriber snapshot share one critical section
        # with subscribe(): an event is either in a new subscriber's
        # backlog or offered to it live, never both, never neither.
        with self._lock:
            self._history.setdefault(str(job_id), []).append(event)
            subscriptions = [s for s in self._subscriptions
                             if s.matches(event)]
        for subscription in subscriptions:
            if not subscription.offer(event) and subscription.overflowed:
                self.metrics.inc("serve.sse.dropped")

    # -- reading -------------------------------------------------------------

    def history(self, job_id: str) -> List[Event]:
        """The job's events, in seq order."""
        with self._lock:
            return list(self._history.get(job_id, ()))

    # -- subscriber lifecycle ------------------------------------------------

    def subscribe(self, job_id: str,
                  after: int = 0) -> Tuple[Subscription, List[Event]]:
        """A live subscription to the job's stream plus its backlog
        (``seq > after``), taken atomically."""
        subscription = Subscription(job_id, buffer=self.buffer)
        with self._lock:
            self._subscriptions.append(subscription)
            # The log fans out in seq order, so the history is sorted
            # and a resume point is found from the end.
            events = self._history.get(job_id, [])
            start = len(events)
            while start and events[start - 1].seq > after:
                start -= 1
            backlog = events[start:]
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
