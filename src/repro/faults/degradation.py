"""Graceful degradation: the run's account of its own adversity.

A resilient run does not abort on faults — it absorbs them and reports
what that cost: which faults were injected (or genuinely encountered),
how much retrying they took, which widgets got quarantined, and which
queue items had to be re-enqueued or abandoned.  The section appears in
``ExplorationResult.degradation`` (and the JSON/HTML reports) only when
a fault plan was active, so fault-free output stays byte-identical.
Every figure in it is counted off the run record
(:meth:`Degradation.from_record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    AppCrashError,
    CommandTimeoutError,
    DeviceDisconnectedError,
    PackedApkError,
    TransientAdbError,
    WorkerDiedError,
)
from repro.obs.events import (
    CRASH_RECOVERY,
    FAULT_INJECTED,
    QUARANTINE,
    RETRY,
    RETRY_END,
    Event,
    record_census,
)


@dataclass
class Degradation:
    """Faults seen, retries spent, and recovery outcomes of one run."""

    profile: str
    seed: int
    faults: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    recoveries: int = 0
    giveups: int = 0
    backoff_s: float = 0.0
    reconnects: int = 0
    quarantined: List[str] = field(default_factory=list)
    requeued_items: int = 0
    abandoned_items: int = 0

    @classmethod
    def from_record(cls, events: List[Event], profile: str,
                    seed: int) -> "Degradation":
        """The account of one run: its record's ``fault.injected``,
        ``retry``, ``retry.end``, ``quarantine`` and ``crash.recovery``
        events, counted."""
        census = record_census(events)
        backoff = 0.0
        for event in events:
            if event.kind == RETRY:
                backoff += event.attributes["delay"]  # type: ignore[operator]
        return cls(
            profile=profile,
            seed=seed,
            faults={fault: count for (kind, fault), count in census.items()
                    if kind == FAULT_INJECTED and fault is not None},
            retries=census[RETRY, None],
            recoveries=census[RETRY_END, "recover"],
            giveups=census[RETRY_END, "giveup"],
            backoff_s=backoff,
            reconnects=census[RETRY, "reconnect"],
            quarantined=sorted(str(event.attributes["widget"])
                               for event in events
                               if event.kind == QUARANTINE),
            requeued_items=census[CRASH_RECOVERY, "requeue"],
            abandoned_items=census[CRASH_RECOVERY, "abandon"],
        )

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    def to_dict(self) -> Dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "faults": dict(sorted(self.faults.items())),
            "total_faults": self.total_faults,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "giveups": self.giveups,
            "backoff_s": round(self.backoff_s, 6),
            "reconnects": self.reconnects,
            "quarantined": list(self.quarantined),
            "requeued_items": self.requeued_items,
            "abandoned_items": self.abandoned_items,
        }

    def render(self) -> str:
        """Human-readable lines for the coverage report."""
        faults = ", ".join(f"{kind}={count}"
                           for kind, count in sorted(self.faults.items()))
        lines = [
            f"fault profile: {self.profile} (seed {self.seed})",
            f"faults injected: {self.total_faults}"
            + (f" ({faults})" if faults else ""),
            f"retries: {self.retries} ({self.recoveries} recovered, "
            f"{self.giveups} gave up, {self.backoff_s:.2f}s backoff, "
            f"{self.reconnects} reconnects)",
            f"quarantined widgets: {len(self.quarantined)}"
            + (f" ({', '.join(self.quarantined)})" if self.quarantined else ""),
            f"queue items re-enqueued: {self.requeued_items}, "
            f"abandoned: {self.abandoned_items}",
        ]
        return "\n".join(lines)


def classify_fault(exc: BaseException) -> Optional[str]:
    """Map a captured sweep failure to its fault family (None when the
    failure is not a known fault kind)."""
    if isinstance(exc, DeviceDisconnectedError):
        return "disconnect"
    if isinstance(exc, TransientAdbError):
        return "adb-transient"
    if isinstance(exc, CommandTimeoutError):
        return "timeout"
    if isinstance(exc, AppCrashError):
        return "crash"
    if isinstance(exc, PackedApkError):
        return "packed-apk"
    if isinstance(exc, WorkerDiedError):
        return "worker-died"
    return None
