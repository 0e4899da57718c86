"""Coverage-over-time analytics on a flight record.

The paper's evaluation is about *discovery dynamics* — how fast the
AFTM-guided loop reaches Activities, Fragments and FIVAs versus Monkey
(Table I, the Section VII narratives).  This module turns a recorded
run back into those dynamics offline:

* :func:`coverage_timeline` — the discovery curve, one checkpoint per
  ``state.discovered`` event, tracking activities, fragments,
  fragments-in-visited-activities and sensitive-API invocations.  The
  record does not restate API invocations: callers pass their steps,
  from ``ExplorationResult.api_invocations`` or ``report.json``;
* :func:`stalls` — plateau detection via events-since-last-discovery;
* :func:`discovery_stats` — time-to-50% / time-to-90% discovery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import STATE_DISCOVERED, Event


@dataclass(frozen=True)
class CoveragePoint:
    """Cumulative discovery state at one checkpoint of the run."""

    step: int          # device input-event count at the checkpoint
    activities: int    # distinct activities discovered so far
    fragments: int     # distinct fragments discovered so far
    fivas: int         # discovered fragments whose host activity is too
    apis: int          # sensitive-API invocations observed by this step

    def to_dict(self) -> Dict[str, int]:
        return {
            "step": self.step,
            "activities": self.activities,
            "fragments": self.fragments,
            "fivas": self.fivas,
            "apis": self.apis,
        }


@dataclass(frozen=True)
class Stall:
    """A discovery plateau: a stretch of injected events that found
    nothing new."""

    start_step: int    # the last discovery before the plateau
    end_step: int      # the next discovery (or the end of the run)
    events: int        # events spent inside the plateau

    def to_dict(self) -> Dict[str, int]:
        return {
            "start_step": self.start_step,
            "end_step": self.end_step,
            "events": self.events,
        }


# ---------------------------------------------------------------------------
# Coverage curves
# ---------------------------------------------------------------------------

def coverage_timeline(events: Iterable[Event],
                      api_steps: Iterable[int] = ()) -> List[CoveragePoint]:
    """The discovery curve of a recorded run.

    Checkpoints are exactly the ``state.discovered`` events (plus the
    origin).  ``api_steps`` are the device steps of the run's
    sensitive-API invocations.
    """
    api_steps = sorted(api_steps)
    points: List[CoveragePoint] = [CoveragePoint(0, 0, 0, 0, 0)]
    visited_activities: set = set()
    fragment_hosts: Dict[str, Tuple[str, ...]] = {}

    def fiva_count() -> int:
        return sum(
            1 for hosts in fragment_hosts.values()
            if any(host in visited_activities for host in hosts)
        )

    for event in events:
        if event.kind != STATE_DISCOVERED:
            continue
        name = str(event.attributes.get("name", ""))
        if event.attributes.get("component") == "activity":
            visited_activities.add(name)
        else:
            fragment_hosts[name] = tuple(
                str(h) for h in event.attributes.get("hosts", ())  # type: ignore[union-attr]
            )
        points.append(CoveragePoint(
            step=event.step,
            activities=len(visited_activities),
            fragments=len(fragment_hosts),
            fivas=fiva_count(),
            apis=bisect_right(api_steps, event.step),
        ))
    return points


# ---------------------------------------------------------------------------
# Stalls & discovery statistics
# ---------------------------------------------------------------------------

def stalls(events: Iterable[Event], min_events: int = 50) -> List[Stall]:
    """Plateaus of at least ``min_events`` injected events with no new
    discovery, longest first.

    The final stretch — from the last discovery to the end of the run
    (the latest step any event carries, ``run.end``'s in a whole
    record) — counts too: the terminal plateau is usually the one that
    says the budget was spent on nothing.
    """
    events = list(events)
    discovery_steps = [e.step for e in events if e.kind == STATE_DISCOVERED]
    end_step = max((e.step for e in events), default=0)
    found: List[Stall] = []
    previous = 0
    for step in discovery_steps + [end_step]:
        gap = step - previous
        if gap >= min_events:
            found.append(Stall(start_step=previous, end_step=step,
                               events=gap))
        previous = max(previous, step)
    found.sort(key=lambda s: (-s.events, s.start_step))
    return found


def time_to_fraction(points: Sequence[CoveragePoint], series: str,
                     fraction: float) -> Optional[int]:
    """The step at which ``series`` ("activities" | "fragments" |
    "fivas" | "apis") first reached ``fraction`` of its final value;
    None when the run discovered nothing on that series."""
    if not points:
        return None
    final = getattr(points[-1], series)
    if final <= 0:
        return None
    threshold = final * fraction
    for point in points:
        if getattr(point, series) >= threshold:
            return point.step
    return None  # pragma: no cover - unreachable (last point qualifies)


def discovery_stats(events: Iterable[Event], api_steps: Iterable[int] = (),
                    ) -> Dict[str, Optional[int]]:
    """Time-to-50% and time-to-90% discovery per series, in device
    steps — the "how fast did it get there" half of Table I."""
    points = coverage_timeline(events, api_steps)
    stats: Dict[str, Optional[int]] = {}
    for series in ("activities", "fragments", "fivas", "apis"):
        stats[f"{series}_t50"] = time_to_fraction(points, series, 0.5)
        stats[f"{series}_t90"] = time_to_fraction(points, series, 0.9)
    return stats
