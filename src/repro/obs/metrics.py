"""Named counters and histograms.

Counters accumulate (events injected, clicks, reflection switches,
forced starts, APIs observed); histograms record every observation
(queue depth at each pop, per-app durations).  Both are thread-safe:
a parallel sweep shares one registry across its workers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    Deterministic for any ordering of the input (the values are sorted
    here), 0.0 for an empty sequence.  Nearest-rank (no interpolation)
    keeps the result an actual observed value, which is what a latency
    or self-time percentile should report.  This is the *single*
    quantile definition every consumer shares — per-phase self-time
    stats (:func:`repro.obs.flame.phase_stats`), histogram snapshots
    and the Prometheus exposition all agree on what "p90" means.
    """
    if not values:
        return 0.0
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of values already sorted (and not empty)."""
    if q <= 0.0:
        return float(ordered[0])
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class HistogramStats:
    """Aggregate view of one histogram."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def _stats_of(values: Sequence[float],
              ordered: Sequence[float]) -> HistogramStats:
    """The stats of ``values``; ``ordered`` is ``sorted(values)``."""
    if not values:
        return HistogramStats(count=0, total=0.0, minimum=0.0, maximum=0.0)
    return HistogramStats(
        count=len(values),
        total=float(sum(values)),
        minimum=float(min(values)),
        maximum=float(max(values)),
        p50=_nearest_rank(ordered, 0.50),
        p90=_nearest_rank(ordered, 0.90),
        p99=_nearest_rank(ordered, 0.99),
    )


class Metrics:
    """Thread-safe registry of named counters and histograms."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}
        # Per histogram, its first len(...) observations sorted: a read
        # sorts only what was observed since and merges it in.
        self._sorted: Dict[str, List[float]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    def merge(self, counters: Dict[str, float],
              histograms: Dict[str, List[float]]) -> None:
        """Fold another registry's raw recordings into this one.

        The process-pool sweep backend collects each worker's counters
        and raw histogram values and merges them on join, so the parent
        registry ends up with the same totals a shared thread-pool
        registry would have accumulated.  Routed through ``inc``/
        ``observe`` so :class:`NullMetrics` stays a no-op.

        Histogram values are validated on the way in: a non-numeric
        entry (or a NaN, or a bool smuggled in as a number) from a
        corrupted worker payload is *skipped* and tallied under the
        ``metrics.merge.skipped`` counter instead of poisoning every
        later percentile computation over that histogram.
        """
        for name, value in counters.items():
            self.inc(name, value)
        for name, values in histograms.items():
            for value in values:
                if (isinstance(value, bool)
                        or not isinstance(value, (int, float))
                        or value != value):  # NaN
                    self.inc("metrics.merge.skipped")
                    continue
                self.observe(name, value)

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def histogram(self, name: str) -> Tuple[float, ...]:
        with self._lock:
            return tuple(self._histograms.get(name, ()))

    def raw_histograms(self) -> Dict[str, List[float]]:
        """Every histogram's raw observations (for cross-process merge)."""
        with self._lock:
            return {name: list(values)
                    for name, values in self._histograms.items()}

    def histogram_stats(self, name: str) -> HistogramStats:
        with self._lock:
            values = list(self._histograms.get(name, ()))
            ordered = self._ordered(name, values)
        return _stats_of(values, ordered)

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-ready copy of everything recorded so far."""
        with self._lock:
            histograms = {name: (list(values), self._ordered(name, values))
                          for name, values in self._histograms.items()}
            counters = dict(self._counters)
        return {
            "counters": counters,
            "histograms": {name: _stats_of(values, ordered).to_dict()
                           for name, (values, ordered)
                           in histograms.items()},
        }

    def _ordered(self, name: str, values: List[float]) -> List[float]:
        """``sorted(values)``, the histogram's observations, from the
        sorted prefix kept since the last read.  Called under the lock.

        Sorting is stable, so merging the newly sorted tail into the
        kept prefix picks the same sample at every rank as sorting the
        whole history.  A NaN has no place in an order, so a history
        holding one is sorted whole on every read and never kept.
        """
        kept = self._sorted.get(name, [])
        fresh = values[len(kept):]
        if not fresh:
            return kept
        if any(value != value for value in fresh):  # NaN
            return sorted(values)
        ordered = kept + sorted(fresh)
        ordered.sort()  # two sorted runs: a linear merge
        self._sorted[name] = ordered
        return ordered

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._sorted.clear()

    def render(self) -> str:
        """The counters and histogram aggregates as a text table."""
        snapshot = self.snapshot()
        lines = [f"{'counter':40} {'value':>12}"]
        lines.append("-" * 53)
        for name, value in sorted(snapshot["counters"].items()):
            text = f"{value:g}"
            lines.append(f"{name:40} {text:>12}")
        if snapshot["histograms"]:
            lines.append("")
            lines.append(f"{'histogram':28} {'count':>7} {'mean':>10} "
                         f"{'p50':>10} {'p99':>10} {'min':>10} {'max':>10}")
            lines.append("-" * 90)
            for name, stats in sorted(snapshot["histograms"].items()):
                lines.append(
                    f"{name:28} {stats['count']:>7} {stats['mean']:>10.2f} "
                    f"{stats['p50']:>10.2f} {stats['p99']:>10.2f} "
                    f"{stats['min']:>10.2f} {stats['max']:>10.2f}"
                )
        return "\n".join(lines)


class NullMetrics(Metrics):
    """Drops every recording; reads as empty."""

    enabled = False

    def inc(self, name: str, value: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


NULL_METRICS = NullMetrics()
