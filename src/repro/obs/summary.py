"""Per-phase aggregates over a set of finished spans.

``aggregate_spans`` groups by span name (count / total / mean /
p50 / p90 / p99 / max).  :func:`repro.obs.metrics.percentile` is the shared
nearest-rank percentile every consumer (summary tables, histogram snapshots, the
run registry's per-phase self-time percentiles) computes with, so two
views of the same spans never disagree on what "p90" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.obs.metrics import percentile
from repro.obs.tracer import Span

__all__ = ["SpanStat", "aggregate_spans"]


@dataclass(frozen=True)
class SpanStat:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int
    total: float
    maximum: float
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def aggregate_spans(spans: Iterable[Span]) -> List[SpanStat]:
    """Per-name aggregates, slowest total first."""
    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
    stats = [
        SpanStat(
            name=name,
            count=len(values),
            total=float(sum(values)),
            maximum=float(max(values)),
            p50=percentile(values, 0.50),
            p90=percentile(values, 0.90),
            p99=percentile(values, 0.99),
        )
        for name, values in durations.items()
    ]
    stats.sort(key=lambda s: (-s.total, s.name))
    return stats
