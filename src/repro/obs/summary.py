"""Human-readable views over a set of finished spans.

``aggregate_spans`` groups by span name (count / total / mean /
p50 / p90 / p99 / max); ``top_slowest`` ranks individual spans;
``render_summary`` combines both into the text table the CLI and the
reports embed.  :func:`repro.obs.metrics.percentile` is the shared
nearest-rank percentile every consumer (summary tables, histogram snapshots, the
run registry's per-phase self-time percentiles) computes with, so two
views of the same spans never disagree on what "p90" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.obs.metrics import percentile
from repro.obs.tracer import Span

__all__ = ["SpanStat", "aggregate_spans", "top_slowest", "timing_rows",
           "render_summary"]


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


def top_slowest(spans: Iterable[Span], n: int = 10) -> List[Span]:
    """The n individually slowest spans."""
    return sorted(spans, key=lambda s: -s.duration)[:max(0, n)]


def timing_rows(spans: Iterable[Span]) -> List[List[object]]:
    """Aggregate rows ready for a report table: name, count, total
    seconds, mean/p50/p90/p99/max milliseconds."""
    return [
        [stat.name, stat.count, f"{stat.total:.4f}",
         f"{stat.mean * 1000:.2f}", f"{stat.p50 * 1000:.2f}",
         f"{stat.p90 * 1000:.2f}", f"{stat.p99 * 1000:.2f}",
         f"{stat.maximum * 1000:.2f}"]
        for stat in aggregate_spans(spans)
    ]


def render_summary(spans: Sequence[Span], top: int = 10) -> str:
    """The per-phase aggregate table plus the top-N slowest spans."""
    if not spans:
        return "no spans recorded"
    header = (f"{'span':34} {'count':>7} {'total s':>9} "
              f"{'mean ms':>9} {'p50 ms':>9} {'p90 ms':>9} "
              f"{'p99 ms':>9} {'max ms':>9}")
    lines = [header, "-" * len(header)]
    for stat in aggregate_spans(spans):
        lines.append(
            f"{stat.name:34} {stat.count:>7} {stat.total:>9.4f} "
            f"{stat.mean * 1000:>9.2f} {stat.p50 * 1000:>9.2f} "
            f"{stat.p90 * 1000:>9.2f} {stat.p99 * 1000:>9.2f} "
            f"{stat.maximum * 1000:>9.2f}"
        )
    slowest = top_slowest(spans, top)
    if not slowest:
        return "\n".join(lines)
    lines.append("")
    lines.append(f"top {len(slowest)} slowest spans:")
    for span in slowest:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        lines.append(
            f"  {span.duration * 1000:>9.2f} ms  {span.name}"
            + (f"  [{attrs}]" if attrs else "")
        )
    return "\n".join(lines)
