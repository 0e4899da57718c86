"""Machine-readable exports of a run's observability record.

* :func:`prometheus_text` — the ``Metrics`` registry in the Prometheus
  text exposition format (``fragdroid_clicks_total 42``), so a fleet
  deployment can scrape sweep workers with stock tooling;
* :func:`run_manifest` — one JSON-ready summary of a run directory:
  coverage, stats, the event census, discovery statistics and which
  artifact files exist.  ``repro dashboard`` and fleet tooling read
  this instead of re-deriving everything from the raw streams.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.events import Event, event_census
from repro.obs.metrics import Metrics
from repro.obs.timeline import discovery_stats
from repro.obs.tracer import Span

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str = "fragdroid") -> str:
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def prometheus_text(metrics: Union[Metrics, Mapping],
                    prefix: str = "fragdroid") -> str:
    """The metrics snapshot in Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counter samples;
    histograms become proper *summaries* — ``{quantile="0.5|0.9|0.99"}``
    samples plus ``_sum`` / ``_count`` — with the min/max extremes as
    separate ``_min`` / ``_max`` gauges (a summary metric may only
    carry quantile/sum/count samples).  Accepts a live registry or a
    ``snapshot()`` dict; older snapshots without quantile fields are
    still accepted and simply omit the quantile samples.
    """
    snapshot = metrics.snapshot() if isinstance(metrics, Metrics) else metrics
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, stats in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for label, key in _QUANTILES:
            if key in stats:
                lines.append(
                    f'{metric}{{quantile="{label}"}} {stats[key]:g}')
        lines.append(f"{metric}_sum {stats['total']:g}")
        lines.append(f"{metric}_count {stats['count']:g}")
        lines.append(f"# TYPE {metric}_min gauge")
        lines.append(f"{metric}_min {stats['min']:g}")
        lines.append(f"# TYPE {metric}_max gauge")
        lines.append(f"{metric}_max {stats['max']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def run_manifest(result,
                 events: Optional[Sequence[Event]] = None,
                 spans: Optional[Sequence[Span]] = None,
                 files: Sequence[str] = ()) -> Dict:
    """A JSON-ready manifest of one run.

    ``result`` is duck-typed as an
    :class:`~repro.core.explorer.ExplorationResult` (package, coverage
    accessors, stats) so this layer stays import-free of ``repro.core``.
    """
    events = list(events if events is not None else result.events)
    spans = list(spans if spans is not None else result.spans)
    fiva_visited, fiva_total = result.fragments_in_visited_activities()
    manifest: Dict = {
        "package": result.package,
        "coverage": {
            "activities": {"visited": len(result.visited_activities),
                           "sum": result.activity_total},
            "fragments": {"visited": len(result.visited_fragments),
                          "sum": result.fragment_total},
            "fivas": {"visited": fiva_visited, "sum": fiva_total},
            "api_invocations": len(result.api_invocations),
        },
        "stats": {
            "test_cases": result.stats.test_cases,
            "events": result.stats.events,
            "crashes": result.stats.crashes,
            "restarts": result.stats.restarts,
            "aftm_updates": result.stats.aftm_updates,
        },
        "flight_recorder": {
            "events": len(events),
            "event_census": dict(sorted(event_census(events).items())),
            "spans": len(spans),
        },
        "files": sorted(files),
    }
    if events:
        manifest["discovery"] = discovery_stats(
            events, [inv.step for inv in result.api_invocations])
    if result.degradation is not None:
        manifest["degradation"] = result.degradation.to_dict()
    return manifest
