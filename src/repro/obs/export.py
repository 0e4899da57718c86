"""Machine-readable exports of a run's observability record:
:func:`prometheus_text` writes the ``Metrics`` registry in the
Prometheus text exposition format (``fragdroid_clicks_total 42``), so a
fleet deployment can scrape sweep workers with stock tooling.
"""

from __future__ import annotations

import re
from typing import List, Mapping, Union

from repro.obs.metrics import Metrics

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
