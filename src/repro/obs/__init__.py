"""Observability: tracing, metrics and the flight recorder.

The subsystem's recording half travels through ``FragDroidConfig``:

* :class:`Tracer` — nestable wall-clock spans
  (``with tracer.span("static.extract", app=pkg):``) recording
  ``perf_counter`` timing, attributes, and parent/child structure;
* :class:`Metrics` — a registry of named counters and histograms
  (events injected, clicks, reflection switches, forced starts, queue
  depth, APIs observed);
* :class:`EventLog` — the flight recorder: a typed, sequenced record of
  what happened (test-case starts and failures, state discoveries,
  clicks, Case-1/2/3 decisions, reflection switches, forced starts,
  generated inputs, injected faults, retries, quarantines, crash
  recoveries).  Every exploration keeps its own record
  (``ExplorationResult.events``); an enabled log receives each event
  as it is recorded and fans it out to its sinks;
* sinks — pluggable consumers of finished spans and events: in-memory
  (tests) and JSON-lines files (one JSON object per line, flushed per
  line so a crashed run keeps its record).

The analysis half replays a recorded run offline:

* ``repro.obs.summary`` — per-span aggregate tables;
* ``repro.obs.timeline`` — coverage-over-time curves, stall/plateau
  detection, time-to-50%/90% discovery statistics;
* ``repro.obs.flame`` — span-tree reconstruction, self-time, critical
  path, collapsed-stack flamegraph output;
* ``repro.obs.export`` — Prometheus text exposition;
* ``repro.obs.dashboard`` — the run-directory loader and the
  self-contained HTML run dashboard;
* ``repro.obs.registry`` / ``repro.obs.diff`` / ``repro.obs.regress``
  — the longitudinal layer: persistent content-addressed run records,
  structured run-to-run diffs, and the deterministic regression gate
  behind ``repro regress``;
* ``repro.obs.attribution`` — the coverage attribution engine: a typed
  cause, witness path and nearest visited ancestor for every unreached
  activity, fragment and sensitive API (``repro explain``).

Everything but the run record is opt-in: the default
``FragDroidConfig.tracer`` / ``event_log`` are the shared
:data:`NULL_TRACER` / :data:`NULL_EVENT_LOG`, whose ``span()`` /
``inc()`` / ``emit()`` are constant-time no-ops, so uninstrumented
behaviour is unchanged (``benchmarks/bench_obs_overhead.py`` holds both
no-op paths, and the enabled event log, under 5% of a Table-I sweep).
"""

from repro.obs.attribution import (
    CAUSES,
    CoverageExplanation,
    ExplanationStore,
    MissTarget,
    classify_app,
    classify_result,
    explain_outcomes,
    explain_result,
    explain_run_dir,
    fleet_cause_census,
    newly_unreached,
    render_explanation,
    top_blocking_widgets,
)
from repro.obs.dashboard import (
    RunData,
    load_explanations,
    load_fleet,
    load_run,
    queue_depth_series,
    render_attribution_section,
    render_dashboard,
    render_dashboard_dir,
    render_fleet_table,
    render_service_dashboard,
    render_service_section,
    render_trend_section,
    service_rows,
)
from repro.obs.diff import AppDelta, Delta, RecordDiff, diff_records
from repro.obs.events import (
    ALL_EVENT_KINDS,
    ATTRIBUTION_EVENT_KINDS,
    EVENT_KINDS,
    EXPLORATION_EVENT_KINDS,
    NULL_EVENT_LOG,
    SERVE_EVENT_KINDS,
    Event,
    EventLog,
    NullEventLog,
    event_census,
)
from repro.obs.export import prometheus_text
from repro.obs.flame import (
    FlameNode,
    build_trees,
    collapsed_stacks,
    critical_path,
    self_times,
)
from repro.obs.metrics import (
    NULL_METRICS,
    HistogramStats,
    Metrics,
    NullMetrics,
    percentile,
)
from repro.obs.regress import (
    RegressionPolicy,
    RegressionReport,
    Violation,
    check_regression,
)
from repro.obs.registry import (
    RunRecord,
    RunRegistry,
    capture_run_record,
    corpus_digest_of,
    default_registry_dir,
    load_record,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    SpanSink,
    read_events,
    read_spans,
)
from repro.obs.summary import SpanStat, aggregate_spans
from repro.obs.timeline import (
    CoveragePoint,
    Stall,
    coverage_timeline,
    discovery_stats,
    stalls,
    time_to_fraction,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "ALL_EVENT_KINDS",
    "ATTRIBUTION_EVENT_KINDS",
    "AppDelta",
    "CAUSES",
    "CoverageExplanation",
    "CoveragePoint",
    "Delta",
    "EVENT_KINDS",
    "EXPLORATION_EVENT_KINDS",
    "Event",
    "EventLog",
    "ExplanationStore",
    "FlameNode",
    "HistogramStats",
    "InMemorySink",
    "JsonlSink",
    "Metrics",
    "MissTarget",
    "NULL_EVENT_LOG",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullEventLog",
    "NullMetrics",
    "NullTracer",
    "RecordDiff",
    "RegressionPolicy",
    "RegressionReport",
    "RunData",
    "RunRecord",
    "RunRegistry",
    "SERVE_EVENT_KINDS",
    "Span",
    "SpanSink",
    "SpanStat",
    "Stall",
    "Tracer",
    "Violation",
    "aggregate_spans",
    "build_trees",
    "capture_run_record",
    "check_regression",
    "classify_app",
    "classify_result",
    "collapsed_stacks",
    "corpus_digest_of",
    "coverage_timeline",
    "critical_path",
    "default_registry_dir",
    "diff_records",
    "discovery_stats",
    "event_census",
    "explain_outcomes",
    "explain_result",
    "explain_run_dir",
    "fleet_cause_census",
    "load_explanations",
    "load_fleet",
    "load_record",
    "load_run",
    "newly_unreached",
    "percentile",
    "prometheus_text",
    "queue_depth_series",
    "read_events",
    "read_spans",
    "render_attribution_section",
    "render_dashboard",
    "render_dashboard_dir",
    "render_explanation",
    "render_fleet_table",
    "render_service_dashboard",
    "render_service_section",
    "render_trend_section",
    "self_times",
    "service_rows",
    "stalls",
    "time_to_fraction",
    "top_blocking_widgets",
]
