"""Longitudinal run registry: persistent, content-addressed run records.

A single run can be traced, metered and replayed (PRs 1 and 3), but the
moment a sweep ends its coverage, timing and fault census vanish with
the process — nothing observes the system *across* runs.  This module
is that memory: one JSON record per run, append-only, under a store
directory you choose.

A :class:`RunRecord` snapshots everything the longitudinal questions
need:

* the **config fingerprint** (mechanism flags, budgets, fault profile)
  and the **corpus digest** (SHA-256 over the per-app
  :meth:`~repro.apk.package.ApkPackage.digest` values), so two records
  are known-comparable before any number is compared;
* per-app **coverage rows** (the ``sweep_rows`` shape) plus derived
  aggregates (mean activity/fragment rates, API/event/crash totals);
* the **counters and histogram aggregates** of the run's metrics
  registry and the **fault census** of the sweep;
* per-phase **span self-time percentiles** (p50/p90/p99 over each span
  name's self time, via :func:`repro.obs.metrics.percentile`) and —
  when the tracer samples memory (``Tracer(memory=True)``) — the peak
  **tracemalloc** growth per phase;
* per-app **discovery statistics** from the flight-recorder timeline
  (final coverage checkpoint, t50/t90 per series) when the event log
  was enabled.

Records are content-addressed: ``run_id`` is a SHA-256 prefix over the
canonical JSON of the measurement payload (``meta`` — timestamps,
backend, worker count — is deliberately outside the hash), so a record
can never be silently edited in place and identical measurements share
an id.  The registry is a :class:`~repro.store.DocumentStore`: writes
are atomic, so concurrent sweeps sharing one store never interleave
bytes, and a corrupted or truncated record file is *skipped with a
warning*, never fatal.

``RunRegistry.pin`` marks one record as the baseline the regression
gate (:mod:`repro.obs.regress`) compares candidates against; ``gc``
keeps the newest N records but never deletes the pinned baseline.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.flame import build_trees
from repro.obs.metrics import percentile
from repro.obs.timeline import coverage_timeline, discovery_stats
from repro.store import (
    DocumentStore,
    atomic_write,
    content_id,
    default_dir,
    read_document,
)

#: Bump whenever the record shape changes; records written by another
#: schema version are skipped with a warning instead of mis-parsing.
RECORD_SCHEMA = 1

#: The pin marker inside a registry directory: its content is the
#: run id of the baseline record `repro regress` compares against.
PIN_FILE = "BASELINE"

#: Config fields that make two runs comparable.  Live observers, fault
#: plans and caches are execution vehicles, not semantics, and stay out.
_FINGERPRINT_FIELDS = (
    "enable_reflection", "enable_forced_start", "enable_input_file",
    "enable_click_exploration", "input_strategy", "queue_order",
    "max_events", "max_queue_items", "max_restarts_per_item",
    "fault_profile", "fault_seed", "quarantine_threshold",
)


def default_registry_dir() -> pathlib.Path:
    """``$FRAGDROID_RUNS_DIR`` or ``~/.cache/fragdroid/runs``."""
    return default_dir("FRAGDROID_RUNS_DIR", "runs")


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """One run's persistent observability snapshot."""

    label: str = "run"
    config: Dict[str, object] = field(default_factory=dict)
    corpus_digest: str = ""
    # Per-app coverage rows, the repro.bench.parallel.sweep_rows shape.
    apps: List[Dict] = field(default_factory=list)
    # Derived numeric aggregates (mean rates, totals); generic keys so
    # non-sweep runs (usage study, ingested benches) fit the same slot.
    coverage: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    # Histogram aggregates (count/total/min/max/mean per name).
    histograms: Dict[str, Dict] = field(default_factory=dict)
    fault_census: Dict[str, int] = field(default_factory=dict)
    # Span name -> {count, self_total_s, self_p50_ms, self_p90_ms,
    # self_p99_ms[, mem_peak_kb]}.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # App -> flight-recorder discovery stats (final checkpoint + t50/t90).
    timeline: Dict[str, Dict] = field(default_factory=dict)
    # Unhashed context: created timestamp, backend, worker count, ...
    meta: Dict[str, object] = field(default_factory=dict)
    schema: int = RECORD_SCHEMA
    run_id: str = ""

    # -- content addressing ------------------------------------------------

    def payload(self) -> Dict:
        """The hashed measurement payload — everything except the id
        itself and the unhashed ``meta`` context."""
        return {
            "schema": self.schema,
            "label": self.label,
            "config": self.config,
            "corpus_digest": self.corpus_digest,
            "apps": self.apps,
            "coverage": self.coverage,
            "counters": self.counters,
            "histograms": self.histograms,
            "fault_census": self.fault_census,
            "phases": self.phases,
            "timeline": self.timeline,
        }

    def compute_id(self) -> str:
        return content_id(self.payload())

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict:
        data = self.payload()
        data["run_id"] = self.run_id or self.compute_id()
        data["meta"] = self.meta
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        schema = int(data.get("schema", -1))
        if schema != RECORD_SCHEMA:
            raise ValueError(f"unsupported run-record schema {schema!r} "
                             f"(this build reads {RECORD_SCHEMA})")
        return cls(
            label=str(data.get("label", "run")),
            config=dict(data.get("config") or {}),
            corpus_digest=str(data.get("corpus_digest", "")),
            apps=[dict(r) for r in data.get("apps") or ()],
            coverage=dict(data.get("coverage") or {}),
            counters=dict(data.get("counters") or {}),
            histograms=dict(data.get("histograms") or {}),
            fault_census=dict(data.get("fault_census") or {}),
            phases=dict(data.get("phases") or {}),
            timeline=dict(data.get("timeline") or {}),
            meta=dict(data.get("meta") or {}),
            schema=schema,
            run_id=str(data.get("run_id", "")),
        )

    # -- views -------------------------------------------------------------

    @property
    def created(self) -> float:
        try:
            return float(self.meta.get("created", 0.0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 0.0

    def total_phase_time(self) -> float:
        """Total self time across every phase, in seconds."""
        return float(sum(stats.get("self_total_s", 0.0)
                         for stats in self.phases.values()))

    def summary_row(self) -> Dict[str, object]:
        """The ``repro runs list`` row."""
        return {
            "run_id": self.run_id or self.compute_id(),
            "label": self.label,
            "created": self.created,
            "apps": int(self.coverage.get("apps_total", len(self.apps))),
            "apps_ok": int(self.coverage.get("apps_ok", len(self.apps))),
            "mean_activity_rate": self.coverage.get("mean_activity_rate"),
            "mean_fragment_rate": self.coverage.get("mean_fragment_rate"),
            "apis": self.coverage.get("apis"),
            "phase_s": round(self.total_phase_time(), 4),
            "faults": sum(self.fault_census.values()),
        }


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

def config_fingerprint(config) -> Dict[str, object]:
    """The semantic config fields as a comparable, JSON-ready dict.

    Analyst input values are folded to a digest: their content matters
    for comparability, their secrets don't belong in a run record.
    """
    if config is None:
        return {}
    fingerprint: Dict[str, object] = {
        name: getattr(config, name)
        for name in _FINGERPRINT_FIELDS if hasattr(config, name)
    }
    values = getattr(config, "input_values", None)
    if values:
        fingerprint["input_values_digest"] = content_id(
            sorted(values.items()))
    return fingerprint


def phase_stats(spans) -> Dict[str, Dict[str, float]]:
    """Per-phase (span-name) self-time stats with p50/p90/p99, plus the
    peak tracemalloc growth when the tracer sampled memory."""
    self_times: Dict[str, List[float]] = {}
    mem_peaks: Dict[str, List[float]] = {}
    for root in build_trees(list(spans)):
        for node in root.walk():
            name = node.span.name
            self_times.setdefault(name, []).append(node.self_time)
            mem = node.span.attributes.get("mem_peak_kb")
            if isinstance(mem, (int, float)) and not isinstance(mem, bool):
                mem_peaks.setdefault(name, []).append(float(mem))
    stats: Dict[str, Dict[str, float]] = {}
    for name, values in self_times.items():
        entry: Dict[str, float] = {
            "count": len(values),
            "self_total_s": round(sum(values), 6),
            "self_p50_ms": round(percentile(values, 0.50) * 1000, 3),
            "self_p90_ms": round(percentile(values, 0.90) * 1000, 3),
            "self_p99_ms": round(percentile(values, 0.99) * 1000, 3),
        }
        if name in mem_peaks:
            entry["mem_peak_kb"] = max(mem_peaks[name])
        stats[name] = entry
    return stats


def coverage_from_rows(rows: Sequence[Dict]) -> Dict[str, float]:
    """Aggregate coverage over per-app sweep rows (ok apps only for
    the visited tallies; failures still count in ``apps_total``)."""
    rows = [dict(r) for r in rows]
    ok = [r for r in rows if r.get("ok", True)]

    def rate(row: Dict, kind: str) -> float:
        total = row.get(f"{kind}_sum", 0) or 0
        return (row.get(f"{kind}_visited", 0) / total) if total else 0.0

    coverage: Dict[str, float] = {
        "apps_total": len(rows),
        "apps_ok": len(ok),
        "activities_visited": sum(r.get("activities_visited", 0)
                                  for r in ok),
        "activities_sum": sum(r.get("activities_sum", 0) for r in ok),
        "fragments_visited": sum(r.get("fragments_visited", 0) for r in ok),
        "fragments_sum": sum(r.get("fragments_sum", 0) for r in ok),
        "apis": sum(r.get("apis", 0) for r in ok),
        "events": sum(r.get("events", 0) for r in ok),
        "crashes": sum(r.get("crashes", 0) for r in ok),
    }
    if ok:
        coverage["mean_activity_rate"] = round(
            sum(rate(r, "activities") for r in ok) / len(ok), 6)
        coverage["mean_fragment_rate"] = round(
            sum(rate(r, "fragments") for r in ok) / len(ok), 6)
    return coverage


def _timeline_stats(event_log,
                    api_steps: Dict[str, Sequence[int]]) -> Dict[str, Dict]:
    """Per-app discovery statistics out of the flight record and each
    app's sensitive-API invocation steps."""
    apps = sorted({e.app for e in event_log.events() if e.app})
    out: Dict[str, Dict] = {}
    for app in apps:
        events = event_log.events(app=app)
        steps = api_steps.get(app, ())
        points = coverage_timeline(events, steps)
        final = points[-1]
        entry: Dict[str, object] = {
            "checkpoints": len(points) - 1,
            "activities": final.activities,
            "fragments": final.fragments,
            "fivas": final.fivas,
            "apis": final.apis,
        }
        entry.update(discovery_stats(events, steps))
        out[app] = entry
    return out


def capture_run_record(label: str,
                       config=None,
                       apps: Sequence[Dict] = (),
                       fault_census: Optional[Dict[str, int]] = None,
                       coverage: Optional[Dict[str, float]] = None,
                       corpus_digest: str = "",
                       meta: Optional[Dict[str, object]] = None,
                       api_steps: Optional[Dict[str, Sequence[int]]] = None,
                       ) -> RunRecord:
    """Snapshot a finished run into a :class:`RunRecord`.

    ``config`` is duck-typed as a
    :class:`~repro.core.config.FragDroidConfig`: its tracer contributes
    counters, histogram aggregates and per-phase self-time/memory
    stats, its event log the per-app discovery timeline — each only
    when enabled, so an unobserved run still records its coverage.
    ``apps`` are per-app rows in the ``sweep_rows`` shape; ``coverage``
    overrides the aggregates derived from them (for runs without
    per-app rows, e.g. the usage study).  ``api_steps`` maps each
    package to the device steps of its sensitive-API invocations, for
    the timeline's API series.
    """
    rows = sorted((dict(r) for r in apps),
                  key=lambda r: str(r.get("package", "")))
    record = RunRecord(
        label=label,
        config=config_fingerprint(config),
        corpus_digest=corpus_digest,
        apps=rows,
        coverage=(dict(coverage) if coverage is not None
                  else coverage_from_rows(rows)),
        fault_census=dict(fault_census or {}),
        meta=dict(meta or {}),
    )
    if config is not None:
        tracer = getattr(config, "tracer", None)
        if tracer is not None and getattr(tracer, "enabled", False):
            record.counters = tracer.metrics.counters()
            record.histograms = tracer.metrics.snapshot()["histograms"]
            record.phases = phase_stats(tracer.finished_spans())
        event_log = getattr(config, "event_log", None)
        if event_log is not None and getattr(event_log, "enabled", False):
            record.timeline = _timeline_stats(event_log, api_steps or {})
    record.meta.setdefault("created", round(time.time(), 3))
    record.run_id = record.compute_id()
    return record


def corpus_digest_of(digests: Dict[str, Optional[str]]) -> str:
    """One digest over a corpus: SHA-256 of the sorted
    ``package:apk-digest`` lines (apps whose digest is unknown — e.g.
    failed before the build finished — contribute their package alone,
    so the corpus identity still reflects their presence)."""
    lines = sorted(
        f"{package}:{digest or ''}" for package, digest in digests.items()
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

def load_record(path) -> RunRecord:
    """Read one record file (e.g. a committed CI baseline)."""
    return RunRecord.from_dict(read_document(path))


class RunRegistry(DocumentStore):
    """Append-only store of run records under one directory.

    One ``<run_id>.json`` per record; a ``BASELINE`` marker file pins
    the regression baseline.  Corrupt or truncated record files are
    skipped with a warning (collected on ``self.skipped``) — a damaged
    store degrades, it never aborts.
    """

    kind = "run record"

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory if directory is not None
                         else default_registry_dir())

    def record(self, record: RunRecord) -> str:
        """Persist a record; returns its (content-addressed) run id."""
        if not record.run_id:
            record.run_id = record.compute_id()
        self.put(record.run_id, record.to_json())
        return record.run_id

    def load(self, run_id: str) -> RunRecord:
        """A record by id (unique prefixes accepted)."""
        return RunRecord.from_dict(self.read(self.resolve(run_id)))

    def list(self) -> List[RunRecord]:
        """Every readable record, oldest first (created, then id).

        Unreadable files — truncated writes, foreign schemas, plain
        corruption — are skipped with a warning and tallied on
        ``self.skipped``.
        """
        records = self.documents(RunRecord.from_dict)
        records.sort(key=lambda r: (r.created, r.run_id))
        return records

    def latest(self, n: int) -> List[RunRecord]:
        """The newest ``n`` records, oldest of them first."""
        records = self.list()
        return records[-max(0, n):] if n else []

    # -- baseline pinning --------------------------------------------------

    def pin(self, run_id: str) -> str:
        """Mark a record as the regression baseline; returns its full
        id (prefixes accepted, the record must exist)."""
        record = self.load(run_id)
        full_id = record.run_id or record.compute_id()
        # The pin file carries no ".json" suffix, so ids() never lists it.
        atomic_write(self.directory / PIN_FILE, full_id + "\n")
        return full_id

    def pinned(self) -> Optional[str]:
        try:
            text = (self.directory / PIN_FILE).read_text(
                encoding="utf-8").strip()
            return text or None
        except OSError:
            return None

    # -- maintenance -------------------------------------------------------

    def gc(self, keep: int = 10) -> List[str]:
        """Delete all but the newest ``keep`` records; the pinned
        baseline is never deleted regardless of age.  Returns the
        removed run ids."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep!r}")
        records = self.list()
        pinned = self.pinned()
        keepers = {r.run_id for r in (records[-keep:] if keep else [])}
        if pinned:
            keepers.add(pinned)
        return [record.run_id for record in records
                if record.run_id not in keepers
                and self.remove(record.run_id)]

    # -- bench ingestion ---------------------------------------------------

    def ingest_bench(self, path) -> RunRecord:
        """Turn one ``benchmarks/results/*.json`` file (the
        ``write_result_json`` schema) into a recorded run.

        Numeric leaves are flattened to dotted keys in ``coverage``, so
        bench trajectories diff with the same machinery as sweeps.
        """
        record = record_from_bench(path)
        self.record(record)
        return record


def record_from_bench(path) -> RunRecord:
    """A :class:`RunRecord` view of one bench-result JSON file, without
    storing it — the same flattening :meth:`RunRegistry.ingest_bench`
    applies, so a committed bench baseline and an ingested candidate
    always carry comparable coverage keys."""
    source = pathlib.Path(path)
    payload = read_document(source)
    name = str(payload.get("bench", source.stem))
    data = payload.get("data")
    if not isinstance(data, dict):
        raise ValueError(f"{source}: not a bench result file "
                         "(no 'data' object)")
    record = RunRecord(
        label=f"bench:{name}",
        coverage=_flatten_numeric(data),
        meta={
            "source": source.name,
            "bench_schema": payload.get("schema"),
            "created": round(source.stat().st_mtime, 3),
        },
    )
    record.run_id = record.compute_id()
    return record


def _flatten_numeric(data: Dict, prefix: str = "") -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(_flatten_numeric(value, name))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[name] = float(value)
    return out
