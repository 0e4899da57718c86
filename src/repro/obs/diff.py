"""Structured diff between two run-registry records.

This module answers the longitudinal question — "what changed
*between two runs*" — over the persistent
:class:`~repro.obs.registry.RunRecord` shape: per-app coverage deltas,
counter appear/vanish/shift with a tolerance band, per-phase self-time
deltas, plus the comparability facts (config
fingerprint, corpus digest) that say whether the numbers may be
compared at all.

Everything here is pure arithmetic over two records — no clocks, no
filesystem — so the same pair always produces the same
:class:`RecordDiff`, which is what lets :mod:`repro.obs.regress` gate
CI on it deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import RunRecord

#: Counters within this relative band of the baseline read as steady.
DEFAULT_TOLERANCE = 0.01

#: Per-app row fields worth diffing (sweep_rows shape).
_APP_FIELDS = ("activities_visited", "activities_sum",
               "fragments_visited", "fragments_sum",
               "apis", "events", "crashes")

APPEARED = "appeared"
VANISHED = "vanished"
SHIFTED = "shifted"
STEADY = "steady"


@dataclass(frozen=True)
class Delta:
    """One scalar compared across the two records.

    ``before``/``after`` are ``None`` on the side where the key does
    not exist — which is a different statement than a value of zero.
    """

    key: str
    before: Optional[float]
    after: Optional[float]
    tolerance: float = 0.0

    @property
    def delta(self) -> Optional[float]:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def rel(self) -> Optional[float]:
        """Relative change vs the baseline; None when undefined
        (missing on either side, or a zero baseline)."""
        if self.before is None or self.after is None or self.before == 0:
            return None
        return (self.after - self.before) / abs(self.before)

    @property
    def status(self) -> str:
        if self.before is None:
            return APPEARED
        if self.after is None:
            return VANISHED
        if self.before == self.after:
            return STEADY
        rel = self.rel
        if rel is not None and abs(rel) <= self.tolerance:
            return STEADY
        return SHIFTED

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "rel": self.rel,
            "status": self.status,
        }


def diff_numeric(before: Dict[str, float], after: Dict[str, float],
                 tolerance: float = 0.0) -> List[Delta]:
    """Key-union diff of two numeric dicts, sorted by key."""
    out: List[Delta] = []
    for key in sorted(set(before) | set(after)):
        out.append(Delta(
            key=key,
            before=(float(before[key]) if key in before
                    and before[key] is not None else None),
            after=(float(after[key]) if key in after
                   and after[key] is not None else None),
            tolerance=tolerance,
        ))
    return out


@dataclass(frozen=True)
class AppDelta:
    """One app's coverage compared across the two records."""

    package: str
    status: str  # appeared | vanished | shifted | steady
    fields: Tuple[Delta, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "status": self.status,
            "fields": [d.to_dict() for d in self.fields],
        }


def _diff_apps(before_rows: Sequence[Dict], after_rows: Sequence[Dict],
               tolerance: float) -> List[AppDelta]:
    before = {str(r.get("package", "")): r for r in before_rows}
    after = {str(r.get("package", "")): r for r in after_rows}
    out: List[AppDelta] = []
    for package in sorted(set(before) | set(after)):
        if package not in after:
            out.append(AppDelta(package, VANISHED))
            continue
        if package not in before:
            out.append(AppDelta(package, APPEARED))
            continue
        fields = tuple(
            Delta(name,
                  float(before[package].get(name, 0) or 0),
                  float(after[package].get(name, 0) or 0),
                  tolerance)
            for name in _APP_FIELDS
        )
        status = (SHIFTED if any(d.status == SHIFTED for d in fields)
                  else STEADY)
        out.append(AppDelta(package, status, fields))
    return out


@dataclass
class RecordDiff:
    """Everything that changed between a baseline and a candidate."""

    baseline_id: str
    candidate_id: str
    baseline_label: str = ""
    candidate_label: str = ""
    same_config: bool = True
    same_corpus: bool = True
    notes: List[str] = field(default_factory=list)
    coverage: List[Delta] = field(default_factory=list)
    counters: List[Delta] = field(default_factory=list)
    apps: List[AppDelta] = field(default_factory=list)
    phase_time: List[Delta] = field(default_factory=list)   # seconds

    @property
    def comparable(self) -> bool:
        return self.same_config and self.same_corpus

    def changed(self) -> Dict[str, List]:
        """Only the non-steady entries of every section."""
        return {
            "coverage": [d for d in self.coverage if d.status != STEADY],
            "counters": [d for d in self.counters if d.status != STEADY],
            "apps": [a for a in self.apps if a.status != STEADY],
            "phase_time": [d for d in self.phase_time
                           if d.status != STEADY],
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "baseline_label": self.baseline_label,
            "candidate_label": self.candidate_label,
            "comparable": self.comparable,
            "same_config": self.same_config,
            "same_corpus": self.same_corpus,
            "notes": list(self.notes),
            "coverage": [d.to_dict() for d in self.coverage],
            "counters": [d.to_dict() for d in self.counters],
            "apps": [a.to_dict() for a in self.apps],
            "phase_time": [d.to_dict() for d in self.phase_time],
        }

    # -- text rendering ----------------------------------------------------

    def render_text(self, changed_only: bool = True) -> str:
        lines = [
            f"run diff: {self.candidate_id} ({self.candidate_label}) "
            f"vs baseline {self.baseline_id} ({self.baseline_label})"
        ]
        for note in self.notes:
            lines.append(f"  ! {note}")
        sections = (
            self.changed() if changed_only else {
                "coverage": self.coverage, "counters": self.counters,
                "apps": self.apps, "phase_time": self.phase_time,
            }
        )
        units = {"phase_time": " s"}
        any_change = False
        for section in ("coverage", "apps", "counters", "phase_time"):
            entries = sections[section]
            if not entries:
                continue
            any_change = True
            lines.append("")
            lines.append(f"{section.replace('_', ' ')}:")
            for entry in entries:
                if isinstance(entry, AppDelta):
                    lines.append(f"  {entry.package:36} {entry.status}")
                    for delta in entry.fields:
                        if changed_only and delta.status == STEADY:
                            continue
                        lines.append("    " + _delta_line(delta, ""))
                else:
                    lines.append(
                        "  " + _delta_line(entry, units.get(section, "")))
        if changed_only and not any_change:
            lines.append("  no changes outside tolerance")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:g}"


def _delta_line(delta: Delta, unit: str) -> str:
    text = (f"{delta.key:34} {_fmt(delta.before):>12} -> "
            f"{_fmt(delta.after):>12}{unit}  [{delta.status}")
    rel = delta.rel
    if rel is not None and delta.status == SHIFTED:
        text += f" {rel:+.1%}"
    return text + "]"


def diff_records(baseline: RunRecord, candidate: RunRecord,
                 tolerance: float = DEFAULT_TOLERANCE) -> RecordDiff:
    """The structured diff of two records, candidate vs baseline.

    ``tolerance`` is the relative band within which counters and
    per-app fields read as steady; coverage aggregates and phase
    times always report their exact deltas (status still honours the
    band, so noisy totals don't drown the rendering).
    """
    diff = RecordDiff(
        baseline_id=baseline.run_id or baseline.compute_id(),
        candidate_id=candidate.run_id or candidate.compute_id(),
        baseline_label=baseline.label,
        candidate_label=candidate.label,
    )
    if baseline.config != candidate.config:
        diff.same_config = False
        changed_keys = sorted(
            key for key in set(baseline.config) | set(candidate.config)
            if baseline.config.get(key) != candidate.config.get(key)
        )
        diff.notes.append(
            "config fingerprints differ: " + ", ".join(changed_keys))
    if (baseline.corpus_digest and candidate.corpus_digest
            and baseline.corpus_digest != candidate.corpus_digest):
        diff.same_corpus = False
        diff.notes.append(
            f"corpus digests differ: {baseline.corpus_digest[:12]} vs "
            f"{candidate.corpus_digest[:12]}")
    diff.coverage = diff_numeric(baseline.coverage, candidate.coverage,
                                 tolerance)
    diff.counters = diff_numeric(baseline.counters, candidate.counters,
                                 tolerance)
    diff.apps = _diff_apps(baseline.apps, candidate.apps, tolerance)
    diff.phase_time = diff_numeric(
        {name: stats.get("self_total_s", 0.0)
         for name, stats in baseline.phases.items()},
        {name: stats.get("self_total_s", 0.0)
         for name, stats in candidate.phases.items()},
        tolerance,
    )
    return diff
