"""Deterministic script replay with divergence reporting.

:func:`replay_script` is the one replay loop.  ``repro replay``, the
fragility study, regression runs, suite minimisation and targeted
driving all replay through it: it installs the instrumented package the
explorer ran on, applies the script step by step through
:func:`~repro.core.testcase.apply_operation` (the executor generated
test cases run on), observes the coverage each step reaches, and when a
step no longer applies reports *which* step broke and *why* instead of
unwinding the stack.

The outcome of one script is a :class:`ReplayOutcome`; a whole suite
aggregates into a :class:`SuiteReplayReport`, which converts to a
:class:`~repro.obs.registry.RunRecord` so replay health is recorded,
diffed and gated with the same machinery as coverage sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.adb.bridge import Adb
from repro.adb.instrumentation import instrument_manifest
from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.testcase import apply_operation
from repro.errors import (
    ActivityNotFoundError,
    AppNotInstalledError,
    ReflectionError,
    ReproError,
    SecurityException,
    TestCaseError,
    WidgetNotFoundError,
)
from repro.rnr.recorder import ReplayScript
from repro.robotium.solo import Solo

#: Divergence reason categories, most specific first.
_REASONS = (
    (WidgetNotFoundError, "widget-missing"),
    (ActivityNotFoundError, "activity-missing"),
    (SecurityException, "not-exported"),
    (ReflectionError, "reflection-failed"),
    (AppNotInstalledError, "not-installed"),
)


def _categorize(exc: ReproError, device: Device) -> Tuple[str, str]:
    """``(reason, error)`` of a failed step: the device-level cause the
    executor chained, if any, names both."""
    cause = exc
    if isinstance(exc, TestCaseError) and isinstance(exc.__cause__,
                                                     ReproError):
        cause = exc.__cause__
    for cls, reason in _REASONS:
        if isinstance(cause, cls):
            return reason, str(cause)
    return ("error" if device.app_alive else "app-died"), str(cause)


@dataclass
class ReplayOutcome:
    """What replaying one script against one app version produced."""

    package: str
    name: str = ""
    total: int = 0
    applied: int = 0
    diverged_at: Optional[int] = None  # index of the event that broke
    reason: str = ""                   # divergence category
    error: str = ""                    # the underlying message
    detail: str = ""                   # the executor's whole message
    crashed: bool = False              # the device's crash count rose
    activities: List[str] = field(default_factory=list)
    fragments: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.diverged_at is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "name": self.name,
            "total": self.total,
            "applied": self.applied,
            "ok": self.ok,
            "diverged_at": self.diverged_at,
            "reason": self.reason,
            "error": self.error,
            "activities": list(self.activities),
            "fragments": list(self.fragments),
        }

    def render(self) -> str:
        lines = [
            f"replay {self.name or self.package}: "
            f"{self.applied}/{self.total} events applied "
            + ("(divergence-free)" if self.ok
               else f"(diverged at step {self.diverged_at}: {self.reason})"),
        ]
        if not self.ok and self.error:
            lines.append(f"  cause: {self.error}")
        lines.append(f"  coverage reached: "
                     f"{len(self.activities)} activities, "
                     f"{len(self.fragments)} fragments")
        for name in self.activities:
            lines.append(f"    A {name}")
        for name in self.fragments:
            lines.append(f"    F {name}")
        return "\n".join(lines)


def replay_script(script: ReplayScript, device: Device,
                  apk: Optional[ApkPackage] = None,
                  name: str = "") -> ReplayOutcome:
    """Replay one script event by event on ``device``.

    ``apk`` (when given) is installed first, instrumented as the
    explorer installs it (forced starts need its exported activities),
    so a fresh ``Device()`` is enough.  The app starts from a stopped
    process.  After every applied event the reached interface is
    sampled (top activity + attached fragments) — the union is the
    coverage the replay reproduced.  The first event that no longer
    applies ends the run with a categorised divergence; nothing raises.
    """
    if apk is not None:
        device.install(instrument_manifest(apk))
    device.force_stop(script.package)
    solo, adb = Solo(device), Adb(device)
    outcome = ReplayOutcome(package=script.package, name=name,
                            total=len(script.events))
    activities: set = set()
    fragments: set = set()
    crashes_before = device.crash_count
    for index, op in enumerate(script.events):
        try:
            apply_operation(op, script.package, solo, adb)
        except ReproError as exc:
            outcome.diverged_at = index
            outcome.reason, outcome.error = _categorize(exc, device)
            outcome.detail = str(exc)
            break
        outcome.applied += 1
        activity = device.current_activity_name()
        if activity is not None:
            activities.add(activity)
        fragments.update(device.current_fragment_classes())
    outcome.crashed = device.crash_count > crashes_before
    outcome.activities = sorted(activities)
    outcome.fragments = sorted(fragments)
    return outcome


@dataclass
class SuiteReplayReport:
    """Replay outcomes of a whole recorded suite against one app."""

    package: str
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def scripts(self) -> int:
        return len(self.outcomes)

    @property
    def diverged(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def events_total(self) -> int:
        return sum(o.total for o in self.outcomes)

    @property
    def events_applied(self) -> int:
        return sum(o.applied for o in self.outcomes)

    @property
    def activities(self) -> List[str]:
        return sorted({a for o in self.outcomes for a in o.activities})

    @property
    def fragments(self) -> List[str]:
        return sorted({f for o in self.outcomes for f in o.fragments})

    @property
    def ok(self) -> bool:
        return self.diverged == 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "scripts": self.scripts,
            "diverged": self.diverged,
            "events_total": self.events_total,
            "events_applied": self.events_applied,
            "activities": self.activities,
            "fragments": self.fragments,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            f"replayed {self.scripts} scripts against {self.package}: "
            f"{self.events_applied}/{self.events_total} events applied, "
            f"{self.diverged} diverged",
            f"coverage reached: {len(self.activities)} activities, "
            f"{len(self.fragments)} fragments",
        ]
        for outcome in self.outcomes:
            if outcome.ok:
                continue
            lines.append(f"  {outcome.name or '<script>'}: diverged at "
                         f"step {outcome.diverged_at} ({outcome.reason})")
        return "\n".join(lines)


def replay_suite(scripts: List[ReplayScript], apk: ApkPackage,
                 names: Optional[List[str]] = None) -> SuiteReplayReport:
    """Replay each script on its own fresh device against ``apk``
    (installed instrumented, as :func:`replay_script` does)."""
    package = scripts[0].package if scripts else apk.package
    report = SuiteReplayReport(package=package)
    for index, script in enumerate(scripts):
        name = (names[index] if names and index < len(names)
                else f"script{index:04d}")
        report.outcomes.append(
            replay_script(script, Device(), apk=apk, name=name))
    return report


def replay_run_record(report: SuiteReplayReport, label: str = ""):
    """A :class:`~repro.obs.registry.RunRecord` of a suite replay.

    The coverage slot carries the replay health counters the regression
    gate reads (``replay_diverged`` > 0 on an unchanged app is a gated
    violation) next to the reached coverage totals, so replay records
    diff and gate exactly like sweep records.
    """
    from repro.obs.registry import RunRecord

    record = RunRecord(
        label=label or f"replay:{report.package}",
        coverage={
            "replay_scripts": float(report.scripts),
            "replay_diverged": float(report.diverged),
            "replay_events": float(report.events_total),
            "replay_applied": float(report.events_applied),
            "activities_visited": float(len(report.activities)),
            "fragments_visited": float(len(report.fragments)),
        },
    )
    record.run_id = record.compute_id()
    return record
