"""The fragility study: how recorded suites break across app versions.

The paper dismisses record-and-replay because replayed scripts "break
when the UI changes".  This module turns that one-liner into a
measurement (the Coppola et al. scripted-GUI-testing methodology):

1. explore an app and export every passing test case as a replay
   script — the *recorded suite*;
2. evolve the app through the :mod:`repro.corpus.mutations` operators
   (renamed widgets and fragments, a removed handler, an added
   activity, shuffled widget ids) — one synthetic "next version" per
   operator, all choices drawn from a seeded RNG;
3. replay the unchanged suite against every version and tabulate which
   script broke at which step, why, and how much of the recorded
   coverage survived.

Everything is deterministic under a fixed seed: two runs with the same
seed produce byte-identical tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.android.device import Device
from repro.apk.appspec import AppSpec
from repro.apk.builder import build_apk
from repro.core.config import FragDroidConfig
from repro.core.explorer import FragDroid
from repro.core.queue import OpKind
from repro.corpus.mutations import (
    add_activity,
    remove_handler,
    rename_fragment,
    rename_widget,
    shuffle_widget_ids,
)
from repro.rnr.recorder import ReplayScript
from repro.rnr.replay import SuiteReplayReport, replay_suite

#: The control row's name — the unmutated version every suite must
#: still replay divergence-free on (anything else is a harness bug).
CONTROL = "unchanged"


@dataclass(frozen=True)
class PlannedMutation:
    """One synthetic next version: operator name, what changed, spec."""

    name: str
    description: str
    spec: AppSpec


@dataclass
class FragilityRow:
    """One app version's line of the breakage table."""

    mutation: str
    description: str
    scripts: int
    broken: int
    events_applied: int
    events_total: int
    surviving: int        # recorded components the replay still reached
    recorded: int         # recorded components in total
    breakages: List[Dict[str, object]] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mutation": self.mutation,
            "description": self.description,
            "scripts": self.scripts,
            "broken": self.broken,
            "events_applied": self.events_applied,
            "events_total": self.events_total,
            "surviving": self.surviving,
            "recorded": self.recorded,
            "breakages": list(self.breakages),
            "lost": list(self.lost),
        }


@dataclass
class FragilityReport:
    """The whole study: recorded suite + one row per app version."""

    package: str
    seed: int
    scripts: int
    recorded_activities: List[str]
    recorded_fragments: List[str]
    rows: List[FragilityRow] = field(default_factory=list)

    @property
    def control_ok(self) -> bool:
        """True when the unmutated version replayed divergence-free."""
        for row in self.rows:
            if row.mutation == CONTROL:
                return row.broken == 0
        return False

    @property
    def breakage_total(self) -> int:
        """Broken scripts across the mutated versions (control excluded)."""
        return sum(row.broken for row in self.rows
                   if row.mutation != CONTROL)

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "seed": self.seed,
            "scripts": self.scripts,
            "recorded_activities": list(self.recorded_activities),
            "recorded_fragments": list(self.recorded_fragments),
            "control_ok": self.control_ok,
            "breakage_total": self.breakage_total,
            "rows": [row.to_dict() for row in self.rows],
        }

    def render(self) -> str:
        recorded = (len(self.recorded_activities)
                    + len(self.recorded_fragments))
        lines = [
            f"fragility study: {self.package} (seed {self.seed})",
            f"recorded suite: {self.scripts} scripts covering "
            f"{len(self.recorded_activities)} activities + "
            f"{len(self.recorded_fragments)} fragments",
            "",
            f"{'mutation':20} {'broken':>8} {'events':>12} "
            f"{'coverage kept':>14}  change",
            "-" * 76,
        ]
        for row in self.rows:
            lines.append(
                f"{row.mutation:20} "
                f"{row.broken}/{row.scripts:<6} "
                f"{row.events_applied}/{row.events_total:<11} "
                f"{row.surviving}/{recorded:<13} "
                f" {row.description}")
        details = [
            (row, breakage)
            for row in self.rows for breakage in row.breakages
        ]
        if details:
            lines.append("")
            lines.append("breakages:")
            for row, breakage in details:
                lines.append(
                    f"  {row.mutation}: {breakage['script']} diverged at "
                    f"step {breakage['step']} ({breakage['reason']})")
        losses = [row for row in self.rows if row.lost]
        if losses:
            lines.append("")
            lines.append("recorded coverage lost:")
            for row in losses:
                lines.append(f"  {row.mutation}: {', '.join(row.lost)}")
        return "\n".join(lines)


def _recordable_widget_ids(spec: AppSpec) -> List[str]:
    """Widget ids the mutation operators can locate in the spec (the
    top-level layouts and drawers — not popup/dialog children)."""
    ids = []
    for activity in spec.activities:
        ids.extend(w.id for w in activity.widgets)
        if activity.drawer:
            ids.extend(w.id for w in activity.drawer.items)
    for fragment in spec.fragments:
        ids.extend(w.id for w in fragment.widgets)
    return sorted(set(ids))


def _handler_widget_ids(spec: AppSpec) -> List[str]:
    ids = []
    for activity in spec.activities:
        ids.extend(w.id for w in activity.widgets if w.on_click)
        if activity.drawer:
            ids.extend(w.id for w in activity.drawer.items if w.on_click)
    for fragment in spec.fragments:
        ids.extend(w.id for w in fragment.widgets if w.on_click)
    return sorted(set(ids))


def plan_mutations(spec: AppSpec, scripts: List[ReplayScript],
                   seed: int = 0) -> List[PlannedMutation]:
    """The study's version stream: one deterministic plan per operator.

    Targets are drawn with a seeded RNG, preferring widgets the
    recorded suite actually exercised — a rename nobody recorded
    against measures nothing.
    """
    rng = random.Random(seed)
    plans: List[PlannedMutation] = []
    mutable = set(_recordable_widget_ids(spec))
    clicked = sorted({
        event.target
        for script in scripts for event in script.events
        if event.kind is OpKind.CLICK and event.target in mutable
    })
    pool = clicked or sorted(mutable)
    if pool:
        widget = rng.choice(pool)
        plans.append(PlannedMutation(
            "rename-widget", f"{widget} -> {widget}_v2",
            rename_widget(spec, widget, f"{widget}_v2")))
    handlers = [i for i in _handler_widget_ids(spec) if i in set(pool)] \
        or _handler_widget_ids(spec)
    if handlers:
        widget = rng.choice(handlers)
        plans.append(PlannedMutation(
            "remove-handler", f"{widget} handler dropped",
            remove_handler(spec, widget)))
    if spec.fragments:
        fragment = rng.choice(sorted(f.name for f in spec.fragments))
        plans.append(PlannedMutation(
            "rename-fragment", f"{fragment} -> {fragment}V2",
            rename_fragment(spec, fragment, f"{fragment}V2")))
    plans.append(PlannedMutation(
        "add-activity", "new UpdateNewsActivity shipped",
        add_activity(spec, "UpdateNewsActivity")))
    shuffle_seed = rng.randrange(1 << 30)
    plans.append(PlannedMutation(
        "shuffle-widget-ids", f"resource-id refactor (seed {shuffle_seed})",
        shuffle_widget_ids(spec, seed=shuffle_seed)))
    return plans


def _row_from_report(name: str, description: str,
                     report: SuiteReplayReport,
                     recorded_components: List[str]) -> FragilityRow:
    reached = set(report.activities) | set(report.fragments)
    surviving = [c for c in recorded_components if c in reached]
    return FragilityRow(
        mutation=name,
        description=description,
        scripts=report.scripts,
        broken=report.diverged,
        events_applied=report.events_applied,
        events_total=report.events_total,
        surviving=len(surviving),
        recorded=len(recorded_components),
        breakages=[
            {"script": o.name, "step": o.diverged_at, "reason": o.reason,
             "error": o.error}
            for o in report.outcomes if not o.ok
        ],
        lost=[c for c in recorded_components if c not in reached],
    )


def run_fragility(spec: AppSpec, seed: int = 0,
                  config: Optional[FragDroidConfig] = None,
                  ) -> FragilityReport:
    """Record a suite on ``spec`` and replay it across mutated versions."""
    apk = build_apk(spec)
    result = FragDroid(Device(), config or FragDroidConfig()).explore(apk)
    names = [case.name for case in result.passing_test_cases]
    scripts = [ReplayScript(case.package, case.operations)
               for case in result.passing_test_cases]
    recorded_activities = sorted(result.visited_activities)
    recorded_fragments = sorted(result.visited_fragments)
    recorded_components = recorded_activities + recorded_fragments

    report = FragilityReport(
        package=spec.package,
        seed=seed,
        scripts=len(scripts),
        recorded_activities=recorded_activities,
        recorded_fragments=recorded_fragments,
    )
    control = replay_suite(scripts, apk, names)
    report.rows.append(_row_from_report(
        CONTROL, "same version, fresh device", control,
        recorded_components))
    for plan in plan_mutations(spec, scripts, seed=seed):
        replayed = replay_suite(scripts, build_apk(plan.spec), names)
        report.rows.append(_row_from_report(
            plan.name, plan.description, replayed, recorded_components))
    return report
