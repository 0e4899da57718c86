"""Coverage attribution: a typed cause for every unreached target.

The rest of the observability stack reports *what* a run covered; this
module answers the complementary question — **why the rest wasn't**.
It joins the static universe (AFTM nodes, activities, fragments,
sensitive APIs from ``StaticInfo``) against the dynamic record (the
visited sets and the run record's events: clicks, quarantines,
injected faults, abandoned items) and classifies every unreached
target into one cause from a closed taxonomy:

``worker-died``
    the whole app's sweep chunk died with its worker process;
``blocked-by-fault``
    the app's run failed, or injected faults interrupted the item that
    would have reached the target;
``not-exported``
    an activity with no static witness path whose manifest entry is not
    exported, in a run that never used instrumented forced starts;
``no-static-path``
    no transition path from the entry reaches the target's node (or the
    target is not a working AFTM node at all);
``blocked-by-quarantine``
    the widget firing the first blocking edge was circuit-broken;
``action-diverged``
    that widget *was* clicked, but the expected transition never
    followed (login gates, input-validated forms, unidentifiable
    fragment attaches);
``frontier-never-expanded``
    a witness path exists and nothing blocked it — the event budget ran
    out before the frontier reached it;
``widget-never-clicked``
    the trigger was never operated: a bound widget the sweep never got
    to, or a listener never bound to any view (popup-menu items,
    drawer adapters — recovered by ``repro.static.triggers``);
``api-silent``
    a sensitive API whose host component was visited yet the API never
    fired;
``unclassified``
    the fallback that should never fire (CI asserts zero of these on
    the Table-I corpus).

Every classification carries **evidence**: the shortest static witness
path (``AFTM.path_to``), the nearest visited ancestor on it, and the
blocking widget when one is known.  The result is a
:class:`CoverageExplanation` — schema-versioned and content-addressed
like a :class:`~repro.obs.registry.RunRecord` — so explanations
persist, diff, and round-trip like any other run artifact.

Everything here is pure post-hoc analysis: nothing is computed unless
asked, so default runs stay byte-identical.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.dashboard import RunData, load_run
from repro.obs.events import (
    ATTRIBUTION_COMPUTED,
    ATTRIBUTION_MISS,
    CRASH_RECOVERY,
    FAULT_INJECTED,
    FORCED_START,
    QUARANTINE,
    RUN_END,
    WIDGET_CLICKED,
)
from repro.static.aftm import aftm_from_dict
from repro.store import (
    DocumentStore,
    check_schema,
    content_id,
    shaped_fields,
)

#: Bump whenever the explanation shape changes; foreign schemas are
#: rejected on read, mirroring ``RECORD_SCHEMA``.
EXPLANATION_SCHEMA = 1

# -- the cause taxonomy, ranked most severe first ---------------------------

CAUSE_WORKER_DIED = "worker-died"
CAUSE_BLOCKED_BY_FAULT = "blocked-by-fault"
CAUSE_NOT_EXPORTED = "not-exported"
CAUSE_NO_STATIC_PATH = "no-static-path"
CAUSE_BLOCKED_BY_QUARANTINE = "blocked-by-quarantine"
CAUSE_ACTION_DIVERGED = "action-diverged"
CAUSE_FRONTIER_NEVER_EXPANDED = "frontier-never-expanded"
CAUSE_WIDGET_NEVER_CLICKED = "widget-never-clicked"
CAUSE_API_SILENT = "api-silent"
CAUSE_UNCLASSIFIED = "unclassified"

#: The closed taxonomy, severity-ordered (render order, diff order).
CAUSES = (
    CAUSE_WORKER_DIED,
    CAUSE_BLOCKED_BY_FAULT,
    CAUSE_NOT_EXPORTED,
    CAUSE_NO_STATIC_PATH,
    CAUSE_BLOCKED_BY_QUARANTINE,
    CAUSE_ACTION_DIVERGED,
    CAUSE_FRONTIER_NEVER_EXPANDED,
    CAUSE_WIDGET_NEVER_CLICKED,
    CAUSE_API_SILENT,
    CAUSE_UNCLASSIFIED,
)

_CAUSE_RANK = {cause: rank for rank, cause in enumerate(CAUSES)}

#: AFTM triggers that are mechanisms, not widget resource names.
_NON_WIDGET_TRIGGERS = ("static", "reflection", "forced-start")


# ---------------------------------------------------------------------------
# The per-target verdict
# ---------------------------------------------------------------------------

@dataclass
class MissTarget:
    """One unreached target and why it stayed unreached."""

    package: str = ""
    kind: str = ""              # "activity" | "fragment" | "api" | "app"
    name: str = ""
    cause: str = CAUSE_UNCLASSIFIED
    #: The shortest static witness path, entry -> target, as edge dicts
    #: (src/dst/kind/trigger); empty when no path exists.
    witness: List[Dict[str, object]] = field(default_factory=list)
    nearest_visited: Optional[str] = None
    blocking_widget: Optional[str] = None
    evidence: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "kind": self.kind,
            "name": self.name,
            "cause": self.cause,
            "witness": self.witness,
            "nearest_visited": self.nearest_visited,
            "blocking_widget": self.blocking_widget,
            "evidence": self.evidence,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MissTarget":
        return cls(**shaped_fields(data, _MISS_TARGET_SHAPE, "miss target"))

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def sort_key(self) -> Tuple:
        return (self.package,
                _CAUSE_RANK.get(self.cause, len(CAUSES)),
                self.kind, self.name)


#: What :meth:`MissTarget.to_dict` writes (see
#: :func:`repro.store.check_shape`).
_MISS_TARGET_SHAPE = {
    "?package": str, "?kind": str, "?name": str, "?cause": str,
    "?witness": [dict], "?nearest_visited": (str, type(None)),
    "?blocking_widget": (str, type(None)), "?evidence": str,
}


# ---------------------------------------------------------------------------
# The persistent artifact
# ---------------------------------------------------------------------------

@dataclass
class CoverageExplanation:
    """One run's attribution verdicts, persisted like a ``RunRecord``.

    Content-addressed over everything except ``meta``; the explanation
    for the same run record is byte-identical whichever sweep backend
    produced the run.
    """

    label: str = "explanation"
    #: The run record this explanation is about (its content id).
    source_run_id: str = ""
    #: Per-app summary rows: package, ok, reached/missed counts, causes.
    apps: List[Dict] = field(default_factory=list)
    #: Every unreached target, sorted by (package, severity, kind, name).
    targets: List[Dict] = field(default_factory=list)
    #: Cause -> count over all targets.
    cause_census: Dict[str, int] = field(default_factory=dict)
    #: Unhashed context (backend, worker count, ...). Deliberately not
    #: auto-stamped with a timestamp: byte-identical by default.
    meta: Dict[str, object] = field(default_factory=dict)
    schema: int = EXPLANATION_SCHEMA
    explanation_id: str = ""

    # -- content addressing ------------------------------------------------

    def payload(self) -> Dict:
        return {
            "schema": self.schema,
            "label": self.label,
            "source_run_id": self.source_run_id,
            "apps": self.apps,
            "targets": self.targets,
            "cause_census": self.cause_census,
        }

    def compute_id(self) -> str:
        return content_id(self.payload())

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict:
        data = self.payload()
        data["explanation_id"] = self.explanation_id or self.compute_id()
        data["meta"] = self.meta
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "CoverageExplanation":
        """The explanation ``data`` holds.  Raises
        :class:`~repro.errors.StoreError` for anything else: a
        non-object, another schema, a field of the wrong shape."""
        check_schema(data, EXPLANATION_SCHEMA, "coverage explanation")
        return cls(**shaped_fields(data, _EXPLANATION_SHAPE,
                                   "coverage explanation"))

    # -- views -------------------------------------------------------------

    def miss_targets(self) -> List[MissTarget]:
        return [MissTarget.from_dict(t) for t in self.targets]

    def unclassified(self) -> List[MissTarget]:
        return [t for t in self.miss_targets()
                if t.cause == CAUSE_UNCLASSIFIED]


#: What :meth:`CoverageExplanation.to_dict` writes.
_EXPLANATION_SHAPE = {
    "schema": int, "?label": str, "?source_run_id": str, "?apps": [dict],
    "?targets": [_MISS_TARGET_SHAPE], "?cause_census": {str: int},
    "?meta": dict, "?explanation_id": str,
}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class _DynamicRecord:
    """The dynamic facts the classifier consults, pre-indexed.

    Reads the run record's events in place without materializing
    intermediate rows — this runs once per app per explanation and is
    on the benchmark-pinned path.
    """

    def __init__(self, events: Iterable) -> None:
        self.clicked: Dict[str, int] = {}
        self.quarantined: set = set()
        self.termination: Optional[str] = None
        self.forced_start_used = False
        self.faults_present = False
        for event in events:
            kind, attrs = event.kind, event.attributes
            if kind == WIDGET_CLICKED:
                widget = str(attrs.get("widget", ""))
                if widget and widget not in self.clicked:
                    self.clicked[widget] = event.step
            elif kind == QUARANTINE:
                self.quarantined.add(str(attrs.get("widget", "")))
            elif kind == RUN_END:
                self.termination = attrs.get("termination")
            elif kind == FORCED_START:
                self.forced_start_used = True
            elif kind == FAULT_INJECTED or (
                    kind == CRASH_RECOVERY
                    and attrs.get("action") == "abandon"):
                self.faults_present = True


def _witness_dicts(path) -> List[Dict[str, object]]:
    return [
        {
            "src": edge.src.name,
            "src_kind": edge.src.kind.value,
            "dst": edge.dst.name,
            "dst_kind": edge.dst.kind.value,
            "kind": edge.kind.name,
            "trigger": edge.trigger,
        }
        for edge in path
    ]


def classify_app(package: str,
                 aftm,
                 activities: Sequence[str],
                 fragments: Sequence[str],
                 visited: Iterable[str],
                 events: Iterable = (),
                 static_api_map: Optional[Dict[str, List[str]]] = None,
                 api_invocations: Iterable = (),
                 trigger_map=None,
                 manifest=None,
                 ok: bool = True,
                 fault_kind: Optional[str] = None,
                 ) -> List[MissTarget]:
    """Classify every unreached target of one app.

    Deterministic: targets are produced in sorted universe order and
    the verdict depends only on the AFTM and the (order-independent)
    event facts — never on wall time or backend.
    """
    visited_set = set(visited)
    record = _DynamicRecord(events)
    misses: List[MissTarget] = []
    component_misses: Dict[str, MissTarget] = {}

    for kind, names in (("activity", activities), ("fragment", fragments)):
        for name in sorted(names):
            if name in visited_set:
                continue
            if not ok:
                miss = _app_failure_target(package, kind, name, fault_kind)
            else:
                miss = _classify_component(
                    package, kind, name, aftm, visited_set, record,
                    trigger_map, manifest)
            misses.append(miss)
            component_misses[name] = miss

    observed = {(inv.component.cls, inv.api) for inv in api_invocations}
    for owner in sorted(static_api_map or {}):
        for api in sorted((static_api_map or {})[owner]):
            if (owner, api) in observed:
                continue
            misses.append(_classify_api(
                package, owner, api, visited_set, component_misses,
                ok, fault_kind))
    return misses


def _app_failure_target(package: str, kind: str, name: str,
                        fault_kind: Optional[str]) -> MissTarget:
    if fault_kind == "worker-died":
        return MissTarget(package, kind, name, CAUSE_WORKER_DIED,
                          evidence="the app's sweep worker died before "
                                   "any exploration finished")
    return MissTarget(package, kind, name, CAUSE_BLOCKED_BY_FAULT,
                      evidence=f"the app's run failed"
                               f" ({fault_kind or 'error'})")


def _classify_component(package: str, kind: str, name: str, aftm,
                        visited: set, record: _DynamicRecord,
                        trigger_map, manifest) -> MissTarget:
    node = aftm.node(name) if aftm is not None else None
    path = aftm.path_to(node) if node is not None else None
    if path is None:
        return _no_path_target(package, kind, name, node, record, manifest)

    blocking = next((e for e in path if e.dst.name not in visited), None)
    witness = _witness_dicts(path)
    if blocking is None:
        # Every edge dst visited yet the target itself was not — the
        # path ends elsewhere (shouldn't happen); keep it honest.
        blocking = path[-1] if path else None
    nearest = None
    widget = None
    unbound = None
    if blocking is not None:
        if blocking.src.name in visited:
            nearest = blocking.src.name
        if blocking.trigger not in _NON_WIDGET_TRIGGERS:
            widget = blocking.trigger
        elif trigger_map is not None:
            widget = trigger_map.widget_for(blocking.src.name,
                                            blocking.dst.name)
            if widget is None:
                unbound = trigger_map.unbound_for(blocking.src.name,
                                                  blocking.dst.name)

    if widget is not None and widget in record.quarantined:
        return MissTarget(
            package, kind, name, CAUSE_BLOCKED_BY_QUARANTINE,
            witness=witness, nearest_visited=nearest, blocking_widget=widget,
            evidence=f"widget {widget!r} was quarantined by the circuit "
                     f"breaker before the transition could fire")
    if widget is not None and widget in record.clicked:
        step = record.clicked[widget]
        return MissTarget(
            package, kind, name, CAUSE_ACTION_DIVERGED,
            witness=witness, nearest_visited=nearest, blocking_widget=widget,
            evidence=f"widget {widget!r} was clicked (step {step}) but the "
                     f"expected transition never followed")
    if record.termination == "budget-exhausted":
        return MissTarget(
            package, kind, name, CAUSE_FRONTIER_NEVER_EXPANDED,
            witness=witness, nearest_visited=nearest, blocking_widget=widget,
            evidence="a witness path exists; the event budget ran out "
                     "before the frontier expanded this far")
    if record.faults_present:
        return MissTarget(
            package, kind, name, CAUSE_BLOCKED_BY_FAULT,
            witness=witness, nearest_visited=nearest, blocking_widget=widget,
            evidence="injected faults degraded the run before the "
                     "transition was exercised")
    if widget is not None:
        return MissTarget(
            package, kind, name, CAUSE_WIDGET_NEVER_CLICKED,
            witness=witness, nearest_visited=nearest, blocking_widget=widget,
            evidence=f"widget {widget!r} is statically bound to the "
                     f"blocking edge but was never operated")
    if unbound is not None:
        return MissTarget(
            package, kind, name, CAUSE_WIDGET_NEVER_CLICKED,
            witness=witness, nearest_visited=nearest,
            evidence=f"the only trigger is listener {unbound.listener!r}, "
                     f"never bound to a view — it hides behind a popup "
                     f"menu or adapter callback the click sweep dismisses")
    if record.termination == "queue-drained" or record.termination is None:
        return MissTarget(
            package, kind, name, CAUSE_WIDGET_NEVER_CLICKED,
            witness=witness, nearest_visited=nearest,
            evidence="the queue drained with no operable trigger bound "
                     "to the blocking edge")
    return MissTarget(package, kind, name, CAUSE_UNCLASSIFIED,
                      witness=witness, nearest_visited=nearest,
                      blocking_widget=widget)


def _no_path_target(package: str, kind: str, name: str, node,
                    record: _DynamicRecord, manifest) -> MissTarget:
    if kind == "activity" and manifest is not None \
            and not record.forced_start_used:
        decl = manifest.activity(name)
        if decl is not None and not decl.exported:
            return MissTarget(
                package, kind, name, CAUSE_NOT_EXPORTED,
                evidence="no static path reaches the activity and its "
                         "manifest entry is not exported; without "
                         "instrumented forced starts it cannot be "
                         "launched externally")
    if node is None:
        evidence = "not a working node of the AFTM (isolated or unknown)"
    else:
        evidence = "no transition path from the entry reaches this node"
    return MissTarget(package, kind, name, CAUSE_NO_STATIC_PATH,
                      evidence=evidence)


def _classify_api(package: str, owner: str, api: str, visited: set,
                  component_misses: Dict[str, MissTarget], ok: bool,
                  fault_kind: Optional[str]) -> MissTarget:
    name = f"{owner}#{api}"
    if not ok:
        return _app_failure_target(package, "api", name, fault_kind)
    if owner in visited:
        return MissTarget(
            package, "api", name, CAUSE_API_SILENT,
            nearest_visited=owner,
            evidence=f"host {owner.rsplit('.', 1)[-1]} was visited but "
                     f"{api} never fired — the invoking action was not "
                     f"triggered")
    host_miss = component_misses.get(owner)
    if host_miss is not None:
        return MissTarget(
            package, "api", name, host_miss.cause,
            witness=list(host_miss.witness),
            nearest_visited=host_miss.nearest_visited,
            blocking_widget=host_miss.blocking_widget,
            evidence=f"inherited from unreached host "
                     f"{owner.rsplit('.', 1)[-1]}: {host_miss.evidence}")
    return MissTarget(
        package, "api", name, CAUSE_NO_STATIC_PATH,
        evidence=f"owner {owner.rsplit('.', 1)[-1]} is not a working "
                 f"component of the AFTM")


# ---------------------------------------------------------------------------
# Whole-run explanation builders
# ---------------------------------------------------------------------------

def _app_row(package: str, ok: bool, reached_activities: int,
             reached_fragments: int,
             misses: List[MissTarget]) -> Dict[str, object]:
    causes: Dict[str, int] = {}
    for miss in misses:
        causes[miss.cause] = causes.get(miss.cause, 0) + 1
    return {
        "package": package,
        "ok": ok,
        "reached_activities": reached_activities,
        "reached_fragments": reached_fragments,
        "missed": len(misses),
        "causes": {c: causes[c] for c in sorted(causes)},
    }


def _assemble(label: str, source_run_id: str,
              rows: List[Dict], misses: List[MissTarget],
              meta: Optional[Dict] = None,
              event_log=None) -> CoverageExplanation:
    misses = sorted(misses, key=lambda m: m.sort_key())
    census: Dict[str, int] = {}
    for miss in misses:
        census[miss.cause] = census.get(miss.cause, 0) + 1
    explanation = CoverageExplanation(
        label=label,
        source_run_id=source_run_id,
        apps=sorted(rows, key=lambda r: str(r.get("package", ""))),
        targets=[m.to_dict() for m in misses],
        cause_census={c: census[c] for c in sorted(census)},
        meta=dict(meta or {}),
    )
    explanation.explanation_id = explanation.compute_id()
    if event_log is not None and getattr(event_log, "enabled", False):
        for row in explanation.apps:
            event_log.emit(ATTRIBUTION_COMPUTED, app=str(row["package"]),
                           missed=row["missed"], causes=row["causes"])
        for miss in misses:
            event_log.emit(ATTRIBUTION_MISS, app=miss.package,
                           target_kind=miss.kind, target=miss.name,
                           cause=miss.cause)
    return explanation


def explain_result(result, label: str = "run", source_run_id: str = "",
                   meta: Optional[Dict] = None,
                   event_log=None) -> CoverageExplanation:
    """Explain one in-memory :class:`ExplorationResult`."""
    misses = classify_result(result)
    row = _app_row(result.package, True,
                   len(result.visited_activities),
                   len(result.visited_fragments), misses)
    return _assemble(label, source_run_id, [row], misses, meta, event_log)


def classify_result(result) -> List[MissTarget]:
    """The per-target verdicts for one :class:`ExplorationResult`."""
    from repro.static.triggers import trigger_map_of

    info = result.info
    decoded = getattr(info, "decoded", None)
    return classify_app(
        package=result.package,
        aftm=result.aftm,
        activities=info.activities,
        fragments=info.fragments,
        visited=set(result.visited_activities) | set(result.visited_fragments),
        events=result.events,
        static_api_map=info.static_api_map,
        api_invocations=result.api_invocations,
        trigger_map=trigger_map_of(info),
        manifest=decoded.manifest if decoded is not None else None,
    )


def explain_outcomes(outcomes: Dict[str, object],
                     label: str = "sweep", source_run_id: str = "",
                     meta: Optional[Dict] = None,
                     event_log=None) -> CoverageExplanation:
    """Explain a whole sweep (``explore_many`` outcomes, by package).

    Apps that produced a result are fully classified; apps that failed
    before producing one have no recoverable static universe, so they
    contribute one app-level target carrying the failure cause.
    """
    rows: List[Dict] = []
    misses: List[MissTarget] = []
    for package in sorted(outcomes):
        outcome = outcomes[package]
        result = getattr(outcome, "result", None)
        if result is not None:
            app_misses = classify_result(result)
            rows.append(_app_row(package, True,
                                 len(result.visited_activities),
                                 len(result.visited_fragments), app_misses))
            misses.extend(app_misses)
            continue
        fault_kind = getattr(outcome, "fault_kind", None)
        miss = _app_failure_target(package, "app", package, fault_kind)
        miss.evidence += "; its static universe is unknown"
        rows.append(_app_row(package, False, 0, 0, [miss]))
        misses.append(miss)
    return _assemble(label, source_run_id, rows, misses, meta, event_log)


def explain_run_dir(run,
                    label: str = "run-dir",
                    source_run_id: str = "",
                    meta: Optional[Dict] = None) -> CoverageExplanation:
    """Explain a saved run directory (``explore --save DIR``): its path,
    or the :class:`~repro.obs.dashboard.RunData` ``load_run`` read.

    Works from the report (its ``aftm`` included) and the run record;
    the sensitive-API universe is not part of the saved report, so
    run-dir explanations cover activities and fragments (in-memory
    paths cover APIs too).
    """
    if not isinstance(run, RunData):
        run = load_run(run)
    aftm = aftm_from_dict(run.report["aftm"])
    package = run.report["package"]
    coverage = run.report["coverage"]
    visited_activities = coverage["activities"]["visited"]
    visited_fragments = coverage["fragments"]["visited"]
    misses = classify_app(
        package=package,
        aftm=aftm,
        activities=sorted(n.name for n in aftm.activities),
        fragments=sorted(n.name for n in aftm.fragments),
        visited=set(visited_activities) | set(visited_fragments),
        events=run.events,
    )
    row = _app_row(package, True, len(visited_activities),
                   len(visited_fragments), misses)
    return _assemble(label, source_run_id, [row], misses, meta)


# ---------------------------------------------------------------------------
# Persistence: the explanation store
# ---------------------------------------------------------------------------

class ExplanationStore(DocumentStore):
    """Explanations under a run-registry directory, keyed by run id.

    One ``explanations/<run_id>.json`` per explained record.  Keyed by
    the *source run id* so the lookup from a record (or a serve job) is
    O(1); the content-addressed ``explanation_id`` inside the file makes
    tampering detectable, exactly like ``RunRecord``.
    """

    SUBDIR = "explanations"
    kind = "explanation"

    def __init__(self, directory) -> None:
        super().__init__(pathlib.Path(directory) / self.SUBDIR)

    def save(self, explanation: CoverageExplanation) -> str:
        if not explanation.source_run_id:
            raise ValueError("an explanation needs a source_run_id to be "
                             "stored (it keys the file)")
        if not explanation.explanation_id:
            explanation.explanation_id = explanation.compute_id()
        self.put(explanation.source_run_id, explanation.to_json())
        return explanation.explanation_id

    def load(self, ref: str) -> CoverageExplanation:
        """Load by source run id or explanation id (unique prefixes work)."""
        # Users paste the explanation id from the status line just as
        # often as the run id; it is matched when no run id is.
        key = self.resolve(ref, aliases=lambda: {
            explanation.explanation_id: explanation.source_run_id
            for explanation in self.list()})
        return CoverageExplanation.from_dict(self.read(key))

    def list(self) -> List[CoverageExplanation]:
        """Every readable explanation, by source run id; unreadable
        files are skipped with a warning."""
        return self.documents(CoverageExplanation.from_dict)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_explanation(explanation: CoverageExplanation,
                       target: Optional[str] = None,
                       top: int = 0) -> str:
    """The ranked miss table (and per-target drill-down) as text."""
    lines: List[str] = []
    misses = explanation.miss_targets()
    lines.append(f"coverage explanation {explanation.explanation_id}"
                 + (f" (run {explanation.source_run_id})"
                    if explanation.source_run_id else ""))
    reached_a = sum(int(r.get("reached_activities", 0))
                    for r in explanation.apps)
    reached_f = sum(int(r.get("reached_fragments", 0))
                    for r in explanation.apps)
    lines.append(f"apps: {len(explanation.apps)}  "
                 f"reached: {reached_a} activities, {reached_f} fragments  "
                 f"unreached targets: {len(misses)}")
    if explanation.cause_census:
        lines.append("cause census:")
        for cause in CAUSES:
            count = explanation.cause_census.get(cause)
            if count:
                lines.append(f"  {cause:24} {count}")
    if target is not None:
        matched = [m for m in misses
                   if m.name == target or m.simple_name == target
                   or m.name.endswith(f"#{target}")]
        if not matched:
            lines.append(f"target {target!r}: not among the unreached "
                         f"targets (reached, or unknown)")
        for miss in matched:
            lines.extend(_drill_down(miss))
        return "\n".join(lines) + "\n"
    shown = misses[:top] if top else misses
    if shown:
        lines.append("")
        lines.append(f"{'cause':24} {'kind':8} {'target':40} "
                     f"{'widget':16} nearest visited")
        for miss in shown:
            name = miss.simple_name if miss.kind != "api" \
                else miss.name.rsplit(".", 1)[-1]
            nearest = (miss.nearest_visited or "-").rsplit(".", 1)[-1]
            lines.append(f"{miss.cause:24} {miss.kind:8} {name:40} "
                         f"{miss.blocking_widget or '-':16} {nearest}")
        if top and len(misses) > top:
            lines.append(f"... and {len(misses) - top} more "
                         f"(use --target NAME for one, --top 0 for all)")
    return "\n".join(lines) + "\n"


def _drill_down(miss: MissTarget) -> List[str]:
    lines = [
        "",
        f"{miss.kind} {miss.name}",
        f"  cause: {miss.cause}",
        f"  evidence: {miss.evidence}" if miss.evidence else "  evidence: -",
    ]
    if miss.blocking_widget:
        lines.append(f"  blocking widget: {miss.blocking_widget}")
    if miss.nearest_visited:
        lines.append(f"  nearest visited ancestor: {miss.nearest_visited}")
    if miss.witness:
        lines.append("  witness path:")
        for edge in miss.witness:
            src = str(edge.get("src", "?")).rsplit(".", 1)[-1]
            dst = str(edge.get("dst", "?")).rsplit(".", 1)[-1]
            trigger = edge.get("trigger", "static")
            lines.append(f"    {src} --[{trigger}]--> {dst}")
    else:
        lines.append("  witness path: none (no static path)")
    return lines


# ---------------------------------------------------------------------------
# Fleet aggregation (dashboard / diff helpers)
# ---------------------------------------------------------------------------

def fleet_cause_census(explanations: Iterable[CoverageExplanation]
                       ) -> Dict[str, int]:
    census: Dict[str, int] = {}
    for explanation in explanations:
        for cause, count in explanation.cause_census.items():
            census[cause] = census.get(cause, 0) + int(count)
    return {c: census[c] for c in sorted(census)}


def top_blocking_widgets(explanations: Iterable[CoverageExplanation],
                         top: int = 10) -> List[Tuple[str, int]]:
    """Widgets blocking the most targets across a fleet, descending."""
    counts: Dict[str, int] = {}
    for explanation in explanations:
        for miss in explanation.miss_targets():
            if miss.blocking_widget:
                counts[miss.blocking_widget] = (
                    counts.get(miss.blocking_widget, 0) + 1)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top] if top else ranked


def newly_unreached(baseline: CoverageExplanation,
                    candidate: CoverageExplanation) -> List[MissTarget]:
    """Targets unreached in the candidate but not in the baseline —
    the names a coverage regression should print."""
    before = {(t.package, t.kind, t.name) for t in baseline.miss_targets()}
    return [t for t in candidate.miss_targets()
            if (t.package, t.kind, t.name) not in before]
