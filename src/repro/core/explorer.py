"""FragDroid: the evolutionary exploration loop (paper Sections III & VI).

The run proceeds exactly as Figure 4 describes:

1. *Static Information Extraction* builds the initial AFTM and the
   dependency metadata.
2. The manifest is instrumented (every Activity gains a MAIN action) and
   the repackaged APK is installed.
3. The UI transition queue is seeded and then maintained width-first;
   each item is compiled into a Robotium test case, installed, and run
   through ``am instrument``.
4. After every run the UI driver identifies the reached interface on the
   Fragment level and the three cases of Section VI-A apply:

   * **Case 1** — an unvisited Activity: enqueue one reflection item per
     dependent Fragment (when the Activity uses a FragmentManager);
   * **Case 2** — an unvisited Fragment: mark it visited; explicit click
     paths later replace reflection as the preferred trigger;
   * **Case 3** — a visited interface: complete the input fields and
     click every clickable control top-to-bottom / left-to-right,
     dismissing popups via blank space, restarting after crashes, and
     recording every interface change as an AFTM update.

5. When the queue drains and the AFTM stops changing, unvisited
   Activities are forcibly invoked through empty Intents (Section VI-C)
   and handled with normal processing; a second drain ends the test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.adb.bridge import Adb
from repro.adb.instrumentation import instrument_manifest
from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.config import FragDroidConfig
from repro.core.queue import (
    Operation,
    UIQueue,
    UIQueueItem,
    click_op,
    force_start_op,
    launch_op,
    reflect_op,
)
from repro.core.testcase import TestCase
from repro.core.ui_driver import UiDriver, UiSnapshot
from repro.errors import (
    ActivityNotFoundError,
    CommandTimeoutError,
    ReflectionError,
    SecurityException,
    TestCaseError,
    TransientError,
)
from repro.faults.adb import FaultyAdb
from repro.faults.degradation import Degradation
from repro.faults.device import FaultyDevice
from repro.faults.plan import ADB_FAULTS, CLICK_FAULTS
from repro.faults.quarantine import WidgetQuarantine
from repro.obs import Event, EventLog, Span
from repro.obs.events import (
    CASE_DECISION,
    CRASH_RECOVERY,
    FAULT_INJECTED,
    FORCED_START,
    INPUT_GENERATED,
    ITEM_FAILED,
    ITEM_START,
    LEFT_APP,
    QUARANTINE,
    REFLECTION_SWITCH,
    RETRY,
    RETRY_END,
    RUN_END,
    RUN_START,
    STATE_DISCOVERED,
    TRANSITION,
    WIDGET_CLICKED,
    record_census,
)
from repro.robotium.solo import Solo
from repro.static.aftm import AFTM, Node, NodeKind, activity_node, fragment_node
from repro.static.extractor import StaticInfo, extract_static_info
from repro.types import ApiInvocation


@dataclass
class ExplorationStats:
    test_cases: int = 0
    failed_items: int = 0
    reflection_failures: int = 0
    crashes: int = 0
    restarts: int = 0
    events: int = 0
    aftm_updates: int = 0
    # Distinct fragment-level UI states processed — the quantity
    # Challenge 1 is about: an Activity-grained tool sees at most one
    # state per Activity, a Fragment-aware one sees each transformation.
    distinct_interfaces: int = 0


@dataclass(frozen=True)
class TraceEvent:
    """One line of the run trace: what the explorer did and saw."""

    step: int
    kind: str    # item | visit | transition | left-app | requeue | anr | ...
    detail: str

    def __str__(self) -> str:
        return f"{self.step:06d} {self.kind:19} {self.detail}"


#: ``item.failed`` causes -> trace line kinds.
_FAILURE_LINES = {"reflection": "reflection-failure", "fault": "fault",
                  "crash": "crash", "error": "item-failed"}


def _trace_line(event: Event) -> Optional[Tuple[str, str]]:
    """The (kind, detail) trace line an event renders as, if any."""
    kind, attrs = event.kind, event.attributes
    if kind == ITEM_START:
        return "item", str(attrs["item"])
    if kind == ITEM_FAILED:
        return _FAILURE_LINES[str(attrs["cause"])], str(attrs["error"])
    if kind == STATE_DISCOVERED:
        return "visit", f"{attrs['component']} {attrs['name']}"
    if kind == TRANSITION:
        return "transition", (f"{attrs['src']} --[{attrs['widget']}]--> "
                              f"{attrs['dst']} fragments={attrs['fragments']}")
    if kind == LEFT_APP:
        return "left-app", str(attrs["activity"])
    if kind == CRASH_RECOVERY and attrs.get("action") == "requeue":
        return "requeue", f"restart {attrs['restart']}: {attrs['item']}"
    if kind == CRASH_RECOVERY and attrs.get("action") == "abandon":
        return "abandoned", str(attrs["item"])
    if kind == FAULT_INJECTED and attrs.get("fault") == "anr":
        return "anr", f"{attrs['widget']}: {attrs['error']}"
    if kind == QUARANTINE:
        return "quarantine", (f"{attrs['widget']} after {attrs['strikes']} "
                              f"{attrs['strike']} strikes")
    return None


#: Metrics counters that restate run-record facts, each counted off the
#: record once per exploration: name -> ``record_census`` key.
RECORD_COUNTERS = {
    "clicks": (WIDGET_CLICKED, None),
    "reflection.switches": (REFLECTION_SWITCH, None),
    "forced.starts": (FORCED_START, None),
    "inputs.filled": (INPUT_GENERATED, None),
    "resilience.quarantined_widgets": (QUARANTINE, None),
    "resilience.requeues": (CRASH_RECOVERY, "requeue"),
    "resilience.abandoned_items": (CRASH_RECOVERY, "abandon"),
    **{f"faults.{fault}": (FAULT_INJECTED, fault)
       for fault in ADB_FAULTS + CLICK_FAULTS},
    "faults.reconnects": (RETRY, "reconnect"),
    "retry.attempts": (RETRY, None),
    "retry.recoveries": (RETRY_END, "recover"),
    "retry.giveups": (RETRY_END, "giveup"),
}


def trace_of(events: Iterable[Event]) -> List[TraceEvent]:
    """The run trace: a rendering of the run record's events."""
    trace = []
    for event in events:
        line = _trace_line(event)
        if line is not None:
            trace.append(TraceEvent(event.step, *line))
    return trace


@dataclass
class ExplorationResult:
    """Everything a FragDroid run produces for one app."""

    package: str
    info: StaticInfo
    aftm: AFTM
    visited_activities: Set[str]
    visited_fragments: Set[str]
    api_invocations: List[ApiInvocation]
    test_cases: List[TestCase]
    stats: ExplorationStats
    # First recorded operation path that reached each visited component
    # (class name -> operations).  The targeted mode replays these.
    paths: Dict[str, Tuple] = field(default_factory=dict)
    # The subset of test_cases that executed successfully — the suite a
    # regression run replays (probe cases that failed by design, like
    # reflection attempts on args-fragments, are excluded).
    passing_test_cases: List[TestCase] = field(default_factory=list)
    # Observability (repro.obs): the run's finished spans and a metrics
    # snapshot — both empty unless the config carried an enabled tracer.
    spans: List[Span] = field(default_factory=list, repr=False)
    metrics: Dict = field(default_factory=dict, repr=False)
    # The run record (repro.obs.events): every fact of the run, in
    # order, recorded once.  The trace, the coverage curve and the miss
    # classifier derive from it.  Under an enabled EventLog these are
    # the log's own event objects.
    events: List[Event] = field(default_factory=list, repr=False)
    # Graceful degradation (repro.faults): faults seen, retries spent,
    # quarantined widgets and recovery outcomes — None unless the run
    # carried an active fault plan.
    degradation: Optional[Degradation] = None

    @property
    def trace(self) -> List[TraceEvent]:
        """The run trace, rendered from the run record."""
        return trace_of(self.events)

    def trace_text(self) -> str:
        """The run trace as readable lines."""
        return "\n".join(str(event) for event in self.trace)

    # -- Table I quantities ----------------------------------------------------

    @property
    def activity_total(self) -> int:
        return len(self.info.activities)

    @property
    def fragment_total(self) -> int:
        return len(self.info.fragments)

    @property
    def activity_rate(self) -> float:
        total = self.activity_total
        return len(self.visited_activities) / total if total else 0.0

    @property
    def fragment_rate(self) -> float:
        total = self.fragment_total
        return len(self.visited_fragments) / total if total else 0.0

    def fragments_in_visited_activities(self) -> Tuple[int, int]:
        """(visited, total) over Fragments whose host Activity was
        visited — Table I's third column group."""
        total = 0
        visited = 0
        for fragment in self.info.fragments:
            hosts = self.info.fragment_hosts.get(fragment, [])
            if not any(host in self.visited_activities for host in hosts):
                continue
            total += 1
            if fragment in self.visited_fragments:
                visited += 1
        return visited, total

    def coverage_report(self) -> str:
        fiva_visited, fiva_total = self.fragments_in_visited_activities()
        lines = [
            f"package: {self.package}",
            f"activities: {len(self.visited_activities)}/{self.activity_total}"
            f" ({self.activity_rate:.2%})",
            f"fragments:  {len(self.visited_fragments)}/{self.fragment_total}"
            f" ({self.fragment_rate:.2%})",
            f"fragments in visited activities: {fiva_visited}/{fiva_total}",
            f"sensitive API invocations: {len(self.api_invocations)}",
            f"test cases: {self.stats.test_cases}, "
            f"events: {self.stats.events}, crashes: {self.stats.crashes}",
        ]
        if self.degradation is not None:
            lines.append(self.degradation.render())
        return "\n".join(lines)


class FragDroid:
    """The exploration framework, bound to one device."""

    def __init__(self, device: Device,
                 config: Optional[FragDroidConfig] = None) -> None:
        self.device = device
        self.config = config or FragDroidConfig()
        if self.config.faults_enabled:
            self.adb: Adb = FaultyAdb(
                device,
                plan=self.config.fault_plan,
                policy=self.config.retry_policy,
                tracer=self.config.tracer,
            )
        else:
            self.adb = Adb(device, tracer=self.config.tracer)
        self.solo = Solo(device)

    # -- public API ----------------------------------------------------------------

    def explore(self, apk: ApkPackage,
                info: Optional[StaticInfo] = None,
                digest: Optional[str] = None) -> ExplorationResult:
        """Run the full pipeline on one APK.

        ``digest`` is ``apk.digest()`` when the caller already has it:
        the static cache keys on it instead of hashing the APK again.
        """
        config = self.config
        tracer = config.tracer
        record = config.event_log.run_record(apk.package)
        # The fault layer records its faults where they happen.
        if isinstance(self.device, FaultyDevice):
            self.device.events = record
        if isinstance(self.adb, FaultyAdb):
            self.adb.events = record
        record.emit(RUN_START, step=self.device.steps)
        try:
            with tracer.span("explore", app=apk.package) as root:
                if info is None:
                    info = extract_static_info(
                        apk,
                        input_values=config.input_values
                        if config.enable_input_file else None,
                        tracer=tracer,
                        cache=config.static_cache,
                        digest=digest,
                    )
                installed = (instrument_manifest(apk)
                             if config.enable_forced_start else apk)
                self.adb.install(installed)

                run = _Run(self, apk.package, info, record)
                run.seed_queue()
                run.drain_queue()
                if config.enable_forced_start:
                    run.enqueue_forced_starts()
                    run.drain_queue()
                result = run.result()
                trace_id = root.trace_id
            record.emit(RUN_END, step=self.device.steps,
                        termination=run.termination_reason())
        finally:
            # Counted even when the exploration raises: the counters
            # hold what the record holds.
            if tracer.enabled:
                census = record_census(record.events())
                for name, key in RECORD_COUNTERS.items():
                    if census[key]:
                        tracer.inc(name, census[key])
        result.events = record.events()
        if tracer.enabled:
            result.spans = tracer.spans_in_trace(trace_id)
            result.metrics = tracer.metrics.snapshot()
        return result


class _Run:
    """Mutable state of one exploration run."""

    def __init__(self, frag: FragDroid, package: str, info: StaticInfo,
                 record: EventLog) -> None:
        self.frag = frag
        self.config = frag.config
        self.device = frag.device
        self.adb = frag.adb
        self.solo = frag.solo
        self.package = package
        self.info = info
        self.aftm = info.aftm
        self.tracer = frag.config.tracer
        # The run record: every event below is filed under the package.
        self.events = record
        self.driver = UiDriver(
            frag.solo, info,
            use_input_file=frag.config.enable_input_file,
            input_strategy=frag.config.input_strategy,
            tracer=self.tracer,
            event_log=self.events,
        )
        self.queue = UIQueue(limit=frag.config.max_queue_items,
                             order=frag.config.queue_order)
        self.stats = ExplorationStats()
        self.test_cases: List[TestCase] = []
        self.passing_test_cases: List[TestCase] = []
        self._paths: Dict[str, Tuple[Operation, ...]] = {}
        self._processed_signatures: Set[Tuple] = set()
        self._case1_done: Set[str] = set()
        self._api_start = len(self.device.api_monitor.invocations)
        # Resilience (repro.faults): only an active fault plan arms the
        # recovery machinery, so fault-free runs behave — and render —
        # exactly as before.
        self._resilient = self.config.faults_enabled
        self.quarantine = WidgetQuarantine(
            threshold=self.config.quarantine_threshold,
            active=self._resilient,
        )
        self._item_restarts: Dict[Tuple, int] = {}
        # No event records a replay, so its restarts are counted here.
        self._replays = 0

    # -- queue management ---------------------------------------------------------

    def seed_queue(self) -> None:
        """Initialize the UI transition queue from the original AFTM.

        The entry item is the only one with concrete operations; every
        other statically known node becomes reachable as Cases 1–3
        attach operations to discovered paths (the BFS order of the
        model is preserved through FIFO processing)."""
        self.queue.push(
            UIQueueItem(
                method="launch",
                start=None,
                target=self.aftm.entry,
                operations=(launch_op(),),
            )
        )

    def drain_queue(self) -> None:
        while self.queue and not self._budget_exhausted():
            self.tracer.observe("queue.depth", len(self.queue))
            item = self.queue.pop()
            if self._execute_item(item):
                self._process_interface(item)

    def termination_reason(self) -> str:
        """Why the run stopped: the queue drained (the paper's AFTM
        fixpoint) or the event budget ran out first."""
        return "budget-exhausted" if self._budget_exhausted() else "queue-drained"

    def enqueue_forced_starts(self) -> None:
        """Section VI-C: forcibly invoke unvisited Activities through
        empty Intents."""
        for node in self.aftm.unvisited_activities():
            component = f"{self.package}/{node.name}"
            self.queue.push(
                UIQueueItem(
                    method="forced-start",
                    start=None,
                    target=node,
                    operations=(force_start_op(component),),
                )
            )

    def _budget_exhausted(self) -> bool:
        return self.device.steps >= self.config.max_events

    def _in_target_app(self) -> bool:
        foreground = self.device.foreground
        return foreground is not None and foreground.package == self.package

    def _emit(self, kind: str, **attributes: object) -> None:
        self.events.emit(kind, step=self.device.steps, **attributes)

    # -- item execution --------------------------------------------------------------

    def _execute_item(self, item: UIQueueItem) -> bool:
        """Compile the item to a Robotium test case and run it."""
        self.device.force_stop(self.package)
        case = TestCase(
            package=self.package,
            name=f"GeneratedTest{len(self.test_cases):04d}",
            operations=item.operations,
        )
        self.test_cases.append(case)
        self._emit(ITEM_START, item=str(item))
        crashes_before = self.device.crash_count
        try:
            case.install_and_run(self.solo, self.adb)
        except ReflectionError as exc:
            self._emit(ITEM_FAILED, cause="reflection", error=str(exc))
            return False
        except TransientError as exc:
            # An injected fault survived the adb retry budget (or an
            # ANR hit mid-replay): the item was interrupted by the
            # environment, not the app — relaunch it later.
            self._emit(ITEM_FAILED, cause="fault", error=str(exc))
            self._requeue_interrupted(item)
            return False
        except (TestCaseError, ActivityNotFoundError, SecurityException) as exc:
            if self._resilient and self.device.crash_count > crashes_before:
                # The app force-closed mid-item (spurious or real):
                # record the crash and re-enqueue the interrupted item.
                self._emit(ITEM_FAILED, cause="crash", error=str(exc))
                self._requeue_interrupted(item)
                return False
            self._emit(ITEM_FAILED, cause="error", error=str(exc))
            return False
        if item.method == "reflection":
            self._emit(REFLECTION_SWITCH, target=str(item.target))
        elif item.method == "forced-start":
            self._emit(FORCED_START, target=str(item.target))
        self.passing_test_cases.append(case)
        return True

    def _requeue_interrupted(self, item: UIQueueItem) -> None:
        """Crash/fault recovery: put the interrupted item back on the
        queue for a fresh relaunch, honouring ``max_restarts_per_item``.
        An item that exhausts its budget is abandoned — recorded in the
        degradation section instead of eating the rest of the run."""
        if not self._resilient:
            return
        key = (item.method, item.target, item.operations)
        restarts = self._item_restarts.get(key, 0)
        if restarts >= self.config.max_restarts_per_item:
            self._emit(CRASH_RECOVERY, action="abandon", item=str(item))
            return
        self._item_restarts[key] = restarts + 1
        self.queue.requeue(item)
        self._emit(CRASH_RECOVERY, action="requeue", restart=restarts + 1,
                   item=str(item))

    def _replay(self, operations: Tuple[Operation, ...]) -> bool:
        """Restart the app and re-run a path (Case 3 restart handling)."""
        self._replays += 1
        self.device.force_stop(self.package)
        case = TestCase(self.package, "Replay", operations)
        try:
            case.run(self.solo, self.adb)
        except (TestCaseError, ReflectionError, ActivityNotFoundError,
                SecurityException, TransientError):
            return False
        return True

    # -- interface processing ------------------------------------------------------------

    def _process_interface(self, item: UIQueueItem) -> None:
        snapshot = self.driver.snapshot()
        if not snapshot.alive:
            return
        if not self._in_target_app():
            # An implicit intent escaped to another app: out of scope,
            # like a tester pressing Home. Back out and drop the item.
            self._emit(LEFT_APP, activity=snapshot.activity or "?")
            self.solo.go_back()
            return
        self._register_visit(snapshot, item)
        if snapshot.signature in self._processed_signatures:
            return
        self._processed_signatures.add(snapshot.signature)
        if self.config.enable_click_exploration:
            self._emit(CASE_DECISION, case=3, activity=snapshot.activity)
            self._click_sweep(item, snapshot)

    def _register_visit(self, snapshot: UiSnapshot,
                        item: UIQueueItem) -> None:
        """Mark visited nodes and apply Case 1 / Case 2."""
        activity = snapshot.activity
        assert activity is not None
        a_node = activity_node(activity)
        newly_visited = self.aftm.mark_visited(a_node)
        if newly_visited:
            self._emit(STATE_DISCOVERED, component="activity", name=activity)
        self._paths.setdefault(activity, item.operations)
        for fragment in snapshot.fragments:
            if not self.aftm.is_visited(fragment_node(fragment)):
                self._emit(
                    STATE_DISCOVERED, component="fragment", name=fragment,
                    hosts=list(self.info.fragment_hosts.get(fragment, [])),
                )
            self._paths.setdefault(fragment, item.operations)
        if newly_visited or activity not in self._case1_done:
            self._case1_done.add(activity)
            enqueued = self._case1_enqueue_fragments(activity, item)
            if enqueued:
                self._emit(CASE_DECISION, case=1, activity=activity,
                           enqueued=enqueued)
        for fragment in snapshot.fragments:
            node = fragment_node(fragment)
            if self.aftm.is_visited(node):
                continue
            self._emit(CASE_DECISION, case=2, fragment=fragment)
            self.aftm.mark_visited(node)

    def _case1_enqueue_fragments(self, activity: str,
                                 item: UIQueueItem) -> int:
        """Case 1: for an Activity that switches Fragments dynamically,
        enqueue one reflection item per dependent Fragment.  Returns the
        number of reflection items enqueued."""
        if not self.config.enable_reflection:
            return 0
        if not self.info.uses_manager.get(activity, False):
            return 0
        enqueued = 0
        for fragment in self.info.dependency.get(activity, ()):
            node = fragment_node(fragment)
            if self.aftm.is_visited(node):
                continue
            self.queue.push(
                item.extended("reflection", node, reflect_op(fragment))
            )
            enqueued += 1
        return enqueued

    # -- Case 3: the click sweep -----------------------------------------------------------

    def _click_sweep(self, item: UIQueueItem, origin: UiSnapshot) -> None:
        """Trigger all clickable widgets of a settled interface one by
        one, restarting and replaying the path whenever a click changes
        the interface or crashes the app."""
        text_operations = tuple(self.driver.fill_inputs())
        base_operations = item.operations + text_operations
        widget_ids = self.driver.clickable_ids()
        needs_replay = False
        restarts = 0
        for widget_id in widget_ids:
            if self._budget_exhausted():
                return
            if self.quarantine.blocked(widget_id):
                self.tracer.inc("resilience.quarantine_skips")
                continue
            if needs_replay:
                restarts += 1
                if restarts > self.config.max_restarts_per_item:
                    return
                if not self._replay(base_operations):
                    return
                needs_replay = False
            before = self.driver.snapshot()
            if not before.alive:
                return
            try:
                self._emit(WIDGET_CLICKED, widget=widget_id,
                           activity=before.activity)
                self.solo.click_on_view(widget_id)
            except CommandTimeoutError:
                # Injected ANR (the device recorded it): the widget
                # swallowed the tap.  Strike it — a repeatedly hanging
                # widget gets quarantined.
                self._strike(widget_id, "hang")
                continue
            except Exception:
                continue
            if not self.device.app_alive:
                # FC: restart and continue under clicking (Case 3).
                self._strike(widget_id, "crash")
                self._emit(CRASH_RECOVERY, action="replay", widget=widget_id)
                needs_replay = True
                continue
            if not self._in_target_app():
                # The click fired an implicit intent into another app.
                self._emit(LEFT_APP,
                           activity=self.device.current_activity_name() or "?")
                self.solo.go_back()
                needs_replay = True
                continue
            after = self.driver.snapshot()
            if after.signature == before.signature:
                continue
            if after.overlay is not None and before.overlay is None:
                # A dialog/menu popped up: remove it via blank space.
                self.driver.dismiss_overlay()
                if self.driver.snapshot().signature != before.signature:
                    needs_replay = True
                continue
            # The interface changed: update the AFTM and enqueue the new
            # interface, then restart for the remaining clicks.
            self._record_transition(before, after, widget_id)
            self._emit(TRANSITION, src=before.activity, dst=after.activity,
                       widget=widget_id, fragments=sorted(after.fragments))
            follow_up = UIQueueItem(
                method="click",
                start=item.target,
                target=self._node_of(after),
                operations=base_operations + (click_op(widget_id),),
            )
            self.queue.push(follow_up)
            needs_replay = True

    def _strike(self, widget_id: str, kind: str) -> None:
        """Count a crash/hang against a widget; record when the strike
        trips the circuit breaker (no-op unless faults are active)."""
        if self.quarantine.record(widget_id, kind):
            self._emit(QUARANTINE, widget=widget_id,
                       strikes=self.quarantine.strikes(widget_id),
                       strike=kind)

    def _node_of(self, snapshot: UiSnapshot) -> Optional[Node]:
        if snapshot.fragments:
            return fragment_node(sorted(snapshot.fragments)[0])
        if snapshot.activity is not None:
            return activity_node(snapshot.activity)
        return None

    def _record_transition(self, before: UiSnapshot, after: UiSnapshot,
                           widget_id: str) -> None:
        """Task 3 of the UI driving module: AFTM update on state change."""
        assert before.activity is not None and after.activity is not None
        src = self._source_node(before, widget_id)
        changed = False
        if after.activity != before.activity:
            changed |= self.aftm.add_raw_transition(
                src, activity_node(after.activity),
                src_host=before.activity, trigger=widget_id,
            )
        new_fragments = after.fragments - before.fragments
        for fragment in sorted(new_fragments):
            changed |= self.aftm.add_raw_transition(
                src, fragment_node(fragment),
                src_host=before.activity, dst_host=after.activity,
                trigger=widget_id,
            )
        if changed:
            self.stats.aftm_updates += 1

    def _source_node(self, before: UiSnapshot, widget_id: str) -> Node:
        """The transition source is the component owning the clicked
        widget (resource dependency), falling back to the Activity."""
        assert before.activity is not None
        owner_activity, owner_fragment = self.info.resource_dep.owner_of(
            widget_id
        )
        if owner_fragment is not None and owner_fragment in before.fragments:
            return fragment_node(owner_fragment)
        return activity_node(before.activity)

    # -- result -----------------------------------------------------------------------------

    def result(self) -> ExplorationResult:
        events = self.events.events()
        census = record_census(events)
        stats = self.stats
        stats.test_cases = census[ITEM_START, None]
        stats.reflection_failures = census[ITEM_FAILED, "reflection"]
        stats.failed_items = (census[ITEM_FAILED, "fault"]
                              + census[ITEM_FAILED, "error"])
        stats.crashes = (census[ITEM_FAILED, "crash"]
                         + census[CRASH_RECOVERY, "replay"])
        stats.restarts = census[CRASH_RECOVERY, "requeue"] + self._replays
        stats.events = self.device.steps
        stats.distinct_interfaces = len(self._processed_signatures)
        invocations = [
            inv
            for inv in self.device.api_monitor.invocations[self._api_start:]
            if inv.component.package == self.package
        ]
        self.tracer.inc("events.injected", stats.events)
        self.tracer.inc("apis.observed", len(invocations))
        visited_activities = {
            n.name for n in self.aftm.iter_visited()
            if n.kind is NodeKind.ACTIVITY
        }
        visited_fragments = {
            n.name for n in self.aftm.iter_visited()
            if n.kind is NodeKind.FRAGMENT
        }
        # The resilience account, counted off the record — None when no
        # fault plan was active, as in a fault-free run.
        plan = self.config.fault_plan if self._resilient else None
        degradation = None if plan is None else Degradation.from_record(
            events, plan.profile, plan.seed)
        return ExplorationResult(
            package=self.package,
            info=self.info,
            aftm=self.aftm,
            visited_activities=visited_activities,
            visited_fragments=visited_fragments,
            api_invocations=invocations,
            test_cases=self.test_cases,
            stats=stats,
            paths=dict(self._paths),
            passing_test_cases=self.passing_test_cases,
            degradation=degradation,
        )
