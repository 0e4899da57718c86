"""Configuration for a FragDroid run.

The flags map one-to-one onto the paper's design choices, so the
ablation benchmarks can disable each mechanism independently:

* ``enable_reflection`` — Case 1/2's Java-reflection fragment switching;
* ``enable_forced_start`` — the second loop's empty-Intent starts of
  unvisited Activities (requires the instrumented manifest);
* ``enable_input_file`` — the analyst-filled input dependency
  (Section V-C); off means every EditText gets the "abc" filler;
* ``enable_click_exploration`` — Case 3's exhaustive clickable sweep.

``tracer`` opts the run into the observability layer (``repro.obs``):
the default :data:`~repro.obs.NULL_TRACER` keeps every span and counter
a no-op, so instrumented code behaves exactly as before.

``fault_profile`` / ``fault_plan`` opt the run into the fault-injection
layer (``repro.faults``): the default ``"none"`` resolves to no plan at
all, so the explorer builds the plain ``Adb`` path and outputs stay
byte-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.faults.plan import FAULT_PROFILES, FaultPlan, fault_plan
from repro.faults.retry import RetryPolicy
from repro.obs import NULL_EVENT_LOG, NULL_TRACER, EventLog, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import RunRegistry
    from repro.static.cache import StaticCache


@dataclass
class FragDroidConfig:
    enable_reflection: bool = True
    enable_forced_start: bool = True
    enable_input_file: bool = True
    enable_click_exploration: bool = True
    # Analyst-provided values for the input-dependency file.
    input_values: Dict[str, str] = field(default_factory=dict)
    # "default": the random-ish "abc" filler the paper criticises;
    # "heuristic": context-driven value generation (Section VIII's
    # future-work direction, repro.core.inputgen).
    input_strategy: str = "default"
    # Queue maintenance strategy: "breadth" (the paper's width-first
    # queue) or "depth" (A3E-style), for the strategy ablation.
    queue_order: str = "breadth"
    # Safety rails: a real run is bounded by wall-clock; ours by events.
    max_events: int = 20000
    max_queue_items: int = 2000
    max_restarts_per_item: int = 10
    # Observability (repro.obs): the default no-op tracer records
    # nothing and costs nothing; pass a real Tracer to collect spans
    # and counters across the whole pipeline.
    tracer: Tracer = field(default=NULL_TRACER, repr=False, compare=False)
    # Flight recorder (repro.obs.events): every run keeps its own event
    # record (ExplorationResult.events) regardless.  An enabled EventLog
    # also receives each event as it is recorded and fans it out to its
    # sinks (a JsonlSink streams the run to disk); the default no-op
    # log receives nothing.
    event_log: EventLog = field(default=NULL_EVENT_LOG, repr=False,
                                compare=False)
    # Fault injection & resilience (repro.faults).  Either name a
    # profile ("none" | "mild" | "hostile") + seed, or pass a concrete
    # FaultPlan (which wins).  A plan that can inject something flips
    # the explorer into resilient mode: FaultyAdb with retries, crash
    # re-enqueueing, and widget quarantine.
    fault_profile: str = "none"
    fault_seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    # Retry schedule for adb commands under faults; None = the
    # RetryPolicy defaults.
    retry_policy: Optional[RetryPolicy] = None
    # Strikes (crashes/hangs) before a widget is quarantined.
    quarantine_threshold: int = 3
    # Content-addressed memoization of the static phase
    # (repro.static.cache).  None (the default) analyzes every APK from
    # scratch; a StaticCache skips decode + Algorithms 1–3 on digest
    # hits.  A cache-served run carries the APK's decoded model like a
    # fresh one, so it explains the same.
    static_cache: Optional["StaticCache"] = field(default=None, repr=False,
                                                  compare=False)
    # Longitudinal run registry (repro.obs.registry).  None (the
    # default) records nothing; a RunRegistry makes ``explore_many``
    # persist one content-addressed run record at the end of each
    # sweep, which `repro runs`/`repro regress` diff and gate on.
    run_registry: Optional["RunRegistry"] = field(default=None, repr=False,
                                                  compare=False)
    # Correlation id for every span this run records (repro.serve):
    # the scheduler stamps a job's trace id here so worker spans —
    # thread or process backend — land on the job's trace instead of
    # starting fresh ones.  None (the default) keeps per-sweep traces.
    # Observer-only: excluded from the registry's config fingerprint.
    trace_id: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.input_strategy not in ("default", "heuristic"):
            raise ValueError(
                f"unknown input strategy: {self.input_strategy!r}"
            )
        if self.queue_order not in ("breadth", "depth"):
            raise ValueError(f"unknown queue order: {self.queue_order!r}")
        for rail in ("max_events", "max_queue_items",
                     "max_restarts_per_item", "quarantine_threshold"):
            value = getattr(self, rail)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ValueError(
                    f"{rail} must be a positive integer, got {value!r}"
                )
        if self.trace_id is not None and (
                not isinstance(self.trace_id, int)
                or isinstance(self.trace_id, bool)):
            raise ValueError(
                f"trace_id must be an integer or None, got {self.trace_id!r}"
            )
        if self.fault_profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile: {self.fault_profile!r}; "
                f"choose from {sorted(FAULT_PROFILES)}"
            )
        if self.fault_plan is None and self.fault_profile != "none":
            self.fault_plan = fault_plan(self.fault_profile,
                                         seed=self.fault_seed)

    @property
    def faults_enabled(self) -> bool:
        """Whether this run injects faults (and runs resiliently)."""
        return self.fault_plan is not None and self.fault_plan.enabled
