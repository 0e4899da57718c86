"""Fault injection and resilience (chaos layer).

The paper's evaluation ran against real phones, where adb commands
hang, apps force-close mid-sweep, and instrumented test cases flake —
its crash handling and restart rails exist because of that adversity.
This package makes the adversity reproducible and the recovery
machinery testable:

* :class:`FaultPlan` / :class:`FaultInjector` — seeded, per-operation
  fault rates with named profiles (``none`` / ``mild`` / ``hostile``);
* :class:`FaultyDevice` / :class:`FaultyAdb` — the device and bridge
  wrappers that inject transient adb errors, command hangs, mid-run
  disconnects, ANR-unresponsive widgets, and spurious app crashes;
* :class:`RetryPolicy` + :class:`SimulatedClock` — bounded exponential
  backoff with deterministic jitter, instant under test;
* :class:`WidgetQuarantine` — the circuit breaker that stops one bad
  button from eating the event budget;
* :class:`Degradation` — the per-run account of faults seen, retries
  spent, and recovery outcomes, counted off the run record.

Everything is opt-in through ``FragDroidConfig``: with no fault plan
the explorer constructs the plain ``Adb``/``Device`` path and every
output stays byte-identical to a fault-free run.
"""

from repro.faults.adb import FaultyAdb
from repro.faults.degradation import Degradation, classify_fault
from repro.faults.device import FaultyDevice, make_device
from repro.faults.plan import (
    ADB_FAULTS,
    CLICK_FAULTS,
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    fault_plan,
)
from repro.faults.quarantine import WidgetQuarantine
from repro.faults.retry import RetryPolicy, SimulatedClock

__all__ = [
    "ADB_FAULTS",
    "CLICK_FAULTS",
    "Degradation",
    "FAULT_PROFILES",
    "FaultInjector",
    "FaultPlan",
    "FaultyAdb",
    "FaultyDevice",
    "RetryPolicy",
    "SimulatedClock",
    "WidgetQuarantine",
    "classify_fault",
    "fault_plan",
    "make_device",
]
