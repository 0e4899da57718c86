"""The adb bridge under adversity: injected faults, healed by retries.

:class:`FaultyAdb` fronts every command issue (install, uninstall,
``am start``, ``am instrument``, logcat) with a fault draw and a
:class:`~repro.faults.retry.RetryPolicy`:

* a **transient** failure or a **hang** raises, backs off, and reissues
  the command;
* a **disconnect** takes the bridge down — every subsequent command
  fails until the retry path performs the ``adb reconnect`` (logged in
  the command transcript, like the real shell session would show).

Every injected fault, retry and retried call's end is a run-record
event (``fault.injected``, ``retry``, ``retry.end``).

The fault gate sits *before* the delegated command, so each command's
real effect happens exactly once, on the first attempt that clears the
gate — retries re-roll the environment, not the device state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TypeVar

from repro.adb.bridge import Adb
from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.errors import (
    CommandTimeoutError,
    DeviceDisconnectedError,
    TransientAdbError,
    TransientError,
)
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.retry import RetryPolicy, SimulatedClock
from repro.obs import EventLog, Tracer
from repro.obs.events import FAULT_INJECTED, NULL_EVENT_LOG, RETRY, RETRY_END

T = TypeVar("T")


class FaultyAdb(Adb):
    """An :class:`Adb` whose commands can fail and heal.

    Shares the device's fault injector when the device is a
    :class:`FaultyDevice`, so adb-level and click-level faults draw
    from one deterministic per-app stream.
    """

    def __init__(
        self,
        device: Device,
        plan: FaultPlan,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        super().__init__(device, tracer=tracer)
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else SimulatedClock()
        # Where injected faults and retries are recorded: the explorer
        # points this at the run record of the app it explores.
        self.events: EventLog = NULL_EVENT_LOG
        self.injector: FaultInjector = (
            device.injector if isinstance(device, FaultyDevice)
            else plan.injector()
        )
        self._retry_rng = plan.retry_rng(self.injector.scope)
        self._connected = True

    def _emit(self, kind: str, **attributes: object) -> None:
        self.events.emit(kind, step=self.device.steps, **attributes)

    # -- fault gate --------------------------------------------------------

    def _issue(self, op: str, fn: Callable[[], T]) -> T:
        attempts = 0

        def attempt() -> T:
            nonlocal attempts
            attempts += 1
            self._maybe_fault(op)
            return fn()

        try:
            result = self.policy.call(attempt, clock=self.clock,
                                      rng=self._retry_rng,
                                      on_retry=self._retry)
        except TransientError:
            self._emit(RETRY_END, action="giveup", op=op)
            raise
        if attempts > 1:
            self._emit(RETRY_END, action="recover", op=op)
        return result

    def _maybe_fault(self, op: str) -> None:
        if not self._connected:
            raise DeviceDisconnectedError(
                f"adb {op}: error: device offline"
            )
        kind = self.injector.adb_fault()
        if kind is None:
            return
        self._emit(FAULT_INJECTED, fault=kind, op=op)
        if kind == "disconnect":
            self._connected = False
            raise DeviceDisconnectedError(
                f"adb {op}: error: device disconnected"
            )
        if kind == "adb-hang":
            raise CommandTimeoutError(f"adb {op}: no response (hang)")
        raise TransientAdbError(f"adb {op}: error: device still authorizing")

    def _retry(self, exc: TransientError, delay: float) -> None:
        """Record one retry; a dropped bridge reconnects first."""
        attributes: Dict[str, object] = {"error": type(exc).__name__,
                                         "delay": delay}
        if isinstance(exc, DeviceDisconnectedError) and not self._connected:
            self.command_log.append("adb reconnect")
            self._connected = True
            attributes["action"] = "reconnect"
        self._emit(RETRY, **attributes)

    @property
    def connected(self) -> bool:
        return self._connected

    # -- guarded command surface -------------------------------------------

    def install(self, apk: ApkPackage) -> str:
        return self._issue("install", lambda: Adb.install(self, apk))

    def uninstall(self, package: str) -> str:
        return self._issue("uninstall", lambda: Adb.uninstall(self, package))

    def am_start(
        self,
        component: str,
        action: Optional[str] = None,
        category: Optional[str] = None,
    ) -> bool:
        return self._issue(
            "am start",
            lambda: Adb.am_start(self, component,
                                 action=action, category=category),
        )

    def am_instrument(self, test_package: str) -> None:
        return self._issue(
            "am instrument", lambda: Adb.am_instrument(self, test_package)
        )

    def logcat(self, tag: Optional[str] = None) -> List[str]:
        return self._issue("logcat", lambda: Adb.logcat(self, tag))
