"""Fault models: what goes wrong, how often, and reproducibly.

A :class:`FaultPlan` is a frozen description of an adverse environment:
per-operation fault rates plus a seed.  It never mutates; each consumer
derives a :class:`FaultInjector` — a seeded RNG stream — scoped by a
string (typically the package under test) so a parallel sweep draws
one independent, deterministic fault sequence per app regardless of
thread scheduling.

The named profiles mirror the conditions the paper's evaluation ran
under: ``none`` (today's perfect device), ``mild`` (the occasional
flake a healthy phone farm shows), and ``hostile`` (a failing cable,
an overloaded device — the worst night of the experiment).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

#: Fault kinds an injector can draw, keyed by the rate that governs them.
ADB_FAULTS = ("disconnect", "adb-hang", "adb-transient")
CLICK_FAULTS = ("anr", "spurious-crash")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, per-operation fault rates (all probabilities in [0, 1])."""

    profile: str = "custom"
    seed: int = 0
    # Per-adb-command rates (install / uninstall / am start /
    # am instrument / logcat):
    adb_transient_rate: float = 0.0   # command fails, retry usually works
    adb_hang_rate: float = 0.0        # command hangs -> CommandTimeoutError
    disconnect_rate: float = 0.0      # device drops off the bridge
    # Per-click rates (the Case 3 sweep):
    anr_rate: float = 0.0             # widget unresponsive (ANR)
    spurious_crash_rate: float = 0.0  # app force-closes for no app reason

    def __post_init__(self) -> None:
        for name, value in self.rates().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value!r}"
                )

    def rates(self) -> Dict[str, float]:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name.endswith("_rate")
        }

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return any(rate > 0 for rate in self.rates().values())

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def injector(self, scope: str = "") -> "FaultInjector":
        return FaultInjector(self, scope=scope)

    def retry_rng(self, scope: str = "") -> random.Random:
        """The jitter stream — separate from the fault stream so adding
        a retry never shifts which faults fire."""
        return random.Random(f"retry:{self.seed}:{scope}")


FAULT_PROFILES: Dict[str, FaultPlan] = {
    "none": FaultPlan(profile="none"),
    "mild": FaultPlan(
        profile="mild",
        adb_transient_rate=0.05,
        adb_hang_rate=0.02,
        disconnect_rate=0.01,
        anr_rate=0.03,
        spurious_crash_rate=0.02,
    ),
    "hostile": FaultPlan(
        profile="hostile",
        adb_transient_rate=0.20,
        adb_hang_rate=0.08,
        disconnect_rate=0.04,
        anr_rate=0.10,
        spurious_crash_rate=0.08,
    ),
}


def fault_plan(profile: str, seed: int = 0) -> FaultPlan:
    """The named profile, reseeded."""
    try:
        plan = FAULT_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r}; "
            f"choose from {sorted(FAULT_PROFILES)}"
        ) from None
    return plan.with_seed(seed)


class FaultInjector:
    """One deterministic fault stream.

    Draw order is the call order, so a single-threaded exploration
    yields the same fault sequence on every run with the same plan —
    the property every chaos test and every debugging session relies
    on.  Zero-rate faults consume no randomness, so the ``none``
    profile draws nothing.  Each fault drawn is recorded as a
    ``fault.injected`` run-record event where it lands.
    """

    def __init__(self, plan: FaultPlan, scope: str = "") -> None:
        self.plan = plan
        self.scope = scope
        self._rng = random.Random(f"faults:{plan.seed}:{scope}")

    def _roll(self, rate: float) -> bool:
        return rate > 0 and self._rng.random() < rate

    # -- draw points -------------------------------------------------------

    def adb_fault(self) -> Optional[str]:
        """One draw per adb command: ``disconnect`` | ``adb-hang`` |
        ``adb-transient`` | None (mutually exclusive, in that order)."""
        if self._roll(self.plan.disconnect_rate):
            return "disconnect"
        if self._roll(self.plan.adb_hang_rate):
            return "adb-hang"
        if self._roll(self.plan.adb_transient_rate):
            return "adb-transient"
        return None

    def click_fault(self) -> Optional[str]:
        """One draw per widget click: ``anr`` | ``spurious-crash`` |
        None."""
        if self._roll(self.plan.anr_rate):
            return "anr"
        if self._roll(self.plan.spurious_crash_rate):
            return "spurious-crash"
        return None
