"""A circuit breaker for misbehaving widgets.

One button that force-closes the app on every click would otherwise
consume the whole restart budget of every interface it appears on:
click, crash, relaunch, replay, click again.  The quarantine counts
crash/hang strikes per widget id and, once a widget crosses the
threshold, removes it from all further click sweeps — the event budget
goes to the rest of the interface instead.
"""

from __future__ import annotations

from typing import Dict, Set


class WidgetQuarantine:
    """Per-widget strike counter with a trip threshold.

    An ``active=False`` quarantine records nothing and blocks nothing —
    the stance of a fault-free run, where deterministic app crashes are
    findings, not noise to suppress.
    """

    def __init__(self, threshold: int = 3, active: bool = True) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.active = active
        self._strikes: Dict[str, int] = {}
        self._reasons: Dict[str, str] = {}
        self._blocked: Set[str] = set()

    def record(self, widget_id: str, kind: str) -> bool:
        """Count one crash/hang against a widget; True when this strike
        trips the breaker."""
        if not self.active:
            return False
        strikes = self._strikes.get(widget_id, 0) + 1
        self._strikes[widget_id] = strikes
        self._reasons[widget_id] = kind
        if strikes >= self.threshold and widget_id not in self._blocked:
            self._blocked.add(widget_id)
            return True
        return False

    def blocked(self, widget_id: str) -> bool:
        return widget_id in self._blocked

    def strikes(self, widget_id: str) -> int:
        return self._strikes.get(widget_id, 0)

    def reason(self, widget_id: str) -> str:
        return self._reasons.get(widget_id, "")

    def __len__(self) -> int:
        return len(self._blocked)
