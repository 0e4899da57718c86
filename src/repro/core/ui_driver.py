"""The UI driving module (paper Section III, task list; Section VI-A).

Three responsibilities, exactly as the paper assigns them:

1. identify the current Activity and Fragment based on the previously
   extracted resource dependency;
2. trigger all clickable widgets one by one (top-to-bottom,
   left-to-right);
3. analyze the new UI state after clicking and update the AFTM.

Identification is deliberately *tool-eye-view*: the current Activity
comes from the Robotium driver, but Fragments are recognised only
through the widget resource-IDs on screen joined against the AFRM model
(Algorithm 3's output).  Fragments whose views carry runtime-generated
IDs — the dubsmash failure mode — are invisible here even though the
emulator knows they exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.queue import Operation, text_op
from repro.obs import NULL_EVENT_LOG, NULL_TRACER, EventLog, Tracer
from repro.obs.events import INPUT_GENERATED
from repro.robotium.solo import Solo
from repro.static.extractor import StaticInfo
from repro.static.input_dep import DEFAULT_TEXT


@dataclass(frozen=True)
class UiSnapshot:
    """What the tool can see of the current UI state."""

    activity: Optional[str]               # fully-qualified class or None
    fragments: FrozenSet[str]             # identified via resource dependency
    widget_ids: Tuple[str, ...]           # visible widget ids, screen order
    overlay: Optional[str]                # "dialog" | "popup" | None
    drawer_open: bool

    @property
    def signature(self) -> Tuple:
        """Hashable interface identity used for visited-interface checks."""
        return (self.activity, self.fragments, frozenset(self.widget_ids),
                self.overlay, self.drawer_open)

    @property
    def alive(self) -> bool:
        return self.activity is not None


class UiDriver:
    """Fragment-level UI state identification and input filling."""

    def __init__(self, solo: Solo, info: StaticInfo,
                 use_input_file: bool = True,
                 input_strategy: str = "default",
                 tracer: Optional[Tracer] = None,
                 event_log: Optional[EventLog] = None) -> None:
        self.solo = solo
        self.info = info
        self.use_input_file = use_input_file
        self.input_strategy = input_strategy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.events = event_log if event_log is not None else NULL_EVENT_LOG
        self._generator = None
        if input_strategy == "heuristic":
            from repro.core.inputgen import HeuristicInputGenerator

            self._generator = HeuristicInputGenerator(
                info.input_dep if use_input_file else None
            )

    def snapshot(self) -> UiSnapshot:
        with self.tracer.span("ui.snapshot", app=self.info.package) as span:
            widgets = self.solo.get_current_views()
            widget_ids = tuple(w.widget_id for w in widgets)
            overlay = None
            drawer = False
            for widget in widgets:
                if widget.layer in ("dialog", "popup"):
                    overlay = widget.layer
                elif widget.layer == "drawer":
                    drawer = True
            fragments = frozenset(
                self.info.resource_dep.identify_fragments(list(widget_ids))
            )
            span.set_attribute("widgets", len(widget_ids))
            return UiSnapshot(
                activity=self.solo.get_current_activity(),
                fragments=fragments,
                widget_ids=widget_ids,
                overlay=overlay,
                drawer_open=drawer,
            )

    def fill_inputs(self) -> List[Operation]:
        """Complete the input fields of the current interface (Case 3:
        'FragDroid will complete the input fields').  Returns the
        equivalent operations for test-case extension."""
        operations: List[Operation] = []
        with self.tracer.span("ui.fill_inputs", app=self.info.package):
            for widget in self.solo.get_current_views():
                if not widget.accepts_text:
                    continue
                if self._generator is not None:
                    value = self._generator.value_for(widget)
                elif self.use_input_file:
                    value = self.info.input_dep.value_for(widget.widget_id)
                else:
                    value = DEFAULT_TEXT
                self.solo.enter_text(widget.widget_id, value)
                self.events.emit(INPUT_GENERATED,
                                 step=self.solo.device.steps,
                                 app=self.info.package,
                                 widget=widget.widget_id,
                                 value=value, strategy=self.input_strategy)
                operations.append(text_op(widget.widget_id, value))
        return operations

    def dismiss_overlay(self) -> None:
        """Remove a dialog/popup 'by clicking on blank space' (Case 3)."""
        self.tracer.inc("overlays.dismissed")
        self.solo.click_on_screen(1040, 1900)

    def clickable_ids(self) -> List[str]:
        return [w.widget_id for w in self.solo.clickable_widgets()]
