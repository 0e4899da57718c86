"""Event recording and the replay-script format.

A :class:`Recorder` proxies a tester's session: every event steps
through :func:`~repro.core.testcase.apply_operation`, the one executor
test cases also run on, and lands in the script once it applied.  The
resulting :class:`ReplayScript` serialises to JSON ("translate them to
scripts", Section I) and replays against any device with the app
installed (:func:`repro.rnr.replay.replay_script`).

Like the real technique, replay is *coordinate- and id-literal*: it
re-injects exactly what was recorded, so it reproduces the recorded
path cheaply but breaks when the UI changes — the maintenance cost the
paper cites as the reason MBT superseded R&R.  The fragility study
(:mod:`repro.rnr.fragility`) measures exactly that breakage.

Events are :class:`~repro.core.queue.Operation` objects, the test
cases' own vocabulary; the schema-2 kind names (``text``, ``swipe``,
``start``) exist only in the JSON.  Scripts carry a ``schema`` field so
a foreign or stale file fails with a named error instead of a stack
trace deep inside replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.adb.bridge import Adb
from repro.android.device import Device
from repro.core.queue import (
    OpKind,
    Operation,
    click_op,
    launch_op,
    swipe_op,
    tap_op,
    text_op,
)
from repro.core.testcase import apply_operation
from repro.errors import ReproError, StoreError
from repro.robotium.solo import Solo
from repro.store import Closed, check_schema, check_shape, parse_json

#: Bump whenever the event shape or kind list changes; scripts written
#: by another schema are rejected with a named error.
SCRIPT_SCHEMA = 2

#: Each operation kind's name in a schema-2 script.
_KIND_NAMES = {
    OpKind.LAUNCH: "launch",
    OpKind.TAP: "tap",
    OpKind.CLICK: "click",
    OpKind.ENTER_TEXT: "text",
    OpKind.BACK: "back",
    OpKind.SWIPE_OPEN: "swipe",
    OpKind.REFLECT: "reflect",
    OpKind.FORCE_START: "start",
}
_KINDS_BY_NAME = {name: kind for kind, name in _KIND_NAMES.items()}
EVENT_KINDS = tuple(_KIND_NAMES.values())


def _event_to_dict(op: Operation, step: int) -> dict:
    """One event as schema-2 JSON: ``widget_id`` is the target slot
    (widget id, fragment class or component), a tap's point is
    ``x``/``y``."""
    x, y = op.point if op.kind is OpKind.TAP else (0, 0)
    return {
        "kind": _KIND_NAMES[op.kind], "x": x, "y": y,
        "widget_id": "" if op.kind is OpKind.TAP else op.target,
        "text": op.value, "step": step,
    }


#: What :meth:`ReplayScript.to_json` writes (see
#: :func:`repro.store.check_shape`): no other key is allowed.
_SCRIPT_SHAPE = Closed({
    "schema": int, "package": str,
    "events": [Closed({"kind": frozenset(EVENT_KINDS), "?x": int,
                       "?y": int, "?widget_id": str, "?text": str,
                       "?step": int})],
})


def _event_from_dict(fields: dict) -> Operation:
    kind = _KINDS_BY_NAME[fields["kind"]]
    target = fields.get("widget_id", "")
    if kind is OpKind.TAP:
        target = f"{fields.get('x', 0)},{fields.get('y', 0)}"
    return Operation(kind, target, fields.get("text", ""))


@dataclass
class ReplayScript:
    """An ordered, serialisable event script for one package.

    ``steps`` holds the device step count sampled *before* each event
    was recorded; empty means a fresh-device script, where event *i*
    ran at step *i* (every event costs one step).
    """

    package: str
    events: Sequence[Operation]
    steps: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = list(self.events)
        if self.steps and len(self.steps) != len(self.events):
            raise ReproError(f"replay script has {len(self.events)} events "
                             f"but {len(self.steps)} steps")

    def to_json(self) -> str:
        steps = self.steps or range(len(self.events))
        return json.dumps(
            {
                "schema": SCRIPT_SCHEMA,
                "package": self.package,
                "events": [_event_to_dict(op, step)
                           for op, step in zip(self.events, steps)],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReplayScript":
        """Parse and *validate* a script file.

        Every malformation — bad JSON, a missing or foreign ``schema``,
        a missing/mistyped field, an unknown key, an empty ``package``
        — raises :class:`~repro.errors.StoreError` naming the offending
        field, never a bare ``KeyError``/``TypeError``.
        """
        data = parse_json(text, "replay script")
        check_schema(data, SCRIPT_SCHEMA, "replay script")
        check_shape(data, _SCRIPT_SHAPE, "replay script")
        if not data["package"]:
            raise StoreError("replay script.package: expected a non-empty "
                             "str, found ''")
        events = data["events"]
        return cls(package=data["package"],
                   events=[_event_from_dict(event) for event in events],
                   steps=[event.get("step", 0) for event in events])


class Recorder:
    """A recording session bound to one device and package.

    Each verb samples the step counter *before* forwarding, so the
    recorded step is the state the event was applied in — not the state
    it produced (which would be off by exactly one action).  An event
    that does not apply (a missing widget, a failed launch, the app
    leaving the foreground) raises and is not recorded, so a script
    replays on the app it was recorded on without diverging.
    """

    def __init__(self, device: Device, package: str) -> None:
        self.device = device
        self.package = package
        self._solo = Solo(device)
        self._adb = Adb(device)
        self._events: List[Operation] = []
        self._steps: List[int] = []

    def _record(self, op: Operation) -> None:
        """Forward one event to the device and append it to the script."""
        step = self.device.steps
        apply_operation(op, self.package, self._solo, self._adb)
        self._events.append(op)
        self._steps.append(step)

    # -- the tester's verbs ---------------------------------------------------

    def launch(self) -> None:
        self._record(launch_op())

    def tap(self, x: int, y: int) -> None:
        self._record(tap_op(x, y))

    def click(self, widget_id: str) -> None:
        self._record(click_op(widget_id))

    def enter_text(self, widget_id: str, text: str) -> None:
        self._record(text_op(widget_id, text))

    def back(self) -> None:
        self._record(Operation(OpKind.BACK))

    def swipe(self) -> None:
        self._record(swipe_op())

    # -- output ---------------------------------------------------------------

    def script(self) -> ReplayScript:
        return ReplayScript(package=self.package, events=self._events,
                            steps=list(self._steps))
