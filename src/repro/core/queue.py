"""The UI transition queue (paper Section VI-B).

Each queue item carries the four properties the paper specifies: the way
of reaching the interface, the start interface, the target interface,
and the operation list storing the concrete operations from start to
target.  The queue is maintained width-first on the basis of the AFTM
and updated whenever the model evolves.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional, Set, Tuple

from repro.static.aftm import Node
from repro.types import Positional


class OpKind(str, enum.Enum):
    LAUNCH = "launch"            # am start launcher
    CLICK = "click"              # click a widget by resource name
    ENTER_TEXT = "enter_text"    # fill an EditText
    SWIPE_OPEN = "swipe_open"    # edge swipe (drawer)
    REFLECT = "reflect"          # reflective fragment switch
    FORCE_START = "force_start"  # am start -n with empty intent
    BACK = "back"
    TAP = "tap"                  # tap at recorded coordinates


@dataclass(frozen=True, slots=True)
class Operation(Positional):
    """One concrete UI event: a step of a test case or a replay script."""

    kind: OpKind
    target: str = ""   # widget id / fragment class / component / "x,y"
    value: str = ""    # text for ENTER_TEXT

    @property
    def point(self) -> Tuple[int, int]:
        """A TAP's coordinates (they ride in the target slot)."""
        x, y = self.target.split(",")
        return int(x), int(y)

    def __str__(self) -> str:
        if self.kind is OpKind.ENTER_TEXT:
            return f"enterText({self.target}, {self.value!r})"
        if self.target:
            return f"{self.kind.value}({self.target})"
        return self.kind.value


def launch_op() -> Operation:
    return Operation(OpKind.LAUNCH)


def click_op(widget_id: str) -> Operation:
    return Operation(OpKind.CLICK, widget_id)


def text_op(widget_id: str, value: str) -> Operation:
    return Operation(OpKind.ENTER_TEXT, widget_id, value)


def swipe_op() -> Operation:
    return Operation(OpKind.SWIPE_OPEN)


def reflect_op(fragment_class: str) -> Operation:
    return Operation(OpKind.REFLECT, fragment_class)


def force_start_op(component: str) -> Operation:
    return Operation(OpKind.FORCE_START, component)


def tap_op(x: int, y: int) -> Operation:
    return Operation(OpKind.TAP, f"{x},{y}")


@dataclass
class UIQueueItem:
    """One pending transition to exercise."""

    method: str                      # "launch" | "click" | "reflection" | "forced-start"
    start: Optional[Node]            # the interface the path starts from
    target: Optional[Node]           # the interface the item should reach
    operations: Tuple[Operation, ...] = ()

    def extended(self, method: str, target: Optional[Node],
                 *extra_ops: Operation) -> "UIQueueItem":
        """A new item whose operation list is this item's plus the
        operations converting from here to the new target (the Case 1
        construction)."""
        return UIQueueItem(
            method=method,
            start=self.target,
            target=target,
            operations=self.operations + tuple(extra_ops),
        )

    def __str__(self) -> str:
        ops = "; ".join(str(op) for op in self.operations)
        return f"[{self.method}] -> {self.target}: {ops}"


class UIQueue:
    """Queue of items with duplicate suppression.

    The paper maintains the queue "in a width-first strategy"
    (``order="breadth"``, the default FIFO); ``order="depth"`` pops the
    newest item first, giving an A3E-style depth-first variant for the
    strategy ablation.  Duplicate suppression keys on (method, target,
    operations) so the evolutionary loop can re-derive items without
    flooding the queue.
    """

    def __init__(self, limit: int = 2000, order: str = "breadth") -> None:
        if order not in ("breadth", "depth"):
            raise ValueError(f"unknown queue order: {order!r}")
        self._queue: Deque[UIQueueItem] = deque()
        self._seen: Set[Tuple] = set()
        self._limit = limit
        self._order = order
        self.dropped = 0

    def push(self, item: UIQueueItem) -> bool:
        key = (item.method, item.target, item.operations)
        if key in self._seen:
            return False
        if len(self._seen) >= self._limit:
            self.dropped += 1
            return False
        self._seen.add(key)
        self._queue.append(item)
        return True

    def push_all(self, items: Iterable[UIQueueItem]) -> int:
        return sum(1 for item in items if self.push(item))

    def requeue(self, item: UIQueueItem) -> None:
        """Re-enqueue an item interrupted mid-execution (crash
        recovery).  Bypasses duplicate suppression — the item was
        already admitted once and its re-run budget is enforced by the
        explorer's ``max_restarts_per_item`` rail, not here."""
        self._queue.append(item)

    def pop(self) -> UIQueueItem:
        if self._order == "depth":
            return self._queue.pop()
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
