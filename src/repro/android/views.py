"""Runtime view objects and deterministic screen layout.

The emulator lays every visible widget out in a vertical column on a
1080×1920 screen, giving each a concrete bounding box.  FragDroid's
Case 3 handling ("get all coordinates of the controls that can be
clicked … clicking events will be injected from top to bottom, from left
to right") depends on those coordinates being real and ordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING, Any, List, NamedTuple, Optional, Tuple, Union,
)

from repro.types import WidgetKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.apk.appspec import ActivitySpec, FragmentSpec, WidgetSpec

SCREEN_WIDTH = 1080
SCREEN_HEIGHT = 1920
ROW_HEIGHT = 120
TOP_MARGIN = 80
DRAWER_WIDTH = 560
DIALOG_MARGIN_X = 140
DIALOG_TOP = 640

def synthetic_id(owner_class: str, hint: str) -> str:
    """An ID for widgets created in code with no layout resource (dialog
    buttons, popup items, NavigationView rows, dubsmash-style
    programmatic views).  These have no entry in the resource table, so
    Algorithm 3 cannot bind them to a component.  The value is
    deterministic per (owner, hint) so identical UI states produce
    identical widget trees across app restarts — as on a real device,
    where the *content* of a rebuilt screen is stable even though
    ``View.generateViewId()`` values are not."""
    return f"anon:{owner_class.rsplit('.', 1)[-1]}:{hint}"


@dataclass(frozen=True)
class Rect:
    left: int
    top: int
    right: int
    bottom: int

    def contains(self, x: int, y: int) -> bool:
        return self.left <= x < self.right and self.top <= y < self.bottom

    @property
    def center(self) -> Tuple[int, int]:
        return ((self.left + self.right) // 2, (self.top + self.bottom) // 2)


#: The bounds of a widget not laid out yet.  Rects are frozen, so every
#: widget can share this one until a layout pass assigns its row.
NO_BOUNDS = Rect(0, 0, 0, 0)


@dataclass
class RuntimeWidget:
    """A widget as it exists on screen.

    ``owner`` is the ground-truth owning component class (used by the
    monitor and the test suite); automation tools must not read it —
    they identify ownership through the resource dependency, as the
    paper does.  ``handler`` is the app's click handler as the emulator
    runs it: the handler spec and the component instance that
    registered it, or None for a widget with no handler.  Only the
    runtime reads it; it lives and dies with the widget.
    """

    widget_id: str
    kind: WidgetKind
    text: str
    owner_class: str
    owner_is_fragment: bool
    resource_value: Optional[int] = None
    bounds: Rect = NO_BOUNDS
    clickable: bool = True
    layer: str = "content"  # content | drawer | dialog | popup
    checked: bool = False
    entered_text: str = ""
    handler: Optional[Tuple["WidgetSpec", Any]] = field(
        default=None, compare=False, repr=False)

    @property
    def accepts_text(self) -> bool:
        return self.kind.accepts_text

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.widget_id}]"


#: What a widget is on every build of its screen, resolved once per
#: install: (widget id, kind, text, resource value, clickable, layer,
#: click-handler spec).  The handler is None for a widget the app
#: registers no handler on.  Bounds, ``checked`` and ``entered_text``
#: belong to each RuntimeWidget instead.
WidgetRow = Tuple[str, WidgetKind, str, Optional[int], bool, str,
                  Optional["WidgetSpec"]]


class Blueprint(NamedTuple):
    """One component's screen as its install built it: the spec, the
    fully-qualified class name and the widget rows in screen order.
    Every start of the component creates fresh RuntimeWidgets from the
    rows; nothing writes to a blueprint."""

    spec: Union["ActivitySpec", "FragmentSpec"]
    class_name: str
    rows: Tuple[WidgetRow, ...]


@lru_cache(maxsize=1024)
def _column_rows(left: int, width: int, top: int,
                 count: int) -> Tuple[Rect, ...]:
    """The first ``count`` row rectangles of one column.  A screen is
    laid out before every observation and tap, so the rows are built
    once per column shape and shared: they are frozen."""
    return tuple(
        Rect(left, y, left + width, y + ROW_HEIGHT - 8)
        for y in range(top, top + count * ROW_HEIGHT, ROW_HEIGHT)
    )


def layout_column(widgets: List[RuntimeWidget], left: int, width: int,
                  top: int = TOP_MARGIN) -> None:
    """Assign vertical-stack bounds to a list of widgets, in order."""
    for widget, rect in zip(widgets,
                            _column_rows(left, width, top, len(widgets))):
        widget.bounds = rect


def layout_content(widgets: List[RuntimeWidget]) -> None:
    layout_column(widgets, left=0, width=SCREEN_WIDTH)


def layout_drawer(widgets: List[RuntimeWidget]) -> None:
    layout_column(widgets, left=0, width=DRAWER_WIDTH)


def layout_dialog(widgets: List[RuntimeWidget]) -> None:
    layout_column(
        widgets,
        left=DIALOG_MARGIN_X,
        width=SCREEN_WIDTH - 2 * DIALOG_MARGIN_X,
        top=DIALOG_TOP,
    )


def dialog_bounds(n_widgets: int) -> Rect:
    """The modal window's own rectangle; taps outside it are 'blank
    space' and dismiss the overlay (paper Case 3)."""
    height = max(1, n_widgets) * ROW_HEIGHT + 40
    return Rect(DIALOG_MARGIN_X - 20, DIALOG_TOP - 20,
                SCREEN_WIDTH - DIALOG_MARGIN_X + 20, DIALOG_TOP + height)


def widget_at(widgets: List[RuntimeWidget], x: int, y: int) -> Optional[RuntimeWidget]:
    """Topmost widget containing the point (later layers drawn on top)."""
    for widget in reversed(widgets):
        if widget.bounds.contains(x, y):
            return widget
    return None
