"""Layout resources: the XML view trees bundled in an APK.

A :class:`Layout` is the *declared* widget list of an Activity or Fragment.
FragDroid's resource-dependency extraction (Algorithm 3) walks layouts and
matches widget resource-IDs against the IDs referenced from component code;
this module provides the layout side of that join, including XML
round-tripping so the static analyzer genuinely parses text artifacts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ApkError
from repro.types import WidgetKind

# ``WidgetKind.__members__`` builds a new mapping view on every access.
_WIDGET_KINDS = WidgetKind.__members__

_KIND_TO_TAG = {
    WidgetKind.BUTTON: "Button",
    WidgetKind.TEXT_VIEW: "TextView",
    WidgetKind.EDIT_TEXT: "EditText",
    WidgetKind.CHECK_BOX: "CheckBox",
    WidgetKind.IMAGE_VIEW: "ImageView",
    WidgetKind.LIST_ITEM: "TextView",  # list rows render as text views
    WidgetKind.TAB: "TabWidget",
    WidgetKind.MENU_ITEM: "TextView",
    WidgetKind.DRAWER_ITEM: "TextView",
    WidgetKind.SPINNER: "Spinner",
    WidgetKind.SWITCH: "Switch",
}


@dataclass(frozen=True)
class LayoutElement:
    """One ``<Widget>`` element in a layout file."""

    widget_id: str
    kind: WidgetKind
    text: str = ""
    clickable: bool = True


@dataclass
class Layout:
    """A named layout resource holding an ordered list of elements.

    ``container_id`` marks the primary ``FrameLayout`` fragment
    container (the ``R.id.fragment_container`` of the paper's Figure 3
    snippet); ``extra_containers`` carry the additional panes of
    multi-pane UIs.
    """

    name: str
    elements: List[LayoutElement] = field(default_factory=list)
    container_id: Optional[str] = None
    extra_containers: List[str] = field(default_factory=list)

    def add(self, element: LayoutElement) -> None:
        for existing in self.elements:
            if existing.widget_id == element.widget_id:
                raise ApkError(f"duplicate widget id {element.widget_id!r} "
                               f"in layout {self.name!r}")
        self.elements.append(element)

    def widget_ids(self) -> List[str]:
        ids = [e.widget_id for e in self.elements]
        if self.container_id:
            ids.append(self.container_id)
        ids.extend(self.extra_containers)
        return ids

    def to_xml(self) -> str:
        """Render as an Android-style layout XML document."""
        lines = [
            '<?xml version="1.0" encoding="utf-8"?>',
            '<LinearLayout xmlns:android="http://schemas.android.com/apk/res/android"',
            '    android:orientation="vertical">',
        ]
        for container in ([self.container_id] if self.container_id else []) \
                + self.extra_containers:
            lines.append(
                f'    <FrameLayout android:id="@+id/{container}" />'
            )
        for element in self.elements:
            kind = element.kind
            text = (f' android:text="{element.text}"' if element.text
                    else "")
            lines.append(
                f'    <{_KIND_TO_TAG[kind]} '
                f'android:id="@+id/{element.widget_id}"{text} '
                f'android:clickable="{str(element.clickable).lower()}" '
                f'repro:kind="{kind.name}" />')
        lines.append("</LinearLayout>")
        return "\n".join(lines)

    @classmethod
    def from_xml(cls, name: str, text: str) -> "Layout":
        """Parse a layout document produced by :meth:`to_xml`."""
        layout = cls(name)
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("<FrameLayout"):
                attrs = _attrs(line)
                if "android:id" not in attrs:
                    raise ApkError(f"container without an id in layout "
                                   f"{name!r}: {line}")
                container = attrs["android:id"].replace("@+id/", "")
                if layout.container_id is None:
                    layout.container_id = container
                else:
                    layout.extra_containers.append(container)
                continue
            if not line.startswith("<") or line.startswith(("<?xml", "<Linear", "</")):
                continue
            attrs = _attrs(line)
            if "android:id" not in attrs:
                continue
            kind = _WIDGET_KINDS.get(attrs.get("repro:kind", "TEXT_VIEW"))
            if kind is None:
                raise ApkError(f"unknown widget kind in layout {name!r}: "
                               f"{line}")
            layout.add(
                LayoutElement(
                    widget_id=attrs["android:id"].replace("@+id/", ""),
                    kind=kind,
                    text=attrs.get("android:text", ""),
                    clickable=attrs.get("android:clickable", "true") == "true",
                )
            )
        return layout


# Fast path: a tag body that is exactly ``Name (ws key="value")*`` parses
# to the same pairs the quote-aware tokenizer below would produce, so it
# can be read with two C-level regex passes instead of a char loop.
_FAST_TAG_RE = re.compile(
    r'^[^\s<>="]+(?P<attrs>(?:\s+[^\s="]+="[^"]*")*)\s*$'
)
_ATTR_PAIR_RE = re.compile(r'([^\s="]+)="([^"]*)"')


def _attrs(tag: str) -> Dict[str, str]:
    """Parse attributes from a single-element tag line."""
    attrs: Dict[str, str] = {}
    body = tag.strip().lstrip("<").rstrip("/>").rstrip(">")
    fast = _FAST_TAG_RE.match(body)
    if fast is not None:
        return dict(_ATTR_PAIR_RE.findall(fast.group("attrs")))
    # Slow path for anything odder: split on whitespace outside quotes.
    token = ""
    in_quotes = False
    tokens: List[str] = []
    for char in body:
        if char == '"':
            in_quotes = not in_quotes
            token += char
        elif char.isspace() and not in_quotes:
            if token:
                tokens.append(token)
            token = ""
        else:
            token += char
    if token:
        tokens.append(token)
    for part in tokens[1:]:
        if "=" not in part:
            continue
        key, _, raw = part.partition("=")
        attrs[key] = raw.strip('"')
    return attrs
