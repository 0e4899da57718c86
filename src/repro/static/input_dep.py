"""Input dependency (paper Section V-C).

FragDroid "introduces a new input interface which is a file containing
resource-IDs of all input widgets (like EditText, CheckBox, and so on)".
Analysts fill correct values in advance; the driver uses those values
with preference during tests.  We reproduce both halves: the generated
input-file template (all input widgets discovered statically) and the
analyst-filled value store consulted by the UI driver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.smali.apktool import DecodedApk
from repro.store import check_shape, parse_json
from repro.types import WidgetKind

INPUT_WIDGET_KINDS = (WidgetKind.EDIT_TEXT, WidgetKind.CHECK_BOX,
                      WidgetKind.SPINNER, WidgetKind.SWITCH)

# The fallback the paper criticises: a random-ish string such as "abc"
# makes strict apps (TheWeatherChannel's place search) report an error.
DEFAULT_TEXT = "abc"


@dataclass
class InputDependency:
    """The analyst-facing input file: widget resource-IDs → values."""

    package: str
    values: Dict[str, str] = field(default_factory=dict)
    known_widgets: List[str] = field(default_factory=list)

    def provide(self, widget_id: str, value: str) -> None:
        """Record an analyst-supplied correct value."""
        self.values[widget_id] = value

    def value_for(self, widget_id: str) -> str:
        """Preferred value for an input widget (analyst value or the
        default filler)."""
        return self.values.get(widget_id, DEFAULT_TEXT)

    def has_value(self, widget_id: str) -> bool:
        return widget_id in self.values

    # -- file round trip (the JSON interface of Section III) -----------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "package": self.package,
                "input_widgets": self.known_widgets,
                "values": self.values,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "InputDependency":
        """The input file ``text`` holds; else
        :class:`~repro.errors.StoreError` naming the damage."""
        data = check_shape(parse_json(text, "input file"), _INPUT_FILE_SHAPE,
                           "input file")
        return cls(package=data["package"],
                   values=data.get("values", {}),
                   known_widgets=data.get("input_widgets", []))


#: What :meth:`InputDependency.to_json` writes (see
#: :func:`repro.store.check_shape`).
_INPUT_FILE_SHAPE = {"package": str, "?input_widgets": [str],
                     "?values": {str: str}}


def extract_input_dependency(decoded: DecodedApk) -> InputDependency:
    """Build the input-file template from the layouts: every widget whose
    kind accepts input is listed for the analyst to fill."""
    dep = InputDependency(package=decoded.package)
    seen = set()
    for layout in decoded.layouts.values():
        for element in layout.elements:
            if element.kind in INPUT_WIDGET_KINDS and element.widget_id not in seen:
                seen.add(element.widget_id)
                dep.known_widgets.append(element.widget_id)
    dep.known_widgets.sort()
    return dep
