"""Android-style resource table.

Real Android assigns every resource a unique 32-bit ID of the form
``0x7fTTEEEE`` (package 0x7f, type byte, entry index).  FragDroid's
resource-dependency analysis (Algorithm 3 in the paper) keys entirely on
these IDs, so the table reproduces the same structure: typed namespaces
(``id``, ``layout``, ``string``) with stable, unique numeric values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ResourceError
from repro.types import RESOURCE_ID_BASE, ResourceId

# Type bytes follow the aapt convention closely enough for our purposes.
_TYPE_CODES = {
    "id": 0x01,
    "layout": 0x02,
    "string": 0x03,
    "drawable": 0x04,
    "menu": 0x05,
}


@dataclass
class ResourceTable:
    """A per-package registry of symbolic resource names to numeric IDs."""

    package: str
    _entries: Dict[Tuple[str, str], ResourceId] = field(default_factory=dict)
    _by_value: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    _counters: Dict[str, int] = field(default_factory=dict)

    def define(self, rtype: str, name: str) -> ResourceId:
        """Register ``R.<rtype>.<name>`` and return its ID.

        Defining the same name twice returns the existing ID (resources are
        idempotent, like aapt merging duplicate declarations).
        """
        if rtype not in _TYPE_CODES:
            raise ResourceError(f"unknown resource type: {rtype!r}")
        key = (rtype, name)
        known = self._entries.get(key)
        if known is not None:
            return known
        index = self._counters.get(rtype, 0) + 1
        if index > 0xFFFF:
            raise ResourceError(f"resource type {rtype!r} overflow")
        self._counters[rtype] = index
        value = RESOURCE_ID_BASE | (_TYPE_CODES[rtype] << 16) | index
        rid = ResourceId(value, name)
        self._entries[key] = rid
        self._by_value[value] = key
        return rid

    def lookup(self, rtype: str, name: str) -> ResourceId:
        try:
            return self._entries[(rtype, name)]
        except KeyError:
            raise ResourceError(f"undefined resource R.{rtype}.{name}") from None

    def get(self, rtype: str, name: str) -> Optional[ResourceId]:
        return self._entries.get((rtype, name))

    def reverse(self, value: int) -> Tuple[str, str]:
        """Map a numeric ID back to ``(type, name)``."""
        try:
            return self._by_value[value]
        except KeyError:
            raise ResourceError(f"no resource with id {value:#x}") from None

    def name_of(self, value: int) -> str:
        return self.reverse(value)[1]

    def entries(self, rtype: Optional[str] = None) -> Iterator[Tuple[str, str, ResourceId]]:
        """Iterate ``(type, name, id)`` triples, optionally filtered by type."""
        for (etype, name), rid in sorted(self._entries.items()):
            if rtype is None or etype == rtype:
                yield etype, name, rid

    def __len__(self) -> int:
        return len(self._entries)

    def to_public_xml(self) -> str:
        """Render the table in the ``public.xml`` format apktool emits."""
        lines = ['<?xml version="1.0" encoding="utf-8"?>', "<resources>"]
        lines.extend([
            f'    <public type="{rtype}" name="{name}" id="{rid.hex}" />'
            for (rtype, name), rid in sorted(self._entries.items())])
        lines.append("</resources>")
        return "\n".join(lines)

    @classmethod
    def from_public_xml(cls, package: str, text: str) -> "ResourceTable":
        """Parse a ``public.xml`` back into a table (apktool round trip)."""
        table = cls(package)
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("<public "):
                continue
            entry = _ENTRY.fullmatch(line)
            if entry is None:
                raise ResourceError(f"malformed public.xml entry: {line}")
            rtype, name, hex_id = entry.groups()
            try:
                value = int(hex_id, 16)
                rid = ResourceId(value, name)
            except ValueError as exc:
                raise ResourceError(
                    f"malformed public.xml entry: {line}") from exc
            table._entries[(rtype, name)] = rid
            table._by_value[value] = (rtype, name)
            index = value & 0xFFFF
            table._counters[rtype] = max(table._counters.get(rtype, 0), index)
        return table


# An entry in the exact shape ``to_public_xml`` writes; values hold no
# whitespace, quote or ``>``.
_ENTRY = re.compile(
    r'<public type="([^\s">]*)" name="([^\s">]*)" id="([^\s">]*)" />')
