"""AndroidManifest model with XML round-tripping.

The manifest is central to three parts of the paper:

* the effective-Activity list comes from the declared ``<activity>`` set
  (Section IV-B.2);
* implicit Intent edges are resolved by matching action strings against
  ``<intent-filter>`` declarations (Algorithm 1);
* FragDroid's forced-start trick rewrites the manifest to add a MAIN
  action to every Activity (Section VI-A) — see
  :mod:`repro.adb.instrumentation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ManifestError
from repro.types import ComponentName

ACTION_MAIN = "android.intent.action.MAIN"
CATEGORY_LAUNCHER = "android.intent.category.LAUNCHER"


@dataclass
class IntentFilter:
    """An ``<intent-filter>``: a set of actions and categories."""

    actions: List[str] = field(default_factory=list)
    categories: List[str] = field(default_factory=list)

    def matches(self, action: Optional[str], category: Optional[str] = None) -> bool:
        if action is not None and action not in self.actions:
            return False
        if category is not None and category not in self.categories:
            return False
        return action is not None


@dataclass
class ActivityDecl:
    """One ``<activity>`` element."""

    name: str  # fully-qualified class name
    exported: bool = False
    intent_filters: List[IntentFilter] = field(default_factory=list)

    @property
    def is_launcher(self) -> bool:
        return any(
            ACTION_MAIN in f.actions and CATEGORY_LAUNCHER in f.categories
            for f in self.intent_filters
        )

    def handles_action(self, action: str) -> bool:
        return any(action in f.actions for f in self.intent_filters)


@dataclass
class Manifest:
    """The parsed AndroidManifest of one package."""

    package: str
    activities: List[ActivityDecl] = field(default_factory=list)
    uses_permissions: List[str] = field(default_factory=list)

    def add_activity(self, decl: ActivityDecl) -> None:
        if self.activity(decl.name) is not None:
            raise ManifestError(f"duplicate activity declaration: {decl.name}")
        self.activities.append(decl)

    def activity(self, name: str) -> Optional[ActivityDecl]:
        if name.startswith("."):
            name = self.package + name
        for decl in self.activities:
            if decl.name == name:
                return decl
        return None

    @property
    def launcher_activity(self) -> Optional[ActivityDecl]:
        for decl in self.activities:
            if decl.is_launcher:
                return decl
        return None

    def component(self, decl: ActivityDecl) -> ComponentName:
        return ComponentName(self.package, decl.name)

    def resolve_action(self, action: str) -> List[ActivityDecl]:
        """All activities whose filters accept ``action``."""
        return [d for d in self.activities if d.handles_action(action)]

    # -- XML round trip ----------------------------------------------------

    def to_xml(self) -> str:
        lines = [
            '<?xml version="1.0" encoding="utf-8"?>',
            '<manifest xmlns:android="http://schemas.android.com/apk/res/android"',
            f'    package="{self.package}">',
        ]
        for permission in self.uses_permissions:
            lines.append(f'    <uses-permission android:name="{permission}" />')
        lines.append("    <application>")
        for decl in self.activities:
            exported = str(decl.exported).lower()
            lines.append(
                f'        <activity android:name="{decl.name}" '
                f'android:exported="{exported}">'
            )
            for ifilter in decl.intent_filters:
                lines.append("            <intent-filter>")
                for action in ifilter.actions:
                    lines.append(
                        f'                <action android:name="{action}" />'
                    )
                for category in ifilter.categories:
                    lines.append(
                        f'                <category android:name="{category}" />'
                    )
                lines.append("            </intent-filter>")
            lines.append("        </activity>")
        lines.append("    </application>")
        lines.append("</manifest>")
        return "\n".join(lines)

    @classmethod
    def from_xml(cls, text: str) -> "Manifest":
        package: Optional[str] = None
        manifest: Optional[Manifest] = None
        current_activity: Optional[ActivityDecl] = None
        current_filter: Optional[IntentFilter] = None
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("package="):
                package = _quoted(line)
                manifest = cls(package)
            elif line.startswith("<uses-permission"):
                if manifest is None:
                    raise ManifestError(
                        "uses-permission before package declaration")
                manifest.uses_permissions.append(_quoted(line))
            elif line.startswith("<activity "):
                if manifest is None:
                    raise ManifestError("activity before package declaration")
                name = _attr(line, "android:name")
                exported = _attr(line, "android:exported") == "true"
                current_activity = ActivityDecl(name=name, exported=exported)
                manifest.add_activity(current_activity)
            elif line.startswith("<intent-filter"):
                current_filter = IntentFilter()
                if current_activity is None:
                    raise ManifestError("intent-filter outside activity")
                current_activity.intent_filters.append(current_filter)
            elif line.startswith("<action "):
                if current_filter is None:
                    raise ManifestError("action outside intent-filter")
                current_filter.actions.append(_attr(line, "android:name"))
            elif line.startswith("<category "):
                if current_filter is None:
                    raise ManifestError("category outside intent-filter")
                current_filter.categories.append(_attr(line, "android:name"))
            elif line.startswith("</intent-filter>"):
                current_filter = None
            elif line.startswith("</activity>"):
                current_activity = None
        if manifest is None:
            raise ManifestError("no package declaration found")
        return manifest


def _quoted(line: str) -> str:
    """The line's first double-quoted value."""
    parts = line.split('"', 2)
    if len(parts) < 3:
        raise ManifestError(f"missing quoted value in: {line}")
    return parts[1]


def _attr(line: str, name: str) -> str:
    marker = f'{name}="'
    start = line.find(marker)
    if start < 0:
        raise ManifestError(f"missing attribute {name!r} in: {line}")
    start += len(marker)
    end = line.find('"', start)
    return line[start:end]
