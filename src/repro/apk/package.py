"""The compiled APK package.

An :class:`ApkPackage` holds *text* artifacts — manifest XML, smali files,
layout XML, the resource table's ``public.xml`` — exactly the shapes
Apktool produces from a real APK.  The originating :class:`AppSpec` is
retained on a private attribute for the device emulator (which plays the
role of the Dalvik VM executing the DEX); analysis code must never touch
it, and the test suite enforces that the static pipeline works from the
text artifacts alone.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.apk.appspec import AppSpec


#: The text artifacts a pickled package ships as one deflated blob.
_TEXT_FIELDS = ("manifest_xml", "smali_files", "layout_files", "public_xml")


@dataclass
class ApkPackage:
    """One installable app package."""

    package: str
    manifest_xml: str
    smali_files: Dict[str, str]  # "com/foo/Bar.smali" -> smali text
    layout_files: Dict[str, str]  # "res/layout/activity_main.xml" -> xml
    public_xml: str
    packed: bool = False
    version_name: str = "1.0"
    _spec: "AppSpec" = field(default=None, repr=False)  # type: ignore[assignment]

    def __getstate__(self) -> Dict[str, object]:
        # A text-only package (no runtime spec) pickles without the
        # ``_spec`` key, so nothing of the spec crosses a process
        # boundary with it; the class default restores ``None``.  The
        # four text artifacts cross as one deflated JSON blob; a copy
        # nobody read ships the blob it arrived with, and one that was
        # read (its fields may have been set since) deflates anew.
        state = {name: value for name, value in self.__dict__.items()
                 if name not in _TEXT_FIELDS}
        if state.get("_spec") is None:
            state.pop("_spec", None)
        if "_deflated" not in state or any(
                name in self.__dict__ for name in _TEXT_FIELDS):
            text = json.dumps([getattr(self, name) for name in _TEXT_FIELDS],
                              separators=(",", ":"))
            state["_deflated"] = zlib.compress(text.encode("utf-8"), 1)
        return state

    def __getattr__(self, name: str) -> object:
        # Runs only for a missing attribute: on an unpickled package,
        # the first read of any text artifact inflates all four.  The
        # blob stays (a few KB), so threads that race here may each
        # inflate, and the first store wins.
        state = self.__dict__
        if name not in _TEXT_FIELDS or "_deflated" not in state:
            raise AttributeError(name)
        text = json.loads(zlib.decompress(state["_deflated"]))
        for field_name, value in zip(_TEXT_FIELDS, text):
            state.setdefault(field_name, value)
        return state[name]

    @property
    def apk_name(self) -> str:
        return f"{self.package}-{self.version_name}.apk"

    def digest(self) -> str:
        """Content address of the package's analyzable artifacts.

        A SHA-256 over the canonical serialized form of everything the
        static pipeline reads — manifest, smali, layouts, public.xml,
        the packed flag — so two packages with identical text artifacts
        share a digest regardless of dict insertion order, and mutating
        any byte of any artifact changes it.  The behavioural ``_spec``
        is deliberately excluded: analysis never touches it.
        """
        return hashlib.sha256(self._digest_payload()).hexdigest()

    def _digest_payload(self) -> bytes:
        """The canonical bytes :meth:`digest` hashes."""
        payload = json.dumps(
            {
                "package": self.package,
                "version": self.version_name,
                "packed": self.packed,
                "manifest": self.manifest_xml,
                "smali": sorted(self.smali_files.items()),
                "layouts": sorted(self.layout_files.items()),
                "public": self.public_xml,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return payload.encode("utf-8")

    def size_estimate(self) -> int:
        """Rough byte size of the package contents (for reporting)."""
        total = len(self.manifest_xml) + len(self.public_xml)
        total += sum(len(t) for t in self.smali_files.values())
        total += sum(len(t) for t in self.layout_files.values())
        return total

    def runtime_spec(self) -> "AppSpec":
        """The behavioural spec, for the device emulator only.

        The emulator stands in for the Dalvik VM: where a real phone
        executes the DEX bytecode, our device executes the spec this
        package was compiled from (see DESIGN.md, substitution table).
        """
        if self._spec is None:
            raise ValueError(f"package {self.package} has no runtime spec")
        return self._spec

