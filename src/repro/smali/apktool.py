"""Apktool equivalent: decode an :class:`ApkPackage` into analyzable form.

Mirrors the paper's first static step (Section IV-B.1): "We use Apktool to
decompile the target APK file to get the smali code and its
AndroidManifest.xml file."  Decoding parses the package's *text* artifacts
— it does not shortcut through any in-memory structures — and fails on
packed/encrypted apps exactly like the real tool does on packers (the apps
the paper had to rule out before selecting its 15 targets).

Decoding parses what its reader reads, like real Apktool's
``-s``/``--no-src`` and ``-r``/``--no-res`` split.  :meth:`Apktool.decode`
refuses packed apps and parses every class header (``.class``,
``.super``, ``.source``, ``.implements``, ``.field``); those errors
raise there.  A class's method bodies parse on the first read of its
``methods``, and the manifest, layouts and resource table on the first
read of ``manifest``, ``layouts`` and ``resources`` (see
:class:`~repro.smali.model.ParseOnRead`); a malformed artifact raises
its typed error on that read.  Every read after the first returns the
same object.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.apk.layout import Layout
from repro.apk.manifest import Manifest
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.errors import PackedApkError
from repro.smali.assemble import ParseTables, parse_class_header
from repro.smali.model import ParseOnRead, SmaliClass


class _ClassIndex:
    """Name lookup structures for one ``classes`` list snapshot.

    Algorithms 1–3 call ``class_by_name``/``has_class``/
    ``inner_classes_of`` for every component, inner class and resource
    reference; linear scans made the static phase O(components ×
    classes).  The index keeps one name→occurrences dict (O(1) exact
    lookup, first occurrence wins exactly like the old scan) and one
    sorted name list (O(log n) prefix ranges for ``Name$...``
    companions, yielded back in original list order)."""

    __slots__ = ("size", "by_name", "sorted_names", "prefixed")

    def __init__(self, classes: List[SmaliClass]) -> None:
        self.size = len(classes)
        by_name: Dict[str, List[Tuple[int, SmaliClass]]] = {}
        for position, cls in enumerate(classes):
            by_name.setdefault(cls.name, []).append((position, cls))
        self.by_name = by_name
        self.sorted_names = sorted(by_name)
        # prefix -> its matches: Algorithms 1-3 each ask for the inner
        # classes of the same components.
        self.prefixed: Dict[str, List[SmaliClass]] = {}

    def prefix_matches(self, prefix: str) -> List[SmaliClass]:
        matches = self.prefixed.get(prefix)
        if matches is None:
            matches = self.prefixed[prefix] = self._prefix_scan(prefix)
        return list(matches)

    def _prefix_scan(self, prefix: str) -> List[SmaliClass]:
        names = self.sorted_names
        start = bisect_left(names, prefix)
        matches: List[Tuple[int, SmaliClass]] = []
        for index in range(start, len(names)):
            if not names[index].startswith(prefix):
                break
            matches.extend(self.by_name[names[index]])
        matches.sort(key=lambda entry: entry[0])
        return [cls for _, cls in matches]


class _ReferenceIndex:
    """Reverse-reference and instantiation structures for one ``classes``
    list snapshot.

    Section IV-B.2's effective-fragment fixed point asks, per fragment
    per round, "who references this class?" and "does that referrer
    actually instantiate it?".  Answering by rescanning every class made
    the loop O(rounds × fragments × classes).  This index walks each
    class once (:meth:`~repro.smali.model.SmaliClass.uses`) and keeps,
    per class object, its reference list (Algorithm 2 reads it again)
    and the classes it creates or type-tests.  ``owners_by_target`` maps
    each referenced class to its referring outer classes (original list
    order, first-seen dedup, self-references excluded — exactly what the
    per-target scan produced)."""

    __slots__ = ("size", "owners_by_target", "uses_by_id",
                 "unit_instantiations")

    def __init__(self, classes: List[SmaliClass]) -> None:
        self.size = len(classes)
        owners_by_target: Dict[str, List[str]] = {}
        uses_by_id: Dict[int, Tuple[List[str], FrozenSet[str]]] = {}
        for cls in classes:
            owner = cls.outer_name or cls.name
            uses = uses_by_id[id(cls)] = cls.uses()
            for target in uses[0]:
                bucket = owners_by_target.get(target)
                if bucket is None:
                    owners_by_target[target] = bucket = []
                if owner != target and owner not in bucket:
                    bucket.append(owner)
        self.owners_by_target = owners_by_target
        self.uses_by_id = uses_by_id
        # Per-referrer union of the class itself plus its inner classes,
        # filled lazily by DecodedApk.instantiated_by.
        self.unit_instantiations: Dict[str, FrozenSet[str]] = {}


@dataclass
class DecodedApk:
    """The output directory of an ``apktool d`` run, as structured data.

    A decoded one holds ``package``, ``classes`` and ``source``; its
    ``manifest``, ``layouts`` and ``resources`` parse from ``source``
    when first read."""

    package: str
    manifest: Manifest
    classes: List[SmaliClass] = field(default_factory=list)
    layouts: Dict[str, Layout] = field(default_factory=dict)
    resources: ResourceTable = None  # type: ignore[assignment]
    # The text artifacts this was decoded from, as a package without a
    # runtime spec: what a StaticInfo ships across a process boundary
    # in place of the decoded object graph.
    source: Optional[ApkPackage] = field(default=None, compare=False,
                                         repr=False)

    def _index(self) -> _ClassIndex:
        # Lazily built and rebuilt whenever ``classes`` grows or shrinks
        # (tests extend the list in place); stored outside the dataclass
        # fields so equality and repr are untouched.
        index = self.__dict__.get("_class_index")
        if index is None or index.size != len(self.classes):
            index = _ClassIndex(self.classes)
            self.__dict__["_class_index"] = index
        return index

    def class_by_name(self, name: str) -> SmaliClass:
        entries = self._index().by_name.get(name)
        if not entries:
            raise KeyError(f"no class {name!r} in decoded {self.package}")
        return entries[0][1]

    def has_class(self, name: str) -> bool:
        return name in self._index().by_name

    def inner_classes_of(self, name: str) -> List[SmaliClass]:
        """All ``Name$...`` companions of a class (Algorithm 2's
        ``getInnerClass``)."""
        return self._index().prefix_matches(name + "$")

    def _ref_index(self) -> _ReferenceIndex:
        index = self.__dict__.get("_reference_index")
        if index is None or index.size != len(self.classes):
            index = _ReferenceIndex(self.classes)
            self.__dict__["_reference_index"] = index
        return index

    def referencing_owners(self, target: str) -> List[str]:
        """Outer classes (including via their inner classes) containing a
        statement of ``target`` — first-seen order, self excluded."""
        return list(self._ref_index().owners_by_target.get(target, ()))

    def uses_of(self, cls: SmaliClass) -> Tuple[List[str], FrozenSet[str]]:
        """``cls.uses()``, from the one walk the reference index made."""
        known = self._ref_index().uses_by_id.get(id(cls))
        return known if known is not None else cls.uses()

    def instantiated_by(self, referrer: str) -> FrozenSet[str]:
        """The classes ``referrer`` (or one of its inner classes) creates
        or type-tests: ``new T()``, ``T.newInstance()`` or ``instanceof``."""
        index = self._ref_index()
        unit = index.unit_instantiations.get(referrer)
        if unit is None:
            members = (
                [self.class_by_name(referrer)] if self.has_class(referrer)
                else []
            )
            members.extend(self.inner_classes_of(referrer))
            unit = index.unit_instantiations[referrer] = frozenset().union(
                *(self.uses_of(cls)[1] for cls in members))
        return unit

    def instantiates(self, referrer: str, target: str) -> bool:
        """True when ``referrer`` (or one of its inner classes) creates
        ``target``."""
        return target in self.instantiated_by(referrer)


class Apktool:
    """Stateless decoder with the same responsibilities as Apktool."""

    def decode(self, apk: ApkPackage) -> DecodedApk:
        """Decode a package; raises :class:`PackedApkError` on packers."""
        if apk.packed:
            raise PackedApkError(
                f"{apk.package}: DEX is packed/encrypted; cannot decode"
            )
        # One set of interning tables for the whole decode: the lazily
        # parsed method bodies use it, and it is freed with the classes.
        tables = ParseTables()
        decoded = DecodedApk.__new__(DecodedApk)
        decoded.__dict__.update(
            package=apk.package,
            classes=[parse_class_header(text, tables)
                     for _, text in sorted(apk.smali_files.items())],
            source=replace(apk, _spec=None),
        )
        return decoded


def _parse_layouts(decoded: DecodedApk) -> Dict[str, Layout]:
    layouts: Dict[str, Layout] = {}
    for path, text in sorted(decoded.source.layout_files.items()):
        name = path.rsplit("/", 1)[-1].removesuffix(".xml")
        layouts[name] = Layout.from_xml(name, text)
    return layouts


DecodedApk.manifest = ParseOnRead(  # type: ignore[assignment]
    "manifest", lambda decoded: Manifest.from_xml(decoded.source.manifest_xml))
DecodedApk.layouts = ParseOnRead(  # type: ignore[assignment]
    "layouts", _parse_layouts)
DecodedApk.resources = ParseOnRead(  # type: ignore[assignment]
    "resources", lambda decoded: ResourceTable.from_public_xml(
        decoded.package, decoded.source.public_xml))
