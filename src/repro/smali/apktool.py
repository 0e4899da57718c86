"""Apktool equivalent: decode an :class:`ApkPackage` into analyzable form.

Mirrors the paper's first static step (Section IV-B.1): "We use Apktool to
decompile the target APK file to get the smali code and its
AndroidManifest.xml file."  Decoding parses the package's *text* artifacts
— it does not shortcut through any in-memory structures — and fails on
packed/encrypted apps exactly like the real tool does on packers (the apps
the paper had to rule out before selecting its 15 targets).
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
from repro.smali.assemble import parse_class
from repro.smali.model import INVOKE_OPCODES, SmaliClass


class _ClassIndex:
    """Name lookup structures for one ``classes`` list snapshot.

    Algorithms 1–3 call ``class_by_name``/``has_class``/
    ``inner_classes_of`` for every component, inner class and resource
    reference; linear scans made the static phase O(components ×
    classes).  The index keeps one name→occurrences dict (O(1) exact
    lookup, first occurrence wins exactly like the old scan) and one
    sorted name list (O(log n) prefix ranges for ``Name$...``
    companions, yielded back in original list order)."""

    __slots__ = ("size", "by_name", "sorted_names")

    def __init__(self, classes: List[SmaliClass]) -> None:
        self.size = len(classes)
        by_name: Dict[str, List[Tuple[int, SmaliClass]]] = {}
        for position, cls in enumerate(classes):
            by_name.setdefault(cls.name, []).append((position, cls))
        self.by_name = by_name
        self.sorted_names = sorted(by_name)

    def prefix_matches(self, prefix: str) -> List[SmaliClass]:
        names = self.sorted_names
        start = bisect_left(names, prefix)
        matches: List[Tuple[int, SmaliClass]] = []
        for index in range(start, len(names)):
            if not names[index].startswith(prefix):
                break
            matches.extend(self.by_name[names[index]])
        matches.sort(key=lambda entry: entry[0])
        return [cls for _, cls in matches]


def _instantiated_in(cls: SmaliClass) -> set:
    """Operands this class creates or type-tests: ``new-instance`` /
    ``instance-of`` operands plus receivers of ``newInstance()`` calls."""
    instantiated: set = set()
    for method in cls.methods:
        for instruction in method.instructions:
            opcode = instruction.opcode
            if opcode in ("new-instance", "instance-of"):
                instantiated.add(instruction.args[-1])
            elif opcode in INVOKE_OPCODES:
                ref = instruction.method
                if ref.name == "newInstance":
                    instantiated.add(ref.cls)
    return instantiated


class _ReferenceIndex:
    """Reverse-reference and instantiation structures for one ``classes``
    list snapshot.

    Section IV-B.2's effective-fragment fixed point asks, per fragment
    per round, "who references this class?" and "does that referrer
    actually instantiate it?".  Answering by rescanning every class made
    the loop O(rounds × fragments × classes).  This index walks the
    class list once: ``owners_by_target`` maps each referenced class to
    its referring outer classes (original list order, first-seen dedup,
    self-references excluded — exactly what the per-target scan
    produced), and ``instantiated_by_id`` records, per class object, the
    operands of ``new-instance``/``instance-of`` plus the receivers of
    ``newInstance()`` calls."""

    __slots__ = ("size", "owners_by_target", "instantiated_by_id",
                 "unit_instantiations")

    def __init__(self, classes: List[SmaliClass]) -> None:
        self.size = len(classes)
        owners_by_target: Dict[str, List[str]] = {}
        instantiated_by_id: Dict[int, set] = {}
        for cls in classes:
            owner = cls.outer_name or cls.name
            for target in cls.referenced_classes():
                bucket = owners_by_target.get(target)
                if bucket is None:
                    owners_by_target[target] = bucket = []
                if owner != target and owner not in bucket:
                    bucket.append(owner)
            instantiated_by_id[id(cls)] = _instantiated_in(cls)
        self.owners_by_target = owners_by_target
        self.instantiated_by_id = instantiated_by_id
        # Per-referrer union of the class itself plus its inner classes,
        # filled lazily by DecodedApk.instantiated_by.
        self.unit_instantiations: Dict[str, FrozenSet[str]] = {}


@dataclass
class DecodedApk:
    """The output directory of an ``apktool d`` run, as structured data."""

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
            created: set = set()
            for cls in members:
                known = index.instantiated_by_id.get(id(cls))
                created |= known if known is not None \
                    else _instantiated_in(cls)
            unit = index.unit_instantiations[referrer] = frozenset(created)
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
        manifest = Manifest.from_xml(apk.manifest_xml)
        classes = [parse_class(text) for _, text in sorted(apk.smali_files.items())]
        layouts: Dict[str, Layout] = {}
        for path, text in sorted(apk.layout_files.items()):
            name = path.rsplit("/", 1)[-1].removesuffix(".xml")
            layouts[name] = Layout.from_xml(name, text)
        resources = ResourceTable.from_public_xml(apk.package, apk.public_xml)
        return DecodedApk(
            package=apk.package,
            manifest=manifest,
            classes=classes,
            layouts=layouts,
            resources=resources,
            source=replace(apk, _spec=None),
        )
