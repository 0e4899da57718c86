"""Content-addressed cache for the static phase.

``extract_static_info`` is a pure function of the APK's text artifacts:
decode → Algorithms 1–3 → dependency files, nothing else.  At market
scale (the 217-app usage study, repeated evaluation sweeps) the same
package bytes are re-analyzed over and over, so the sweep pays the full
decode + analysis cost every run.  This module memoizes the whole phase
behind :meth:`~repro.apk.package.ApkPackage.digest` — a SHA-256 of the
canonical serialized artifacts — with two tiers:

* an **in-memory LRU** (bounded, per-process) of serialized models,
  each beside the :class:`~repro.smali.apktool.DecodedApk` its miss
  decoded, and
* an optional **on-disk JSON store** (one ``<digest>.json`` per entry
  in a :class:`~repro.store.DocumentStore`, default
  ``~/.cache/fragdroid``, override via config/CLI ``--static-cache`` or
  ``FRAGDROID_CACHE_DIR``) shared across processes and runs.

A hit skips decode and Algorithms 1–3 entirely and rebuilds a fresh
:class:`~repro.static.extractor.StaticInfo` from the serialized form —
fresh, because the dynamic phase mutates ``info.aftm`` in place, so
cached state must never be shared between runs.  The decoded APK is
read-only, so a memory hit shares the one its miss decoded; a disk hit
decodes the APK in hand on the first read of ``decoded``.  Either way
attribution sees what a fresh run sees.  The LRU evicts a model and its
decoded APK together.  Packed APKs are never cached (they fail before
producing a model).  Stored entries strip analyst input values, which
are re-applied per lookup, so one cache serves runs with different
input files.

Writes are atomic, so concurrent sweep workers sharing one directory
never observe torn entries; a corrupted or truncated entry reads as a
miss.  Hit/miss/store tallies persist best-effort in
``<dir>/stats.json`` for ``repro cache stats``.  Tallies and notes
are updated under a file lock, so concurrent processes add up exactly.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apk.package import ApkPackage
from repro.smali.apktool import DecodedApk
from repro.static.aftm import AFTM, Node, NodeKind
from repro.static.extractor import StaticInfo
from repro.static.input_dep import InputDependency
from repro.static.resource_dep import ResourceBinding, ResourceDependency
from repro.store import DocumentStore, default_dir

#: Bump whenever the serialized shape below changes; entries written by
#: other schema versions read as misses instead of mis-deserializing.
CACHE_SCHEMA = 1

#: Disk keys besides the ``<digest>`` model entries.
_STATS_KEY = "stats"
_NOTES_PREFIX = "notes-"
#: The lock file serializing the stats and notes updates across
#: processes (a dotfile, so the store never lists it).
_UPDATE_LOCK = ".update.lock"


def default_cache_dir() -> pathlib.Path:
    """``$FRAGDROID_CACHE_DIR`` or ``~/.cache/fragdroid``."""
    return default_dir("FRAGDROID_CACHE_DIR")


def _is_entry(key: str) -> bool:
    """Whether a disk key is a model entry (not the stats or notes)."""
    return key != _STATS_KEY and not key.startswith(_NOTES_PREFIX)


# ---------------------------------------------------------------------------
# StaticInfo <-> plain dict
# ---------------------------------------------------------------------------

def _node_to_list(node: Node) -> List[str]:
    return [node.kind.value, node.name]


def _node_from_list(data: List[str]) -> Node:
    return Node(NodeKind(data[0]), data[1])


def _aftm_to_dict(aftm: AFTM) -> Dict:
    return {
        "package": aftm.package,
        "entry": _node_to_list(aftm.entry) if aftm.entry else None,
        "nodes": [_node_to_list(n) for n in sorted(aftm.iter_nodes())],
        "edges": [
            [_node_to_list(e.src), _node_to_list(e.dst), e.host, e.trigger]
            for e in sorted(aftm.iter_edges())
        ],
        "visited": [_node_to_list(n) for n in sorted(aftm.iter_visited())],
    }


def _aftm_from_dict(data: Dict) -> AFTM:
    aftm = AFTM(data["package"])
    if data.get("entry"):
        aftm.set_entry(_node_from_list(data["entry"]))
    for node in data.get("nodes", ()):
        aftm.add_node(_node_from_list(node))
    for src, dst, host, trigger in data.get("edges", ()):
        aftm.add_transition(_node_from_list(src), _node_from_list(dst),
                            host=host, trigger=trigger)
    for node in data.get("visited", ()):
        aftm.mark_visited(_node_from_list(node))
    return aftm


def static_info_to_dict(info: StaticInfo) -> Dict:
    """Serialize everything but ``decoded`` and the analyst values.

    Input values are a per-run overlay (``input_dep.provide``), not a
    property of the APK bytes, so the stored template keeps only the
    discovered widgets; lookups re-apply the caller's values.
    """
    return {
        "package": info.package,
        "aftm": _aftm_to_dict(info.aftm),
        "activities": list(info.activities),
        "fragments": list(info.fragments),
        "fragment_hosts": {k: list(v)
                           for k, v in info.fragment_hosts.items()},
        "dependency": {k: list(v) for k, v in info.dependency.items()},
        "resource_dep": [
            [b.widget_id, b.resource_value, b.activity, b.fragment]
            for b in info.resource_dep.bindings
        ],
        "input_widgets": list(info.input_dep.known_widgets),
        "uses_manager": dict(info.uses_manager),
        "support_library": dict(info.support_library),
        "static_api_map": {k: list(v)
                           for k, v in info.static_api_map.items()},
        "view_components_json": info.view_components_json,
    }


def static_info_from_dict(data: Dict,
                          source: Optional[ApkPackage] = None) -> StaticInfo:
    """Rebuild a fresh, independently mutable model.

    Its ``decoded`` decodes ``source`` on first read; without a source
    it is ``None``, as on any :class:`StaticInfo` read back from JSON.
    """
    resource_dep = ResourceDependency()
    for widget_id, value, activity, fragment in data.get("resource_dep", ()):
        resource_dep.add(ResourceBinding(widget_id, value, activity,
                                         fragment))
    input_dep = InputDependency(package=data["package"])
    input_dep.known_widgets = list(data.get("input_widgets", ()))
    info = StaticInfo(
        package=data["package"],
        aftm=_aftm_from_dict(data["aftm"]),
        activities=list(data.get("activities", ())),
        fragments=list(data.get("fragments", ())),
        fragment_hosts={k: list(v)
                        for k, v in data.get("fragment_hosts", {}).items()},
        dependency={k: list(v)
                    for k, v in data.get("dependency", {}).items()},
        resource_dep=resource_dep,
        input_dep=input_dep,
        uses_manager=dict(data.get("uses_manager", {})),
        support_library=dict(data.get("support_library", {})),
        decoded=None,
    )
    info.static_api_map = {k: list(v)
                           for k, v in data.get("static_api_map", {}).items()}
    info.view_components_json = data.get("view_components_json", "[]")
    if source is not None:
        del info.decoded
        # Text only, as a StaticInfo ships it across a process boundary.
        info._decoded_source = replace(source, _spec=None)
    return info


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------

#: A memory-tier entry: the serialized model and, when this process
#: decoded it, the decoded APK.
_Entry = Tuple[Dict, Optional[DecodedApk]]


class StaticCache:
    """In-memory LRU over serialized models, plus an optional disk tier.

    Thread-safe; one instance can serve a whole thread-pool sweep.  It
    pickles as a fresh handle on the same directory, so in a
    process-pool sweep each worker opens its own instance — the disk
    tier is the shared medium and every write is atomic.  A cache
    without a directory pickles as no cache: its memory cannot follow
    it, and a worker's copy would die with the worker's config.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 memory_entries: int = 64) -> None:
        if memory_entries < 1:
            raise ValueError(
                f"memory_entries must be >= 1, got {memory_entries!r}"
            )
        self.directory = (pathlib.Path(directory)
                          if directory is not None else None)
        self._disk = (DocumentStore(directory)
                      if directory is not None else None)
        self.memory_entries = memory_entries
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._notes: Dict[str, Dict[str, str]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __reduce__(self):
        if self.directory is None:
            return (type(None), ())
        return (StaticCache, (self.directory, self.memory_entries))

    # -- lookup / store ----------------------------------------------------

    def lookup(self, digest: str,
               source: Optional[ApkPackage] = None) -> Optional[StaticInfo]:
        """The rehydrated model for a digest, or ``None`` on a miss.

        Its ``decoded`` is the APK the miss decoded while the memory
        tier holds it, and otherwise decodes ``source`` on first read.
        """
        entry = self._memory_get(digest)
        if entry is None and self._disk is not None:
            data = self._disk_get(digest)
            if data is not None:
                entry = (data, None)
                self._memory_put(digest, entry)
        if entry is None:
            with self._lock:
                self.misses += 1
            self._bump_disk_stats("misses")
            return None
        with self._lock:
            self.hits += 1
        self._bump_disk_stats("hits")
        data, decoded = entry
        if decoded is None:
            return static_info_from_dict(data, source)
        info = static_info_from_dict(data)
        info.decoded = decoded
        return info

    def store(self, digest: str, info: StaticInfo) -> None:
        """Serialize a freshly extracted model under its digest, beside
        its decoded APK."""
        data = static_info_to_dict(info)
        self._memory_put(digest, (data, info.decoded))
        if self._disk is not None:
            self._disk_put(digest, data)
        with self._lock:
            self.stores += 1
        self._bump_disk_stats("stores")

    # -- digest-keyed notes ------------------------------------------------

    def load_notes(self, kind: str) -> Dict[str, str]:
        """All notes of one kind, keyed by APK digest.

        Notes are small derived facts (e.g. the usage study's
        packed/fragments/plain classification) that are cheaper than a
        full :class:`StaticInfo` but just as content-addressed.  One
        batch load serves a whole sweep: callers look digests up in the
        returned dict and tally the outcome via :meth:`count_lookups`.
        """
        with self._lock:
            memory = dict(self._notes.get(kind, {}))
        if self._disk is None:
            return memory
        try:
            payload = self._disk.read(_NOTES_PREFIX + kind)
            if payload.get("schema") != CACHE_SCHEMA:
                return memory
            disk = payload.get("notes", {})
            if not isinstance(disk, dict):
                return memory
            merged = {str(k): str(v) for k, v in disk.items()}
            merged.update(memory)
            return merged
        except (KeyError, ValueError):
            return memory

    def store_notes(self, kind: str, notes: Dict[str, str]) -> None:
        """Merge freshly computed notes into the store (one write)."""
        if not notes:
            return
        with self._lock:
            self._notes.setdefault(kind, {}).update(notes)
            self.stores += len(notes)
        self._bump_disk_stats("stores", len(notes))
        if self._disk is None:
            return
        try:
            with self._disk_lock():
                merged = self.load_notes(kind)
                self._disk.put(_NOTES_PREFIX + kind, json.dumps(
                    {"schema": CACHE_SCHEMA, "kind": kind, "notes": merged},
                    sort_keys=True,
                ))
        except OSError:
            pass  # a read-only or full disk degrades to memory-only

    def count_lookups(self, hits: int = 0, misses: int = 0) -> None:
        """Tally batched lookups (note-style lookups bypass lookup())."""
        with self._lock:
            self.hits += hits
            self.misses += misses
        if hits:
            self._bump_disk_stats("hits", hits)
        if misses:
            self._bump_disk_stats("misses", misses)

    # -- memory tier -------------------------------------------------------

    def _memory_get(self, digest: str) -> Optional[_Entry]:
        with self._lock:
            entry = self._memory.get(digest)
            if entry is not None:
                self._memory.move_to_end(digest)
            return entry

    def _memory_put(self, digest: str, entry: _Entry) -> None:
        with self._lock:
            self._memory[digest] = entry
            self._memory.move_to_end(digest)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, digest: str) -> pathlib.Path:
        return self._disk.path_of(digest)

    def _disk_get(self, digest: str) -> Optional[Dict]:
        try:
            payload = self._disk.read(digest)
            if payload.get("schema") != CACHE_SCHEMA:
                return None
            data = payload["static_info"]
            # Round-trip the hydration now: a structurally corrupt entry
            # must read as a miss, not explode mid-sweep.
            static_info_from_dict(data)
            return data
        except (ValueError, KeyError, TypeError, IndexError):
            return None

    def _disk_put(self, digest: str, data: Dict) -> None:
        try:
            self._disk.put(digest, json.dumps(
                {"schema": CACHE_SCHEMA, "digest": digest,
                 "package": data["package"], "static_info": data},
                sort_keys=True,
            ))
        except OSError:
            pass  # a read-only or full disk degrades to memory-only

    # -- stats / maintenance ----------------------------------------------

    @contextlib.contextmanager
    def _disk_lock(self) -> Iterator[None]:
        """An exclusive ``flock`` on ``<dir>/.update.lock``: a
        read-modify-write of a shared document under it never loses
        another process's update.  Raises ``OSError`` on a read-only
        disk."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / _UPDATE_LOCK, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            yield

    def _bump_disk_stats(self, key: str, count: int = 1) -> None:
        """Best-effort persistent tallies for ``repro cache stats``."""
        if self._disk is None:
            return
        try:
            with self._disk_lock():
                stats = self.persistent_stats(self.directory)
                stats[key] = stats.get(key, 0) + count
                self._disk.put(_STATS_KEY, json.dumps(stats, sort_keys=True))
        except OSError:
            pass  # a read-only disk keeps its tallies in memory only

    def stats(self) -> Dict[str, object]:
        """Hits/misses/stores plus entry counts and disk footprint."""
        with self._lock:
            lookups = self.hits + self.misses
            stats: Dict[str, object] = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "memory_entries": len(self._memory),
            }
        stats["directory"] = (str(self.directory)
                              if self.directory is not None else None)
        stats["disk_entries"] = 0
        stats["disk_bytes"] = 0
        if self._disk is not None and self.directory.is_dir():
            entries = [key for key in self._disk.ids() if _is_entry(key)]
            size = 0
            for key in entries:
                try:
                    size += self._disk.path_of(key).stat().st_size
                except OSError:
                    continue
            stats["disk_entries"] = len(entries)
            stats["disk_bytes"] = size
            persisted = self.persistent_stats(self.directory)
            for key in ("hits", "misses", "stores"):
                stats[f"lifetime_{key}"] = persisted.get(key, 0)
            lifetime_lookups = (persisted.get("hits", 0)
                                + persisted.get("misses", 0))
            stats["lifetime_hit_rate"] = (
                persisted.get("hits", 0) / lifetime_lookups
                if lifetime_lookups else 0.0
            )
        return stats

    @staticmethod
    def persistent_stats(directory: os.PathLike) -> Dict[str, int]:
        """The tallies accumulated in a directory across processes."""
        try:
            raw = DocumentStore(directory).read(_STATS_KEY)
            return {k: int(v) for k, v in raw.items()}
        except (KeyError, ValueError, TypeError):
            return {}

    def clear(self) -> int:
        """Drop every entry, note and tally (memory and disk); returns the
        number of model entries removed."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
            self._notes.clear()
        if self._disk is not None:
            for key in self._disk.ids():
                if self._disk.remove(key) and _is_entry(key):
                    removed += 1
        return removed
