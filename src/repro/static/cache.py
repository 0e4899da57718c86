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
never observe torn entries.  Every document is read through its
:func:`repro.store.check_shape` shape: an entry that is damaged,
truncated or of another schema reads as a counted miss, a notes
document as no notes, a tally document as no tallies.  Hit/miss/store
tallies persist best-effort in ``<dir>/stats.json`` for
``repro cache stats``.  Tallies and notes are updated under a file
lock, so concurrent processes add up exactly.
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
from typing import Dict, Iterator, Optional, Tuple

from repro.apk.package import ApkPackage
from repro.errors import StoreError
from repro.smali.apktool import DecodedApk
from repro.static.aftm import aftm_from_dict, aftm_to_dict
from repro.static.extractor import StaticInfo
from repro.static.input_dep import InputDependency
from repro.static.resource_dep import ResourceBinding, ResourceDependency
from repro.store import DocumentStore, check_schema, check_shape, default_dir

#: Bump whenever the serialized shapes below change; entries and notes
#: written by other schema versions read as misses.
CACHE_SCHEMA = 2

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

def static_info_to_dict(info: StaticInfo) -> Dict:
    """Serialize everything but ``decoded`` and the analyst values.

    Input values are a per-run overlay (``input_dep.provide``), not a
    property of the APK bytes, so the stored template keeps only the
    discovered widgets; lookups re-apply the caller's values.  The AFTM
    is in its one JSON form, the form ``report.json`` holds.
    """
    return {
        "package": info.package,
        "aftm": aftm_to_dict(info.aftm),
        "activities": list(info.activities),
        "fragments": list(info.fragments),
        "fragment_hosts": {k: list(v)
                           for k, v in info.fragment_hosts.items()},
        "dependency": {k: list(v) for k, v in info.dependency.items()},
        "resource_dep": [
            {"widget_id": b.widget_id, "resource_value": b.resource_value,
             "activity": b.activity, "fragment": b.fragment}
            for b in info.resource_dep.bindings
        ],
        "input_widgets": list(info.input_dep.known_widgets),
        "uses_manager": dict(info.uses_manager),
        "support_library": dict(info.support_library),
        "static_api_map": {k: list(v)
                           for k, v in info.static_api_map.items()},
        "view_components_json": info.view_components_json,
    }


_NAME_OR_NONE = (str, type(None))

#: What :func:`static_info_to_dict` writes besides the AFTM, which
#: :func:`~repro.static.aftm.aftm_from_dict` checks as it reads it (see
#: :func:`repro.store.check_shape`).
_STATIC_INFO_SHAPE = {
    "package": str, "aftm": dict, "activities": [str], "fragments": [str],
    "fragment_hosts": {str: [str]}, "dependency": {str: [str]},
    "resource_dep": [{"widget_id": str, "resource_value": int,
                      "activity": _NAME_OR_NONE,
                      "fragment": _NAME_OR_NONE}],
    "input_widgets": [str], "uses_manager": {str: bool},
    "support_library": {str: bool}, "static_api_map": {str: [str]},
    "view_components_json": str,
}


def static_info_from_dict(data,
                          source: Optional[ApkPackage] = None) -> StaticInfo:
    """Rebuild a fresh, independently mutable model from what
    :func:`static_info_to_dict` wrote.  Raises :class:`StoreError` for
    any other value, naming where in it the damage is.

    Its ``decoded`` decodes ``source`` on first read; without a source
    it is ``None``, as on any :class:`StaticInfo` read back from JSON.
    """
    check_shape(data, _STATIC_INFO_SHAPE, "static_info")
    aftm = aftm_from_dict(data["aftm"], "static_info.aftm")
    resource_dep = ResourceDependency()
    for row in data["resource_dep"]:
        resource_dep.add(ResourceBinding(row["widget_id"],
                                         row["resource_value"],
                                         row["activity"], row["fragment"]))
    input_dep = InputDependency(package=data["package"])
    input_dep.known_widgets = list(data["input_widgets"])
    info = StaticInfo(
        package=data["package"],
        aftm=aftm,
        activities=list(data["activities"]),
        fragments=list(data["fragments"]),
        fragment_hosts={k: list(v)
                        for k, v in data["fragment_hosts"].items()},
        dependency={k: list(v) for k, v in data["dependency"].items()},
        resource_dep=resource_dep,
        input_dep=input_dep,
        uses_manager=dict(data["uses_manager"]),
        support_library=dict(data["support_library"]),
        source=source,
    )
    info.static_api_map = {k: list(v)
                           for k, v in data["static_api_map"].items()}
    info.view_components_json = data["view_components_json"]
    return info


def _seeded(info: StaticInfo, decoded: Optional[DecodedApk]) -> StaticInfo:
    """``info``, sharing ``decoded`` (if any): the one place a
    :class:`StaticInfo` is handed a model, not decoding its ``source``."""
    if decoded is not None:
        info.__dict__["decoded"] = decoded
    return info


# ---------------------------------------------------------------------------
# The two-tier store
# ---------------------------------------------------------------------------

#: A memory-tier entry: the serialized model and, when this process
#: decoded it, the decoded APK.
_Entry = Tuple[Dict, Optional[DecodedApk]]

#: What :meth:`StaticCache._disk_put` and :meth:`StaticCache.store_notes`
#: write besides the schema.
_ENTRY_SHAPE = {"digest": str, "package": str, "static_info": dict}
_NOTES_SHAPE = {"kind": str, "notes": {str: str}}


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

        While the memory tier holds the APK the miss decoded, the model
        shares it as its ``decoded`` and its text as its ``source``;
        otherwise its ``source`` is ``source``'s text, decoded on the
        first read of ``decoded``.
        """
        if source is not None:
            source = replace(source, _spec=None)
        entry = self._memory_get(digest)
        if entry is not None:
            data, decoded = entry
            if decoded is not None:
                source = decoded.source
            info = _seeded(static_info_from_dict(data, source), decoded)
        elif self._disk is not None:
            info = self._disk_get(digest, source)
        else:
            info = None
        with self._lock:
            if info is None:
                self.misses += 1
            else:
                self.hits += 1
        self._bump_disk_stats("misses" if info is None else "hits")
        return info

    def store(self, digest: str, info: StaticInfo,
              decoded: DecodedApk) -> None:
        """Serialize a freshly extracted model under its digest, beside
        the APK it decoded, which ``info`` then shares like a hit."""
        data = static_info_to_dict(_seeded(info, decoded))
        self._memory_put(digest, (data, decoded))
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
            check_schema(payload, CACHE_SCHEMA, "static cache notes")
            notes = check_shape(payload, _NOTES_SHAPE, "notes")["notes"]
        except (KeyError, StoreError):
            return memory
        notes.update(memory)
        return notes

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

    def _disk_get(self, digest: str,
                  source: Optional[ApkPackage]) -> Optional[StaticInfo]:
        """The model of a disk entry, or ``None`` for an absent or
        refused one.  The hydration is the check: only an entry that
        hydrates enters the memory tier."""
        try:
            payload = self._disk.read(digest)
            check_schema(payload, CACHE_SCHEMA, "static cache entry")
            data = check_shape(payload, _ENTRY_SHAPE, "entry")["static_info"]
            info = static_info_from_dict(data, source)
        except (KeyError, StoreError):
            return None
        self._memory_put(digest, (data, None))
        return info

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
            return check_shape(DocumentStore(directory).read(_STATS_KEY),
                               {str: int}, "stats")
        except (KeyError, StoreError):
            return {}

    def clear(self) -> int:
        """Drop every entry, note and tally (memory and disk) and any
        temp file a crashed writer left; returns the number of model
        entries removed.  The ``.update.lock`` file stays."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
            self._notes.clear()
        if self._disk is not None:
            for key in self._disk.ids():
                if self._disk.remove(key) and _is_entry(key):
                    removed += 1
            self._disk.remove_debris()
        return removed
