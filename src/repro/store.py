"""One directory of JSON documents: the on-disk policy of every store.

The run registry, the serve job journal, the coverage-explanation store
and the static cache's disk tier each keep one ``<key>.json`` document
per entry.  :class:`DocumentStore` alone decides how such a directory
is written (atomically), listed (skipping dotfiles and, with a warning,
unreadable documents), resolved (exact key or unique prefix) and read
(a JSON object, else :class:`~repro.errors.StoreError`).  Each stored
type keeps its own schema constant (the AFTM's one JSON form,
:func:`repro.static.aftm.aftm_to_dict`, is shared by reports and cache
entries); :func:`check_shape` holds a document to the shape its writer
wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import warnings
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.errors import StoreError

T = TypeVar("T")

#: What a listing's parse step may raise for a foreign or damaged
#: document, on top of the store's own read errors.
_PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)


def default_dir(env_var: str, *parts: str) -> pathlib.Path:
    """``$env_var`` if set, else ``~/.cache/fragdroid/<parts...>``."""
    env = os.environ.get(env_var)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home().joinpath(".cache", "fragdroid", *parts)


def content_id(payload: object) -> str:
    """A 16-hex-digit SHA-256 prefix over ``payload``'s canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def atomic_write(path: os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` in one step (creating its directory).

    The temp file is a ``.tmp-*.json`` dotfile in the same directory,
    so a crash before the rename leaves the old document in place and
    debris no listing sees; a failed write removes it and re-raises.
    """
    directory = pathlib.Path(path).parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(directory), prefix=".tmp-",
                               suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_document(path: os.PathLike) -> Dict:
    """The JSON object in ``path``.

    A missing file raises ``FileNotFoundError``; anything else that is
    not a readable JSON object raises :class:`StoreError`.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise StoreError(f"not a JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise StoreError(f"top level is a {type(data).__name__}, "
                         "not a JSON object")
    return data


def check_shape(value, shape, where: str):
    """``value``, if it has ``shape``; else :class:`StoreError` naming
    ``where``, the path to the damage (``report.stats.crashes``).

    A shape is a type or tuple of types (``float``: a finite number; a
    number shape refuses ``true``/``false`` unless it names ``bool``), a
    ``frozenset`` of allowed strings, ``[shape]`` (a list of it),
    ``{str: shape}`` (an object of it) or ``{key: shape, ...}`` (an
    object with each key; a key written ``"?key"`` may be absent).
    """
    if isinstance(shape, list):
        ok = isinstance(value, list)
        for index, item in enumerate(value if ok else ()):
            check_shape(item, shape[0], f"{where}[{index}]")
    elif isinstance(shape, dict):
        ok = isinstance(value, dict)
        if ok and str in shape:
            for key, item in value.items():
                check_shape(item, shape[str], f"{where}.{key}")
        elif ok:
            for key, item_shape in shape.items():
                name = key.lstrip("?")
                if name in value:
                    check_shape(value[name], item_shape, f"{where}.{name}")
                elif name == key:
                    raise StoreError(f"{where} lacks {name!r}")
    elif isinstance(shape, frozenset):
        ok = isinstance(value, str) and value in shape
    elif isinstance(value, bool):
        ok = shape is bool or (isinstance(shape, tuple) and bool in shape)
    elif shape is float:
        ok = isinstance(value, (int, float)) and -1e308 < value < 1e308
    else:
        ok = isinstance(value, shape)
    if not ok:
        raise StoreError(f"{where}: unexpected {type(value).__name__} "
                         f"{value!r:.40}")
    return value


def check_schema(data, expected: int, kind: str) -> int:
    """``expected``, the schema of ``data``, a parsed ``kind`` document.
    Raises :class:`StoreError` unless it is a JSON object whose
    ``schema`` is the integer ``expected`` (not ``"2"``, ``2.0`` or
    ``true``)."""
    check_shape(data, dict, kind)
    schema = data.get("schema")
    if type(schema) is not int or schema != expected:
        raise StoreError(f"unsupported {kind.replace(' ', '-')} schema "
                         f"{schema!r} (this build reads {expected})")
    return expected


class DocumentStore:
    """One ``<key>.json`` document per entry under ``directory``;
    subclasses add typed ``load``/``list`` on :meth:`read` and
    :meth:`documents`."""

    #: What one document is, for messages ("no run record 'abc' ...").
    kind = "document"

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        #: (file name, reason) of documents skipped by the last listing.
        self.skipped: List[Tuple[str, str]] = []

    def path_of(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    # -- keys and lookup ---------------------------------------------------

    def ids(self) -> List[str]:
        """Every stored key, sorted (temp files and dotfiles excluded)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(name[:-5] for name in names
                      if name.endswith(".json") and not name.startswith("."))

    def resolve(self, ref: str,
                aliases: Optional[Callable[[], Dict[str, str]]] = None,
                ) -> str:
        """The key ``ref`` names: itself, or the one key it prefixes.

        When no key matches, ``aliases()`` (alternate id -> key) is
        searched the same way.  Raises ``KeyError`` if ``ref`` is
        ambiguous or names nothing.
        """
        if ref and self.path_of(ref).is_file():
            return ref
        matches = [key for key in self.ids() if key.startswith(ref)]
        if not matches and aliases is not None:
            matches = sorted({key for alias, key in aliases().items()
                              if alias.startswith(ref)})
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise KeyError(f"{self.kind} id prefix {ref!r} is ambiguous: "
                           f"{', '.join(matches)}")
        raise KeyError(f"no {self.kind} {ref!r} under {self.directory}")

    # -- reading and writing -----------------------------------------------

    def read(self, key: str) -> Dict:
        """The document stored under exactly ``key``.

        Raises ``KeyError`` if there is none and :class:`StoreError` if
        it is not a readable JSON object.
        """
        try:
            return read_document(self.path_of(key))
        except FileNotFoundError:
            raise KeyError(f"no {self.kind} {key!r} under "
                           f"{self.directory}") from None

    def put(self, key: str, text: str) -> None:
        """Atomically replace the document under ``key`` with ``text``."""
        atomic_write(self.path_of(key), text)

    def remove(self, key: str) -> bool:
        try:
            self.path_of(key).unlink()
            return True
        except OSError:
            return False

    def documents(self, parse: Callable[[Dict], T]) -> List[T]:
        """``parse`` of every readable document, in key order.

        A document that cannot be read or parsed is skipped with a
        ``RuntimeWarning`` and recorded on :attr:`skipped`.
        """
        self.skipped = []
        parsed: List[T] = []
        for key in self.ids():
            name = f"{key}.json"
            try:
                parsed.append(parse(self.read(key)))
            except _PARSE_ERRORS as exc:
                reason = str(exc)
                self.skipped.append((name, reason))
                warnings.warn(f"skipping unreadable {self.kind} {name}: "
                              f"{reason}", RuntimeWarning, stacklevel=3)
        return parsed
