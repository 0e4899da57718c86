"""On-disk APK files.

``save_apk`` writes an :class:`ApkPackage` as a zip archive with the
familiar layout — ``AndroidManifest.xml``, ``smali/...``,
``res/layout/...``, ``public.xml`` — plus ``classes.dex.json``, the
serialized behavioural spec standing in for the DEX (the executable
payload the device runs; static analysis never reads it, same as the
in-memory ``_spec``).  ``load_apk`` reads one back, so corpora can be
exported, shipped, and explored from disk like real samples.
"""

from __future__ import annotations

import json
import pathlib
import zipfile
import zlib
from typing import Union

from repro.apk.package import ApkPackage
from repro.apk.serialize import spec_from_dict, spec_to_dict
from repro.errors import ApkError

_MANIFEST_ENTRY = "AndroidManifest.xml"
_PUBLIC_ENTRY = "public.xml"
_DEX_ENTRY = "classes.dex.json"
_META_ENTRY = "META-INF/MANIFEST.MF"


def save_apk(apk: ApkPackage, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write the package as a zip; returns the written path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr(_META_ENTRY,
                         f"Package: {apk.package}\n"
                         f"Version-Name: {apk.version_name}\n"
                         f"Packed: {str(apk.packed).lower()}\n")
        archive.writestr(_MANIFEST_ENTRY, apk.manifest_xml)
        archive.writestr(_PUBLIC_ENTRY, apk.public_xml)
        for smali_path, text in sorted(apk.smali_files.items()):
            archive.writestr(f"smali/{smali_path}", text)
        for layout_path, text in sorted(apk.layout_files.items()):
            archive.writestr(layout_path, text)
        archive.writestr(
            _DEX_ENTRY,
            json.dumps(spec_to_dict(apk.runtime_spec()), sort_keys=True),
        )
    return path


def load_apk(path: Union[str, pathlib.Path]) -> ApkPackage:
    """Read a package previously written by :func:`save_apk`.

    A malformed archive (not a zip, a missing entry, undecodable text,
    a broken ``classes.dex.json``) raises :class:`ApkError`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ApkError(f"no such apk file: {path}")
    try:
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            for required in (_MANIFEST_ENTRY, _PUBLIC_ENTRY, _DEX_ENTRY,
                             _META_ENTRY):
                if required not in names:
                    raise ApkError(f"{path}: missing entry {required}")
            meta = dict(
                line.split(": ", 1)
                for line in archive.read(_META_ENTRY).decode().splitlines()
                if ": " in line
            )
            smali_files = {}
            layout_files = {}
            for name in names:
                if name.startswith("smali/"):
                    smali_files[name[len("smali/"):]] = \
                        archive.read(name).decode()
                elif name.startswith("res/layout/"):
                    layout_files[name] = archive.read(name).decode()
            spec = spec_from_dict(
                json.loads(archive.read(_DEX_ENTRY).decode())
            )
            return ApkPackage(
                package=meta["Package"],
                manifest_xml=archive.read(_MANIFEST_ENTRY).decode(),
                smali_files=smali_files,
                layout_files=layout_files,
                public_xml=archive.read(_PUBLIC_ENTRY).decode(),
                packed=meta.get("Packed", "false") == "true",
                version_name=meta.get("Version-Name", "1.0"),
                _spec=spec,
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError,
            KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ApkError(f"{path}: malformed apk: {exc!r}") from exc
