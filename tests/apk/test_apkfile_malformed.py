"""Malformed .apk archives: ``load_apk`` loads them or raises ApkError.

``repro batch`` turns an ``ApkError`` into a failed summary row, so any
other exception escaping the loader would abort the whole batch.
"""

import io
import zipfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apk import build_apk
from repro.apk.apkfile import load_apk, save_apk
from repro.corpus.synth import AppPlan, build_app
from repro.errors import ApkError


@pytest.fixture(scope="module")
def archive(tmp_path_factory) -> bytes:
    """A small app as saved by save_apk."""
    path = tmp_path_factory.mktemp("apk") / "small.apk"
    spec = build_app(AppPlan(package="com.fuzz.small", visited_activities=2,
                             visited_fragments=1))
    return save_apk(build_apk(spec), path).read_bytes()


def _entries(data: bytes) -> dict:
    with zipfile.ZipFile(io.BytesIO(data)) as source:
        return {name: source.read(name) for name in source.namelist()}


def _rezip(entries: dict) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as target:
        for name, payload in entries.items():
            target.writestr(name, payload)
    return buffer.getvalue()


def _load_or_apk_error(tmp_path_factory, data: bytes) -> None:
    path = tmp_path_factory.mktemp("fuzz") / "candidate.apk"
    path.write_bytes(data)
    try:
        load_apk(path)
    except ApkError:
        pass


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.binary(max_size=512))
def test_random_bytes_load_or_raise_apk_error(tmp_path_factory, data):
    _load_or_apk_error(tmp_path_factory, data)


@FUZZ
@given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                st.integers(0, 255)),
                      min_size=1, max_size=8),
       keep=st.floats(0.0, 1.0))
def test_mutated_archive_loads_or_raises_apk_error(tmp_path_factory,
                                                   archive, edits, keep):
    data = bytearray(archive)
    for where, value in edits:
        data[int(where * len(data))] = value
    _load_or_apk_error(tmp_path_factory,
                       bytes(data[:max(1, int(keep * len(data)))]))


@FUZZ
@given(which=st.integers(0, 10**6), payload=st.binary(max_size=256))
def test_replaced_entry_loads_or_raises_apk_error(tmp_path_factory, archive,
                                                  which, payload):
    entries = _entries(archive)
    names = sorted(entries)
    entries[names[which % len(names)]] = payload
    _load_or_apk_error(tmp_path_factory, _rezip(entries))


@pytest.mark.parametrize("entry, payload", [
    ("META-INF/MANIFEST.MF", b"Version-Name: 1.0\n"),
    ("classes.dex.json", b"{not json"),
    ("classes.dex.json", b"[1, 2, 3]"),
    ("AndroidManifest.xml", b"\xff\xfe\xfa"),
])
def test_each_broken_entry_raises_apk_error(tmp_path, archive, entry,
                                            payload):
    entries = _entries(archive)
    entries[entry] = payload
    path = tmp_path / "broken.apk"
    path.write_bytes(_rezip(entries))
    with pytest.raises(ApkError):
        load_apk(path)


def test_non_zip_file_raises_apk_error(tmp_path, archive):
    path = tmp_path / "truncated.apk"
    path.write_bytes(archive[:len(archive) // 2])
    with pytest.raises(ApkError):
        load_apk(path)
    path.write_text("not a zip archive")
    with pytest.raises(ApkError):
        load_apk(path)
