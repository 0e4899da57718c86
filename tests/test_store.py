"""The shared document store: crash consistency, garbage tolerance and
the stores built on it (run registry, job journal, explanations, static
cache)."""

import json
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.attribution import (
    EXPLANATION_SCHEMA,
    CoverageExplanation,
    ExplanationStore,
)
from repro.obs.dashboard import load_explanations
from repro.obs.registry import RECORD_SCHEMA, RunRecord, RunRegistry
from repro.serve.jobs import JOB_SCHEMA, Job
from repro.serve.journal import JobJournal
from repro.static.cache import CACHE_SCHEMA, StaticCache
from repro.store import (
    DocumentStore,
    StoreError,
    check_schema,
    check_shape,
    content_id,
    default_dir,
    read_document,
)
from tests.conftest import CHILD_ENV


#: A writer killed between writing its temp file and renaming it.
_CRASHING_WRITER = """
import os, sys
from repro.store import DocumentStore
os.replace = lambda src, dst: os._exit(17)
DocumentStore(sys.argv[1]).put(sys.argv[2], sys.argv[3])
"""

#: A writer that puts one document under one key, over and over.
_LOOPING_WRITER = """
import sys
from repro.store import DocumentStore
store = DocumentStore(sys.argv[1])
for _ in range(int(sys.argv[4])):
    store.put(sys.argv[2], sys.argv[3])
"""


def _child(script, *args):
    return [sys.executable, "-c", script, *map(str, args)]


def _doc(**fields):
    return json.dumps(fields, indent=2, sort_keys=True) + "\n"


def _debris(directory):
    return sorted(p.name for p in pathlib.Path(directory).iterdir()
                  if p.name.startswith(".tmp-"))


# ---------------------------------------------------------------------------
# The primitive
# ---------------------------------------------------------------------------

def test_put_writes_exactly_the_given_text(tmp_path):
    store = DocumentStore(tmp_path / "new" / "dir")
    text = _doc(schema=1, value="x")
    store.put("abc", text)
    assert store.path_of("abc").read_bytes() == text.encode("utf-8")
    assert store.read("abc") == {"schema": 1, "value": "x"}
    assert _debris(store.directory) == []


def test_ids_are_sorted_json_stems_without_dotfiles(tmp_path):
    store = DocumentStore(tmp_path)
    for key in ("b", "a", "c"):
        store.put(key, "{}")
    (tmp_path / ".tmp-xyz.json").write_text("{", encoding="utf-8")
    (tmp_path / ".hidden.json").write_text("{}", encoding="utf-8")
    (tmp_path / "BASELINE").write_text("a\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("", encoding="utf-8")
    assert store.ids() == ["a", "b", "c"]
    assert DocumentStore(tmp_path / "absent").ids() == []


def test_resolve_exact_prefix_ambiguous_unknown_and_aliases(tmp_path):
    store = DocumentStore(tmp_path)
    for key in ("abc1", "abc2", "abd3", "abc"):
        store.put(key, "{}")
    assert store.resolve("abc") == "abc"          # exact beats prefix
    assert store.resolve("abd") == "abd3"
    with pytest.raises(KeyError, match="ambiguous"):
        store.resolve("abc2"[:2])
    with pytest.raises(KeyError, match="no document"):
        store.resolve("zz")
    aliases = {"zz99": "abd3", "zy00": "abc1"}
    assert store.resolve("zz", aliases=lambda: aliases) == "abd3"
    with pytest.raises(KeyError, match="ambiguous"):
        store.resolve("z", aliases=lambda: aliases)
    # Aliases are only consulted when no key matches.
    assert store.resolve("abd", aliases=lambda: {"abd": "abc1"}) == "abd3"


def test_read_errors_are_typed(tmp_path):
    store = DocumentStore(tmp_path)
    with pytest.raises(KeyError, match="no document"):
        store.read("missing")
    store.put("list", "[]")
    with pytest.raises(StoreError, match="not a JSON object"):
        store.read("list")
    store.put("torn", '{"a": ')
    with pytest.raises(StoreError, match="not a JSON document"):
        store.read("torn")
    assert issubclass(StoreError, ReproError)
    assert issubclass(StoreError, ValueError)


def test_documents_skip_unreadable_with_warning(tmp_path):
    store = DocumentStore(tmp_path)
    store.put("good", _doc(n=1))
    store.put("torn", "{")
    store.put("scalar", "1")
    store.put("foreign", _doc(n="not a number"))
    with pytest.warns(RuntimeWarning, match="skipping unreadable document"):
        parsed = store.documents(lambda data: int(data["n"]))
    assert parsed == [1]
    assert sorted(name for name, _ in store.skipped) == [
        "foreign.json", "scalar.json", "torn.json"]


@pytest.mark.parametrize("value,shape", [
    (True, int), (False, int), (True, float), (False, (int, type(None))),
    ([1, True], [int]), ({"hits": True}, {str: int}),
])
def test_number_shapes_refuse_booleans(value, shape):
    with pytest.raises(StoreError, match="unexpected bool"):
        check_shape(value, shape, "doc")


@pytest.mark.parametrize("value,shape", [
    (True, bool), (False, (int, bool)), (0, int), (2.5, float), (3, float),
])
def test_shapes_that_name_bool_or_numbers_accept_them(value, shape):
    assert check_shape(value, shape, "doc") is value


@pytest.mark.parametrize("schema,expected", [
    ("2", 2), (2.0, 2), (2.9, 2), (True, 1), (None, 2), ([2], 2)])
def test_check_schema_accepts_only_the_integer_itself(schema, expected):
    with pytest.raises(StoreError, match="unsupported doc schema"):
        check_schema({"schema": schema}, expected, "doc")
    assert check_schema({"schema": expected}, expected, "doc") == expected


def test_default_dir_and_content_id(monkeypatch, tmp_path):
    monkeypatch.setenv("FRAGDROID_TEST_DIR", str(tmp_path / "x"))
    assert default_dir("FRAGDROID_TEST_DIR", "runs") == tmp_path / "x"
    monkeypatch.delenv("FRAGDROID_TEST_DIR")
    assert default_dir("FRAGDROID_TEST_DIR", "runs") == (
        pathlib.Path.home() / ".cache" / "fragdroid" / "runs")
    assert content_id({"b": 1, "a": [2]}) == content_id({"a": [2], "b": 1})
    assert len(content_id({})) == 16


# ---------------------------------------------------------------------------
# Crash consistency and concurrency
# ---------------------------------------------------------------------------

def test_crash_before_rename_leaves_the_old_document(tmp_path):
    store = DocumentStore(tmp_path)
    store.put("doc", _doc(version=1))
    store.put("other", _doc(version=0))
    crashed = subprocess.run(
        _child(_CRASHING_WRITER, tmp_path, "doc", _doc(version=2)),
        env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert crashed.returncode == 17, crashed.stderr
    # The temp file holds the whole new document, yet no reader sees it.
    [debris] = _debris(tmp_path)
    assert json.loads((tmp_path / debris).read_text()) == {"version": 2}
    assert store.read("doc") == {"version": 1}
    assert store.ids() == ["doc", "other"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.documents(dict) == [{"version": 1}, {"version": 0}]
    assert store.skipped == []
    # A later write of the same key still goes through.
    store.put("doc", _doc(version=3))
    assert store.read("doc") == {"version": 3}


def test_crash_debris_is_invisible_to_each_store(tmp_path):
    registry = RunRegistry(tmp_path / "runs")
    run_id = registry.record(RunRecord(label="kept"))
    journal = JobJournal(tmp_path / "serve")
    job = Job(apps=["com.example.a"])
    journal.write(job)
    cache = StaticCache(directory=tmp_path / "cache")
    cache._disk.put("a" * 64, json.dumps({"schema": CACHE_SCHEMA}))
    size = cache._entry_path("a" * 64).stat().st_size
    for directory, key in ((registry.directory, run_id),
                           (journal.directory, job.job_id),
                           (cache.directory, "b" * 64)):
        crashed = subprocess.run(
            _child(_CRASHING_WRITER, directory, key, _doc(torn=True)),
            env=CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert crashed.returncode == 17, crashed.stderr
        assert len(_debris(directory)) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [r.run_id for r in registry.list()] == [run_id]
        assert [j.job_id for j in journal.jobs()] == [job.job_id]
    stats = cache.stats()
    assert stats["disk_entries"] == 1
    assert stats["disk_bytes"] == size


def test_concurrent_writers_leave_exactly_one_written_document(tmp_path):
    documents = [_doc(writer=i, pad="x" * (i * 997)) for i in range(4)]
    children = [subprocess.Popen(_child(_LOOPING_WRITER, tmp_path, "same",
                                        text, 25), env=CHILD_ENV)
                for text in documents]
    assert [child.wait(timeout=120) for child in children] == [0] * 4
    assert (tmp_path / "same.json").read_text() in documents
    assert _debris(tmp_path) == []
    assert DocumentStore(tmp_path).ids() == ["same"]


# ---------------------------------------------------------------------------
# Garbage: listing never raises, read raises only StoreError / KeyError
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)

_non_objects = _json_values.filter(lambda v: not isinstance(v, dict)).map(
    lambda v: json.dumps(v).encode("utf-8"))



@st.composite
def _truncated(draw):
    """A strict prefix of a serialized JSON object."""
    raw = json.dumps(draw(st.dictionaries(
        st.text(max_size=4), _json_values, max_size=3))).encode("utf-8")
    return raw[:draw(st.integers(0, len(raw) - 1))]


_garbage = st.one_of(st.binary(max_size=64), _truncated(), _non_objects)


def _is_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw.decode("utf-8")), dict)
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(st.lists(_garbage, min_size=1, max_size=4))
def test_garbage_is_skipped_and_reads_raise_typed_errors(blobs):
    with tempfile.TemporaryDirectory() as directory:
        store = DocumentStore(directory)
        store.put("good", _doc(ok=True))
        bad = []
        for index, raw in enumerate(blobs):
            key = f"blob{index}"
            store.path_of(key).write_bytes(raw)
            if not _is_object(raw):
                bad.append(key)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            listed = store.documents(dict)
        assert {"ok": True} in listed
        assert len(listed) == len(blobs) + 1 - len(bad)
        assert sorted(name for name, _ in store.skipped) == sorted(
            f"{key}.json" for key in bad)
        for key in store.ids() + ["absent"]:
            try:
                store.read(key)
            except (StoreError, KeyError):
                assert key in bad or key == "absent"
            else:
                assert key not in bad


# ---------------------------------------------------------------------------
# The stores built on the primitive
# ---------------------------------------------------------------------------

def _save_record(store):
    return store.record(RunRecord(label="kept"))


def _save_job(store):
    job = Job(apps=["com.example.a"])
    store.write(job)
    return job.job_id


def _save_explanation(store):
    explanation = CoverageExplanation(source_run_id="a" * 16)
    store.save(explanation)
    return explanation.source_run_id


PORTED = {
    "registry": (RunRegistry, _save_record, RECORD_SCHEMA,
                 RunRegistry.list),
    "journal": (JobJournal, _save_job, JOB_SCHEMA, JobJournal.jobs),
    "explanations": (lambda d: ExplanationStore(d), _save_explanation,
                     EXPLANATION_SCHEMA, ExplanationStore.list),
}


@pytest.mark.parametrize("name", sorted(PORTED))
def test_foreign_schema_is_skipped_by_each_store(tmp_path, name):
    make, save, schema, listing = PORTED[name]
    store = make(tmp_path)
    key = save(store)
    foreign = store.read(key)
    foreign["schema"] = schema + 1
    store.put("f" * 16, json.dumps(foreign))
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        listed = listing(store)
    assert len(listed) == 1
    assert [n for n, _ in store.skipped] == ["f" * 16 + ".json"]
    with pytest.raises(ValueError, match="schema"):
        store.load("f" * 16)
    assert store.load(key[:6]).to_dict() == listed[0].to_dict()


def _loose_schemas(schema):
    """Values an integer cast once read as ``schema``."""
    return [str(schema), float(schema), schema + 0.5] + (
        [True] if schema == 1 else [])


@pytest.mark.parametrize("name", sorted(PORTED))
def test_a_loose_schema_is_skipped_by_each_store(tmp_path, name):
    make, save, schema, listing = PORTED[name]
    store = make(tmp_path)
    key = save(store)
    loose = _loose_schemas(schema)
    for index, value in enumerate(loose):
        foreign = store.read(key)
        foreign["schema"] = value
        store.put(f"f{index}" * 8, json.dumps(foreign))
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        listed = listing(store)
    assert len(listed) == 1
    assert len(store.skipped) == len(loose)
    for index in range(len(loose)):
        with pytest.raises(StoreError, match="schema"):
            store.load(f"f{index}" * 8)


def test_cache_stats_with_a_boolean_tally_read_as_no_tallies(tmp_path):
    (tmp_path / "stats.json").write_text('{"hits": true, "misses": 2}',
                                         encoding="utf-8")
    assert StaticCache.persistent_stats(tmp_path) == {}
    StaticCache(directory=tmp_path).count_lookups(hits=1)
    assert StaticCache.persistent_stats(tmp_path) == {"hits": 1}


@pytest.mark.parametrize("content", ["[]", "1", '"x"', "null"])
@pytest.mark.parametrize("name", sorted(PORTED))
def test_non_object_file_is_skipped_not_fatal(tmp_path, name, content):
    make, save, _, listing = PORTED[name]
    store = make(tmp_path)
    key = save(store)
    (store.directory / "0bad.json").write_text(content, encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        assert len(listing(store)) == 1
    assert [n for n, _ in store.skipped] == ["0bad.json"]
    with pytest.raises(StoreError):
        store.load("0bad")
    store.load(key)  # the good entry still loads


def test_journal_in_flight_survives_a_non_object_entry(tmp_path):
    journal = JobJournal(tmp_path)
    job_id = _save_job(journal)
    (tmp_path / "cafe.json").write_text("[]", encoding="utf-8")
    with pytest.warns(RuntimeWarning):
        assert [job.job_id for job in journal.in_flight()] == [job_id]


def test_corrupt_explanation_does_not_break_id_lookup(tmp_path):
    store = ExplanationStore(tmp_path)
    explanation = CoverageExplanation(source_run_id="a" * 16)
    store.save(explanation)
    (store.directory / ("b" * 16 + ".json")).write_text(
        "{ torn", encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        loaded = store.load(explanation.explanation_id[:8])
    assert loaded.to_json() == explanation.to_json()
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        stored = load_explanations(tmp_path)
    assert [e.explanation_id for e in stored] == [explanation.explanation_id]


def test_cache_stats_count_only_model_entries(tmp_path):
    cache = StaticCache(directory=tmp_path)
    cache.store_notes("usage-study", {"a" * 64: "plain"})
    (tmp_path / ".tmp-inflight.json").write_text("{", encoding="utf-8")
    stats = cache.stats()
    assert stats["disk_entries"] == 0
    assert stats["disk_bytes"] == 0
    cache._disk.put("c" * 64, json.dumps({"schema": CACHE_SCHEMA}))
    stats = cache.stats()
    assert stats["disk_entries"] == 1
    assert stats["disk_bytes"] == cache._entry_path("c" * 64).stat().st_size
    assert StaticCache(directory=tmp_path).clear() == 1
    assert cache.load_notes("usage-study") == {"a" * 64: "plain"}  # memory
    assert StaticCache(directory=tmp_path).load_notes("usage-study") == {}


def test_cache_tolerates_non_object_stats_and_notes(tmp_path):
    (tmp_path / "stats.json").write_text("[]", encoding="utf-8")
    (tmp_path / "notes-usage-study.json").write_text("7", encoding="utf-8")
    cache = StaticCache(directory=tmp_path)
    assert cache.load_notes("usage-study") == {}
    assert StaticCache.persistent_stats(tmp_path) == {}
    assert cache.lookup("d" * 64) is None
    assert StaticCache.persistent_stats(tmp_path) == {"misses": 1}


def test_read_document_rejects_non_objects(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('["not", "a", "record"]', encoding="utf-8")
    with pytest.raises(StoreError):
        read_document(path)
    with pytest.raises(FileNotFoundError):
        read_document(tmp_path / "absent.json")
