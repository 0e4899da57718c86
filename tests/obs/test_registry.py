"""The longitudinal run registry (repro.obs.registry)."""

import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import FragDroidConfig
from repro.bench.parallel import explore_many
from repro.corpus.table1_apps import plan_for
from repro.errors import ReproError, StoreError
from repro.obs import RunRecord, RunRegistry, Tracer, capture_run_record
from repro.obs.registry import (
    PIN_FILE,
    RECORD_SCHEMA,
    config_fingerprint,
    corpus_digest_of,
    coverage_from_rows,
    default_registry_dir,
)


def make_record(label="run", created=1.0, **overrides):
    record = RunRecord(
        label=label,
        coverage={"mean_activity_rate": 0.7, "apis": 100.0},
        meta={"created": created},
        **overrides,
    )
    record.run_id = record.compute_id()
    return record


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def test_run_id_is_content_addressed():
    a = make_record(created=1.0)
    b = make_record(created=999.0)  # meta is outside the hash
    assert a.run_id == b.run_id
    c = make_record(label="other")
    assert c.run_id != a.run_id
    assert len(a.run_id) == 16
    int(a.run_id, 16)  # hex


def test_record_roundtrips_through_json():
    record = make_record()
    record.phases = {"explore": {"count": 3, "self_total_s": 1.5,
                                 "self_p50_ms": 1.0, "self_p90_ms": 2.0,
                                 "self_p99_ms": 3.0}}
    record.run_id = record.compute_id()
    again = RunRecord.from_dict(json.loads(record.to_json()))
    assert again.to_dict() == record.to_dict()
    assert again.compute_id() == record.run_id


def test_from_dict_rejects_foreign_schema():
    data = make_record().to_dict()
    data["schema"] = RECORD_SCHEMA + 1
    with pytest.raises(ValueError, match="schema"):
        RunRecord.from_dict(data)


@pytest.mark.parametrize("data", [
    None,
    [make_record().to_dict()],
    {"schema": "one"},
    {"schema": float("inf")},
    {"schema": RECORD_SCHEMA, "apps": 5},
    {"schema": RECORD_SCHEMA, "apps": ["row"]},
    {"schema": RECORD_SCHEMA, "config": 7},
    {"schema": RECORD_SCHEMA, "meta": "created"},
    {"schema": RECORD_SCHEMA, "coverage": [["apis", 3]]},
    {"schema": RECORD_SCHEMA, "label": 7},
], ids=["null", "list", "schema-text", "schema-inf", "apps-number",
        "apps-row-text", "config-number", "meta-text", "coverage-pairs",
        "label-number"])
def test_from_dict_rejects_malformed_records_with_store_error(data):
    with pytest.raises(StoreError):
        RunRecord.from_dict(data)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

FUZZ = settings(max_examples=200, deadline=None)


def _load_or_repro_error(data) -> None:
    try:
        RunRecord.from_dict(data)
    except ReproError:
        pass


@FUZZ
@given(value=_json)
def test_from_dict_of_any_json_value_loads_or_raises_repro_error(value):
    _load_or_repro_error(value)


@FUZZ
@given(field=st.sampled_from(sorted(make_record().to_dict())),
       value=_json, drop=st.booleans())
def test_from_dict_of_a_damaged_field_loads_or_raises_repro_error(
        field, value, drop):
    data = make_record().to_dict()
    if drop:
        data.pop(field)
    else:
        data[field] = value
    _load_or_repro_error(data)


def test_corpus_digest_is_order_independent_and_content_sensitive():
    digest = corpus_digest_of({"a": "x", "b": "y"})
    assert digest == corpus_digest_of({"b": "y", "a": "x"})
    assert digest != corpus_digest_of({"a": "x", "b": "z"})
    # An app that failed before its APK digest existed still counts.
    assert corpus_digest_of({"a": None}) != corpus_digest_of({})


def test_default_registry_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("FRAGDROID_RUNS_DIR", str(tmp_path / "runs"))
    assert default_registry_dir() == tmp_path / "runs"
    monkeypatch.delenv("FRAGDROID_RUNS_DIR")
    assert default_registry_dir().name == "runs"


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------

def test_coverage_from_rows_counts_failures_but_not_their_coverage():
    rows = [
        {"package": "a", "ok": True, "activities_visited": 3,
         "activities_sum": 4, "fragments_visited": 1, "fragments_sum": 2,
         "apis": 5, "events": 10, "crashes": 0},
        {"package": "b", "ok": False, "activities_visited": 9,
         "activities_sum": 9},
    ]
    coverage = coverage_from_rows(rows)
    assert coverage["apps_total"] == 2
    assert coverage["apps_ok"] == 1
    assert coverage["activities_visited"] == 3
    assert coverage["mean_activity_rate"] == 0.75
    assert coverage["mean_fragment_rate"] == 0.5


def test_config_fingerprint_covers_semantics_not_vehicles():
    fingerprint = config_fingerprint(FragDroidConfig())
    assert fingerprint["enable_reflection"] is True
    assert fingerprint["max_events"] == FragDroidConfig().max_events
    assert "tracer" not in fingerprint
    assert "run_registry" not in fingerprint
    with_inputs = config_fingerprint(
        FragDroidConfig(input_values={"user": "alice"}))
    assert "input_values_digest" in with_inputs
    assert "alice" not in json.dumps(with_inputs)
    assert config_fingerprint(None) == {}


def test_capture_run_record_with_tracer_records_phases_and_counters():
    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer)
    plans = [plan_for("org.rbc.odb")]
    apps = [{"package": "org.rbc.odb", "ok": True,
             "activities_visited": 4, "activities_sum": 5,
             "fragments_visited": 2, "fragments_sum": 3,
             "apis": 7, "events": 40, "crashes": 0}]
    explore_many(plans, config=config, max_workers=1)
    record = capture_run_record("sweep", config=config, apps=apps,
                                meta={"backend": "thread"})
    assert record.counters["sweep.apps"] == 1
    assert "sweep.app" in record.phases
    stats = record.phases["sweep.app"]
    assert stats["count"] == 1
    assert stats["self_total_s"] > 0
    assert stats["self_p50_ms"] <= stats["self_p90_ms"] <= stats["self_p99_ms"]
    assert record.coverage["mean_activity_rate"] == 0.8
    assert record.meta["backend"] == "thread"
    assert record.meta["created"] > 0
    assert record.run_id == record.compute_id()


def test_capture_run_record_unobserved_config_stays_lean():
    record = capture_run_record("sweep", config=FragDroidConfig(),
                                apps=[{"package": "a", "ok": True}])
    assert record.counters == {}
    assert record.phases == {}
    assert record.timeline == {}


def test_explore_many_auto_records_into_the_registry(tmp_path):
    registry = RunRegistry(tmp_path)
    config = FragDroidConfig(run_registry=registry)
    plans = [plan_for(p) for p in ("org.rbc.odb", "com.happy2.bbmanga")]
    explore_many(plans, config=config, max_workers=2, backend="thread")
    records = registry.list()
    assert len(records) == 1
    record = records[0]
    assert record.label == "sweep"
    assert [row["package"] for row in record.apps] == [
        "com.happy2.bbmanga", "org.rbc.odb"]
    assert record.corpus_digest
    assert record.meta["backend"] == "thread"
    # The same sweep again appends a second record (per-app durations
    # differ run to run) whose measurements agree with the first.
    explore_many(plans, config=config, max_workers=2, backend="thread")
    first, second = registry.list()
    assert second.coverage == first.coverage
    assert second.corpus_digest == first.corpus_digest


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

def test_record_load_and_prefix_lookup(tmp_path):
    registry = RunRegistry(tmp_path)
    record = make_record()
    run_id = registry.record(record)
    assert registry.load(run_id).to_dict() == record.to_dict()
    assert registry.load(run_id[:6]).run_id == run_id
    with pytest.raises(KeyError, match="no run record"):
        registry.load("0" * 16)


def test_ambiguous_prefix_raises(tmp_path):
    registry = RunRegistry(tmp_path)
    a = registry.record(make_record(label="a"))
    b = registry.record(make_record(label="b"))
    common = ""  # the empty prefix matches both
    with pytest.raises(KeyError, match="ambiguous"):
        registry.load(common)
    assert sorted(registry.ids()) == sorted([a, b])


def test_corrupt_and_truncated_records_skip_with_warning(tmp_path):
    registry = RunRegistry(tmp_path)
    good = registry.record(make_record())
    (tmp_path / "deadbeef00000000.json").write_text("{not json",
                                                    encoding="utf-8")
    (tmp_path / "cafecafe00000000.json").write_text("", encoding="utf-8")
    foreign = make_record(label="future").to_dict()
    foreign["schema"] = RECORD_SCHEMA + 7
    (tmp_path / "feedface00000000.json").write_text(json.dumps(foreign),
                                                    encoding="utf-8")
    with pytest.warns(RuntimeWarning, match="skipping unreadable"):
        records = registry.list()
    assert [r.run_id for r in records] == [good]
    assert sorted(name for name, _ in registry.skipped) == [
        "cafecafe00000000.json", "deadbeef00000000.json",
        "feedface00000000.json"]


def test_concurrent_record_is_atomic(tmp_path):
    registry = RunRegistry(tmp_path)
    records = [make_record(label=f"run-{i}", created=float(i))
               for i in range(8)]

    def hammer(record):
        for _ in range(10):
            RunRegistry(tmp_path).record(record)

    threads = [threading.Thread(target=hammer, args=(r,)) for r in records]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    loaded = registry.list()  # would warn on any torn write
    assert {r.run_id for r in loaded} == {r.run_id for r in records}
    assert registry.skipped == []
    assert not list(tmp_path.glob(".tmp-*"))  # no temp-file litter


def test_latest_returns_newest_oldest_first(tmp_path):
    registry = RunRegistry(tmp_path)
    for i in range(4):
        registry.record(make_record(label=f"r{i}", created=float(i)))
    labels = [r.label for r in registry.latest(2)]
    assert labels == ["r2", "r3"]
    assert registry.latest(0) == []
    assert len(registry.latest(99)) == 4


def test_gc_keeps_newest_and_never_deletes_the_pinned_baseline(tmp_path):
    registry = RunRegistry(tmp_path)
    ids = [registry.record(make_record(label=f"r{i}", created=float(i)))
           for i in range(5)]
    registry.pin(ids[0])  # pin the *oldest* record
    assert registry.pinned() == ids[0]
    removed = registry.gc(keep=2)
    assert set(removed) == set(ids[1:3])
    survivors = set(registry.ids())
    assert ids[0] in survivors  # pinned survived despite its age
    assert set(ids[3:]) <= survivors
    # The pin marker never shows up as a record.
    assert (tmp_path / PIN_FILE).is_file()
    assert PIN_FILE not in {f"{i}.json" for i in survivors}
    with pytest.raises(ValueError):
        registry.gc(keep=-1)
    # keep=0 removes everything except the pin.
    registry.gc(keep=0)
    assert registry.ids() == [ids[0]]


def test_pin_accepts_prefixes_and_missing_ids_fail(tmp_path):
    registry = RunRegistry(tmp_path)
    run_id = registry.record(make_record())
    assert registry.pin(run_id[:8]) == run_id
    with pytest.raises(KeyError):
        registry.pin("0" * 16)
    assert RunRegistry(tmp_path / "absent").pinned() is None


# ---------------------------------------------------------------------------
# Bench ingestion
# ---------------------------------------------------------------------------

def test_ingest_bench_flattens_numeric_leaves(tmp_path):
    result = tmp_path / "chaos.json"
    result.write_text(json.dumps({
        "schema": 1,
        "bench": "chaos",
        "data": {
            "mild": {"apps_ok": 15, "mean_activity_rate": 0.7,
                     "label": "not-a-number", "flag": True},
            "seconds": 2.5,
        },
    }), encoding="utf-8")
    registry = RunRegistry(tmp_path / "runs")
    record = registry.ingest_bench(result)
    assert record.label == "bench:chaos"
    assert record.coverage == {"mild.apps_ok": 15.0,
                               "mild.mean_activity_rate": 0.7,
                               "seconds": 2.5}
    assert record.meta["source"] == "chaos.json"
    assert registry.load(record.run_id).label == "bench:chaos"


def test_ingest_bench_rejects_non_bench_files(tmp_path):
    bad = tmp_path / "other.json"
    bad.write_text(json.dumps({"numbers": [1, 2]}), encoding="utf-8")
    with pytest.raises(ValueError, match="bench result lacks 'data'"):
        RunRegistry(tmp_path / "runs").ingest_bench(bad)
