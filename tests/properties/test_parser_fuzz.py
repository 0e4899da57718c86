"""Fuzzed text boundaries: journal entries, replay scripts, serve
spill files, input-dependency files and bench results.

Each parser either returns its object or raises a typed ``ReproError``
— never a bare ``TypeError``/``ValueError`` from deep inside.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, StoreError
from repro.core.queue import click_op
from repro.obs.events import Event
from repro.obs.registry import record_from_bench
from repro.rnr import ReplayScript
from repro.serve import JOB_SCHEMA, EventBroker, Job, JobJournal
from repro.serve.stream import SPILL_SUFFIX
from repro.static.input_dep import InputDependency

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

FUZZ = settings(max_examples=200, deadline=None)

_JOB = Job(apps=["com.a", "com.b"], job_id="feedface0000",
           completed={"com.a": {"ok": True}}, attempts={"com.b": 1},
           workers=2).to_dict()
_SCRIPT = json.loads(ReplayScript(
    package="com.a",
    events=[click_op("ok")], steps=[1]).to_json())


@pytest.fixture(scope="module")
def journal_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("journal")


def _journal_entry_loads_or_raises_repro_error(directory, value) -> None:
    (directory / "feedface0000.json").write_text(json.dumps(value),
                                                 encoding="utf-8")
    try:
        JobJournal(directory).load("feedface0000")
    except ReproError:
        pass


def _script_loads_or_raises_repro_error(value) -> None:
    try:
        ReplayScript.from_json(json.dumps(value))
    except ReproError:
        pass


@pytest.mark.parametrize("entry", [
    {"schema": JOB_SCHEMA, "apps": 3},
    {"schema": JOB_SCHEMA, "completed": {"a": 1}},
    {"schema": JOB_SCHEMA, "attempts": {"a": "x"}},
    {"schema": JOB_SCHEMA, "completed": ["a"]},
    {"schema": JOB_SCHEMA, "trace_id": float("inf")},
    {"schema": JOB_SCHEMA, "apps": "abc"},
    {"schema": JOB_SCHEMA, "max_events": True},
    {"schema": "two"},
    [_JOB],
], ids=["apps-number", "completed-row-number", "attempts-text",
        "completed-list", "trace-id-inf", "apps-text", "max-events-bool",
        "schema-text", "list"])
def test_malformed_journal_entries_raise_store_error(tmp_path, entry):
    (tmp_path / "feedface0000.json").write_text(json.dumps(entry),
                                                encoding="utf-8")
    journal = JobJournal(tmp_path)
    with pytest.raises(StoreError):
        journal.load("feedface0000")
    with pytest.warns(RuntimeWarning, match="feedface0000"):
        assert journal.jobs() == []


@FUZZ
@given(value=_json)
def test_journal_entry_of_any_json_value_loads_or_raises_repro_error(
        journal_dir, value):
    _journal_entry_loads_or_raises_repro_error(journal_dir, value)


@FUZZ
@given(field=st.sampled_from(sorted(_JOB)), value=_json,
       drop=st.booleans())
def test_journal_entry_with_a_damaged_field_loads_or_raises_repro_error(
        journal_dir, field, value, drop):
    data = dict(_JOB)
    if drop:
        data.pop(field)
    else:
        data[field] = value
    _journal_entry_loads_or_raises_repro_error(journal_dir, data)


@FUZZ
@given(value=_json)
def test_replay_script_of_any_json_value_loads_or_raises_repro_error(value):
    _script_loads_or_raises_repro_error(value)


@FUZZ
@given(field=st.sampled_from(sorted(_SCRIPT)), value=_json,
       drop=st.booleans())
def test_replay_script_with_a_damaged_field_loads_or_raises_repro_error(
        field, value, drop):
    data = dict(_SCRIPT)
    if drop:
        data.pop(field)
    else:
        data[field] = value
    _script_loads_or_raises_repro_error(data)


# -- spill files, input files and bench results -----------------------------

_EVENT = Event(seq=1, kind="job.state", step=2, app="com.a", wall=0.5,
               attributes={"job": "feedface0000", "state": "done"}).to_dict()
_INPUT_FILE = json.loads(InputDependency(
    package="com.a", values={"user": "ann"},
    known_widgets=["user"]).to_json())
_BENCH_RESULT = {"schema": 1, "bench": "chaos",
                 "data": {"mild": {"apps_ok": 15}, "seconds": 2.5}}


def _damaged(document, field, value, drop):
    data = dict(document)
    if drop:
        data.pop(field)
    else:
        data[field] = value
    return data


def _spill_loads_or_raises_repro_error(directory, value) -> None:
    (directory / f"feedface0000{SPILL_SUFFIX}").write_text(
        json.dumps(value) + "\n", encoding="utf-8")
    try:
        EventBroker(directory).history("feedface0000")
    except ReproError:
        pass


def _input_file_loads_or_raises_repro_error(value) -> None:
    try:
        InputDependency.from_json(json.dumps(value))
    except ReproError:
        pass


def _bench_result_loads_or_raises_repro_error(directory, value) -> None:
    path = directory / "bench.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    try:
        record_from_bench(path)
    except ReproError:
        pass


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@FUZZ
@given(value=_json)
def test_spill_line_of_any_json_value_loads_or_raises_repro_error(
        scratch_dir, value):
    _spill_loads_or_raises_repro_error(scratch_dir, value)


@FUZZ
@given(field=st.sampled_from(sorted(_EVENT)), value=_json,
       drop=st.booleans())
def test_spill_line_with_a_damaged_field_loads_or_raises_repro_error(
        scratch_dir, field, value, drop):
    _spill_loads_or_raises_repro_error(
        scratch_dir, _damaged(_EVENT, field, value, drop))


@FUZZ
@given(value=_json)
def test_input_file_of_any_json_value_loads_or_raises_repro_error(value):
    _input_file_loads_or_raises_repro_error(value)


@FUZZ
@given(field=st.sampled_from(sorted(_INPUT_FILE)), value=_json,
       drop=st.booleans())
def test_input_file_with_a_damaged_field_loads_or_raises_repro_error(
        field, value, drop):
    _input_file_loads_or_raises_repro_error(
        _damaged(_INPUT_FILE, field, value, drop))


@FUZZ
@given(value=_json)
def test_bench_result_of_any_json_value_loads_or_raises_repro_error(
        scratch_dir, value):
    _bench_result_loads_or_raises_repro_error(scratch_dir, value)


@FUZZ
@given(field=st.sampled_from(sorted(_BENCH_RESULT)), value=_json,
       drop=st.booleans())
def test_bench_result_with_a_damaged_field_loads_or_raises_repro_error(
        scratch_dir, field, value, drop):
    _bench_result_loads_or_raises_repro_error(
        scratch_dir, _damaged(_BENCH_RESULT, field, value, drop))
