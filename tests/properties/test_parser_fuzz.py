"""Fuzzed text boundaries: journal entries and replay scripts.

Each parser either returns its object or raises a typed ``ReproError``
— never a bare ``TypeError``/``ValueError`` from deep inside.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, StoreError
from repro.core.queue import click_op
from repro.rnr import ReplayScript
from repro.serve import JOB_SCHEMA, Job, JobJournal

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
    {"schema": "two"},
    [_JOB],
], ids=["apps-number", "completed-row-number", "attempts-text",
        "completed-list", "trace-id-inf", "schema-text", "list"])
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
