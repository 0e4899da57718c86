"""Malformed JSONL records: ``read_events``/``read_spans`` load them or
raise StoreError.

Every saved run directory holds an ``events.jsonl`` that ``repro
explain`` and ``repro dashboard`` read back, so a damaged line must
surface as a typed error naming the file and line, never as a bare
``KeyError``, ``TypeError`` or ``ValueError`` from deep inside a parser.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ReproError, StoreError
from repro.obs import read_events, read_spans

EVENT = {"seq": 1, "kind": "transition", "step": 3, "app": "com.a",
         "wall": 0.5, "attributes": {"widget": "btn"}}
SPAN = {"name": "explore", "span_id": 1, "trace_id": 1, "parent_id": None,
        "depth": 0, "start": 0.0, "duration": 0.1, "attributes": {}}


def _write(tmp_path, *lines: str):
    path = tmp_path / "record.jsonl"
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("line, reason", [
    (json.dumps({k: v for k, v in EVENT.items() if k != "seq"}),
     "lacks 'seq'"),
    (json.dumps([EVENT]), "event: expected object, found list"),
    (json.dumps({**EVENT, "attributes": [1]}), "attributes"),
    (json.dumps({**EVENT, "step": "x"}),
     "event.step: expected int, found str"),
    (json.dumps({**EVENT, "seq": None}),
     "event.seq: expected int, found NoneType"),
    ("{not json", "malformed JSON in event file"),
])
def test_malformed_event_line_names_file_and_line(tmp_path, line, reason):
    path = _write(tmp_path, json.dumps(EVENT), line)
    with pytest.raises(StoreError) as excinfo:
        read_events(path)
    message = str(excinfo.value)
    assert f"{path}:2:" in message
    assert reason in message
    assert isinstance(excinfo.value, ReproError)
    assert isinstance(excinfo.value, ValueError)


def test_malformed_span_line_is_a_store_error(tmp_path):
    path = _write(tmp_path, json.dumps({**SPAN, "span_id": {}}))
    with pytest.raises(StoreError, match=":1: span.span_id: expected int"):
        read_spans(path)


def test_non_utf8_file_is_a_store_error(tmp_path):
    path = tmp_path / "record.jsonl"
    path.write_bytes(b'{"seq": 1, "kind": "\xff"}\n')
    with pytest.raises(StoreError, match="not UTF-8"):
        read_events(path)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _load_or_store_error(reader, path) -> None:
    try:
        reader(path)
    except StoreError:
        pass


@FUZZ
@given(value=_json)
def test_any_json_value_loads_or_raises_store_error(tmp_path, value):
    path = _write(tmp_path, json.dumps(value))
    _load_or_store_error(read_events, path)
    _load_or_store_error(read_spans, path)


@FUZZ
@given(field=st.sampled_from(sorted(set(EVENT) | set(SPAN))),
       value=_json, drop=st.booleans())
def test_one_damaged_field_loads_or_raises_store_error(tmp_path, field,
                                                       value, drop):
    for reader, record in ((read_events, EVENT), (read_spans, SPAN)):
        damaged = dict(record)
        if drop:
            damaged.pop(field, None)
        else:
            damaged[field] = value
        _load_or_store_error(reader, _write(tmp_path, json.dumps(damaged)))


@FUZZ
@given(text=st.text(max_size=64))
def test_any_text_line_loads_or_raises_store_error(tmp_path, text):
    path = _write(tmp_path, text.replace("\r", " ").replace("\n", " "))
    _load_or_store_error(read_events, path)
    _load_or_store_error(read_spans, path)
