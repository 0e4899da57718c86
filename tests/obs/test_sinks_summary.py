"""JSONL sink round-trip and the per-phase aggregates."""

import io

import pytest

from repro.obs import (
    JsonlSink,
    Span,
    Tracer,
    aggregate_spans,
    read_spans,
)


def _trace_some(tracer):
    with tracer.span("outer", app="com.example"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass


def test_jsonl_round_trip_via_file(tmp_path):
    path = tmp_path / "run.jsonl"
    sink = JsonlSink(path)
    tracer = Tracer(sinks=[sink])
    _trace_some(tracer)
    tracer.close()

    loaded = read_spans(path)
    original = tracer.finished_spans()
    assert len(loaded) == len(original) == 3
    for got, want in zip(loaded, original):
        assert got.name == want.name
        assert got.span_id == want.span_id
        assert got.trace_id == want.trace_id
        assert got.parent_id == want.parent_id
        assert got.depth == want.depth
        assert got.duration == want.duration
        assert got.attributes == want.attributes


def test_jsonl_sink_accepts_open_handles():
    handle = io.StringIO()
    sink = JsonlSink(handle)
    tracer = Tracer(sinks=[sink])
    _trace_some(tracer)
    sink.close()  # flushes but must not close a borrowed handle
    handle.seek(0)
    spans = read_spans(handle)
    assert [s.name for s in spans] == ["inner", "inner", "outer"]


def test_jsonl_sink_flushes_every_line(tmp_path):
    # Regression: spans used to sit in the file buffer until close(),
    # so a crashed run lost its tail. Each line must hit disk at emit.
    path = tmp_path / "run.jsonl"
    tracer = Tracer(sinks=[JsonlSink(path)])
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        # "inner" finished -> its line must already be on disk, with
        # the sink still open.
        assert [s.name for s in read_spans(path)] == ["inner"]
    assert len(read_spans(path)) == 2
    tracer.close()


def test_read_spans_reports_file_and_line_on_malformed_json(tmp_path):
    path = tmp_path / "broken.jsonl"
    good = '{"name": "a", "span_id": 1, "trace_id": 1, "parent_id": null, ' \
           '"depth": 0, "start": 0.0, "duration": 0.1, "attributes": {}}'
    path.write_text(good + "\n{not json\n")
    with pytest.raises(ValueError) as excinfo:
        read_spans(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert ":2:" in message  # 1-based line number of the bad line
    assert "malformed JSON in span file" in message


def test_read_spans_skips_blank_lines(tmp_path):
    path = tmp_path / "gappy.jsonl"
    line = '{"name": "a", "span_id": 1, "trace_id": 1, "parent_id": null, ' \
           '"depth": 0, "start": 0.0, "duration": 0.1, "attributes": {}}'
    path.write_text("\n" + line + "\n\n")
    assert [s.name for s in read_spans(path)] == ["a"]


def _span(name, duration, **attrs):
    return Span(name=name, span_id=1, trace_id=1, parent_id=None,
                depth=0, start=0.0, duration=duration, attributes=attrs)


def test_aggregate_spans_groups_by_name():
    spans = [_span("a", 0.2), _span("a", 0.4), _span("b", 0.1)]
    stats = {s.name: s for s in aggregate_spans(spans)}
    assert stats["a"].count == 2
    assert abs(stats["a"].total - 0.6) < 1e-9
    assert abs(stats["a"].mean - 0.3) < 1e-9
    assert stats["a"].maximum == 0.4
    assert stats["b"].count == 1
    # Sorted by total descending.
    assert [s.name for s in aggregate_spans(spans)] == ["a", "b"]
