"""JSONL sink round-trip and the per-phase aggregates."""

import io

import pytest

from repro.obs import (
    JsonlSink,
    Span,
    Tracer,
    phase_stats,
    read_spans,
)
from repro.obs.flame import ranked_phases


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


def test_phase_stats_groups_by_name():
    spans = [Span("a", 1, 1, None, 0, 0.0, 0.2),
             Span("a", 2, 1, None, 0, 0.5, 0.4),
             Span("b", 3, 1, None, 0, 1.0, 0.1)]
    stats = phase_stats(spans)
    assert stats["a"]["count"] == 2
    assert abs(stats["a"]["self_total_s"] - 0.6) < 1e-9
    assert stats["a"]["self_p50_ms"] == 200.0
    assert stats["a"]["self_p90_ms"] == 400.0
    assert stats["a"]["self_p99_ms"] == 400.0
    assert stats["b"] == {"count": 1, "self_total_s": 0.1,
                          "self_p50_ms": 100.0, "self_p90_ms": 100.0,
                          "self_p99_ms": 100.0}
    # Ranked by p90 self time, highest first.
    assert [name for name, _ in ranked_phases(stats)] == ["a", "b"]
