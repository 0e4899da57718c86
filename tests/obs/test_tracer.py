"""Spans: nesting, attributes, thread isolation, the null tracer."""

import threading

import pytest

from repro.obs import NULL_TRACER, InMemorySink, NullTracer, Tracer


def test_span_records_duration_and_attributes():
    tracer = Tracer()
    with tracer.span("phase", app="com.example") as span:
        span.set_attribute("items", 3)
    (finished,) = tracer.finished_spans()
    assert finished.name == "phase"
    assert finished.duration >= 0
    assert finished.attributes == {"app": "com.example", "items": 3}


def test_span_nesting_builds_parent_child_structure():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                pass
    spans = {s.name: s for s in tracer.finished_spans()}
    assert spans["outer"].parent_id is None
    assert spans["outer"].depth == 0
    assert spans["middle"].parent_id == outer.span_id
    assert spans["middle"].depth == 1
    assert spans["inner"].parent_id == middle.span_id
    assert spans["inner"].depth == 2
    # All three share the root's trace.
    assert {s.trace_id for s in spans.values()} == {outer.trace_id}
    assert inner.trace_id == outer.span_id
    # Children finish before parents, and nested durations are contained.
    order = [s.name for s in tracer.finished_spans()]
    assert order == ["inner", "middle", "outer"]
    assert spans["outer"].duration >= spans["middle"].duration


def test_sibling_spans_share_trace_but_not_parentage():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    spans = {s.name: s for s in tracer.finished_spans()}
    assert spans["a"].parent_id == root.span_id
    assert spans["b"].parent_id == root.span_id
    assert spans["a"].span_id != spans["b"].span_id
    assert tracer.spans_in_trace(root.trace_id) == tracer.finished_spans()


def test_exception_is_recorded_and_propagated():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (span,) = tracer.finished_spans()
    assert "boom" in span.attributes["error"]


def test_threads_get_independent_traces():
    tracer = Tracer()

    def work(name):
        with tracer.span(name):
            pass

    threads = [threading.Thread(target=work, args=(f"t{i}",))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.finished_spans()
    assert len(spans) == 4
    # Each thread's span is its own root: distinct traces, no parents.
    assert all(s.parent_id is None for s in spans)
    assert len({s.trace_id for s in spans}) == 4


def test_sinks_receive_finished_spans():
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink])
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert [s.name for s in sink.spans] == ["b", "a"]


def test_clear_resets_spans_and_metrics():
    tracer = Tracer()
    with tracer.span("x"):
        tracer.inc("n")
    tracer.clear()
    assert tracer.finished_spans() == []
    assert tracer.metrics.counter("n") == 0
    assert tracer.spans_in_trace(1) == []


def test_drop_trace_forgets_one_trace_and_keeps_the_rest():
    sink = InMemorySink()
    tracer = Tracer(sinks=[sink])
    for _ in range(3):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
    dropped = tracer.finished_spans()[1].trace_id
    tracer.drop_trace(dropped)
    tracer.drop_trace(dropped)  # a second drop is a no-op
    assert tracer.spans_in_trace(dropped) == []
    kept = [s for s in sink.spans if s.trace_id != dropped]
    assert tracer.finished_spans() == kept and len(kept) == 4
    assert len(sink.spans) == 6  # sinks keep what they were sent


def test_spans_in_trace_equals_a_scan_of_every_span():
    """The per-trace index answers what a scan of the finished spans
    would, over interleaved traces, explicit traces, retrospective spans
    and absorbed spans (remapped, or re-homed with into_trace)."""
    worker = Tracer()
    with worker.span("sweep.app"):
        with worker.span("explore"):
            pass
    with worker.span("other.root"):
        pass

    tracer = Tracer()
    with tracer.span("job.submit") as submit:
        pass
    job = submit.trace_id
    with tracer.span("unrelated"):
        tracer.record_span("queue.wait", 0.5, trace_id=job)
    with tracer.trace_span("job.run", job):
        with tracer.span("schedule.round"):
            pass
    tracer.absorb(worker.finished_spans(), into_trace=job)
    tracer.absorb(worker.finished_spans())
    tracer.record_span("queue.wait", 0.25)

    spans = tracer.finished_spans()
    traces = {span.trace_id for span in spans}
    assert len(traces) >= 4
    for trace in traces | {job + 1000}:
        assert tracer.spans_in_trace(trace) == [
            span for span in spans if span.trace_id == trace]
    assert len(tracer.spans_in_trace(job)) == 7


def test_subtree_is_one_root_and_its_descendants_in_recording_order():
    tracer = Tracer()
    with tracer.trace_span("app", 7) as first:
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("sibling"):
            pass
    with tracer.trace_span("app", 7) as second:
        with tracer.span("child"):
            pass
    tracer.record_span("queue.wait", 0.1, trace_id=7)
    assert [s.name for s in tracer.subtree(first)] \
        == ["grandchild", "child", "sibling", "app"]
    assert [s.name for s in tracer.subtree(second)] == ["child", "app"]
    assert tracer.subtree(second)[-1] is second
    assert len(tracer.spans_in_trace(7)) == 7


def test_a_tracer_pickles_empty():
    import pickle

    tracer = Tracer(sinks=[InMemorySink()])
    with tracer.span("kept.here"):
        tracer.inc("kept.here")
    copy = pickle.loads(pickle.dumps(tracer))
    assert type(copy) is Tracer and copy.enabled
    assert copy.sinks == [] and copy.finished_spans() == []
    assert copy.metrics.counters() == {}
    assert type(pickle.loads(pickle.dumps(NULL_TRACER))) is NullTracer


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("anything", app="x") as span:
        span.set_attribute("ignored", 1)
        tracer.inc("counter")
        tracer.observe("histogram", 5)
    assert tracer.finished_spans() == []
    assert tracer.metrics.counter("counter") == 0
    assert tracer.metrics.histogram("histogram") == ()
    assert not tracer.enabled


def test_null_tracer_is_reentrant_singleton():
    with NULL_TRACER.span("a") as outer:
        with NULL_TRACER.span("b") as inner:
            pass
    # One shared no-op span: no allocation per call.
    assert outer is inner
    assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
