"""Counters and histograms."""

import threading

from repro.obs import NULL_METRICS, Metrics, percentile


def test_counter_accumulation():
    metrics = Metrics()
    metrics.inc("clicks")
    metrics.inc("clicks")
    metrics.inc("events.injected", 50)
    assert metrics.counter("clicks") == 2
    assert metrics.counter("events.injected") == 50
    assert metrics.counter("never-touched") == 0
    assert metrics.counters() == {"clicks": 2, "events.injected": 50}


def test_histogram_stats():
    metrics = Metrics()
    for depth in (1, 4, 7):
        metrics.observe("queue.depth", depth)
    stats = metrics.histogram_stats("queue.depth")
    assert stats.count == 3
    assert stats.minimum == 1
    assert stats.maximum == 7
    assert stats.mean == 4
    assert metrics.histogram("queue.depth") == (1, 4, 7)
    empty = metrics.histogram_stats("missing")
    assert empty.count == 0 and empty.mean == 0.0


def test_histogram_quantiles_use_nearest_rank():
    metrics = Metrics()
    for value in range(1, 101):  # 1..100
        metrics.observe("latency", float(value))
    stats = metrics.histogram_stats("latency")
    assert (stats.p50, stats.p90, stats.p99) == (50.0, 90.0, 99.0)
    payload = stats.to_dict()
    assert payload["p50"] == 50.0 and payload["p99"] == 99.0

    single = Metrics()
    single.observe("h", 7.0)
    lone = single.histogram_stats("h")
    assert (lone.p50, lone.p90, lone.p99) == (7.0, 7.0, 7.0)


def test_percentile_is_the_shared_quantile_definition():
    # The one definition metrics, summary and the exporters share.
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0  # unsorted input
    assert percentile([1.0, 2.0], 0.0) == 1.0


def test_snapshot_is_json_ready_and_detached():
    metrics = Metrics()
    metrics.inc("n", 2)
    metrics.observe("h", 3.0)
    snapshot = metrics.snapshot()
    metrics.inc("n")
    assert snapshot["counters"] == {"n": 2}
    assert snapshot["histograms"]["h"]["count"] == 1
    assert snapshot["histograms"]["h"]["mean"] == 3.0

    import json

    json.dumps(snapshot)  # must serialize cleanly


def test_thread_safety_under_contention():
    metrics = Metrics()

    def hammer():
        for _ in range(1000):
            metrics.inc("n")
            metrics.observe("h", 1)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert metrics.counter("n") == 4000
    assert metrics.histogram_stats("h").count == 4000


def test_render_lists_counters_and_histograms():
    metrics = Metrics()
    metrics.inc("clicks", 3)
    metrics.observe("queue.depth", 2)
    text = metrics.render()
    assert "clicks" in text
    assert "queue.depth" in text


def test_null_metrics_drop_everything():
    NULL_METRICS.inc("x", 100)
    NULL_METRICS.observe("y", 1.0)
    assert NULL_METRICS.counters() == {}
    assert not NULL_METRICS.enabled


def test_merge_empty_is_a_noop():
    metrics = Metrics()
    metrics.inc("n", 2)
    metrics.merge({}, {})
    assert metrics.counters() == {"n": 2}
    assert metrics.snapshot()["histograms"] == {}


def test_merge_accumulates_overlapping_names():
    metrics = Metrics()
    metrics.inc("n", 2)
    metrics.observe("h", 1.0)
    metrics.merge({"n": 3, "m": 1}, {"h": [2.0, 3.0], "g": [5]})
    assert metrics.counters() == {"n": 5, "m": 1}
    assert metrics.histogram("h") == (1.0, 2.0, 3.0)
    assert metrics.histogram("g") == (5,)


def test_merge_into_self_doubles():
    metrics = Metrics()
    metrics.inc("n", 2)
    metrics.observe("h", 1.0)
    metrics.merge(metrics.counters(),
                  {"h": list(metrics.histogram("h"))})
    assert metrics.counter("n") == 4
    assert metrics.histogram("h") == (1.0, 1.0)


def test_merge_skips_invalid_histogram_values():
    metrics = Metrics()
    metrics.merge({}, {"h": [1.0, float("nan"), "oops", True, 2.0]})
    assert metrics.histogram("h") == (1.0, 2.0)
    assert metrics.counter("metrics.merge.skipped") == 3
