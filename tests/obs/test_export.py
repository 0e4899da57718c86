"""Prometheus exposition."""

from repro.obs import Metrics, prometheus_text


def test_prometheus_text_counters_and_histograms():
    metrics = Metrics()
    metrics.inc("clicks", 3)
    metrics.inc("faults.adb-hang")
    metrics.observe("queue.depth", 2.0)
    metrics.observe("queue.depth", 4.0)
    text = prometheus_text(metrics)
    assert "# TYPE fragdroid_clicks_total counter" in text
    assert "fragdroid_clicks_total 3" in text
    # Names are sanitised to the Prometheus charset.
    assert "fragdroid_faults_adb_hang_total 1" in text
    assert "# TYPE fragdroid_queue_depth summary" in text
    assert 'fragdroid_queue_depth{quantile="0.5"} 2' in text
    assert 'fragdroid_queue_depth{quantile="0.9"} 4' in text
    assert 'fragdroid_queue_depth{quantile="0.99"} 4' in text
    assert "fragdroid_queue_depth_count 2" in text
    assert "fragdroid_queue_depth_sum 6" in text
    # min/max are separate gauges: a summary may only carry
    # quantile/sum/count samples.
    assert "# TYPE fragdroid_queue_depth_min gauge" in text
    assert "fragdroid_queue_depth_min 2" in text
    assert "fragdroid_queue_depth_max 4" in text
    assert text.endswith("\n")


def test_prometheus_text_tolerates_pre_quantile_snapshots():
    # Snapshots journaled before the quantile fields existed still
    # render — they just omit the quantile samples.
    old = {"counters": {}, "histograms": {
        "h": {"count": 2, "total": 6.0, "min": 2.0, "max": 4.0,
              "mean": 3.0}}}
    text = prometheus_text(old)
    assert "quantile=" not in text
    assert "fragdroid_h_sum 6" in text
    assert "fragdroid_h_count 2" in text


def test_prometheus_text_parses_line_by_line():
    """Every non-comment line must be `<name>[{labels}] <float>` — the
    pure-python exposition check the CI smoke job also runs."""
    import re

    metrics = Metrics()
    metrics.inc("serve.admitted", 2)
    metrics.observe("serve.queue.wait_s", 0.25)
    metrics.observe("serve.queue.wait_s", 0.75)
    sample = re.compile(
        r'^[a-zA-Z_][a-zA-Z0-9_]*(\{quantile="[0-9.]+"\})? '
        r"[-+0-9.e]+$")
    lines = prometheus_text(metrics).splitlines()
    assert lines
    for line in lines:
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in ("counter", "summary", "gauge"), line
            continue
        assert sample.match(line), line


def test_prometheus_text_accepts_snapshots_and_prefix():
    metrics = Metrics()
    metrics.inc("clicks")
    snapshot = metrics.snapshot()
    assert prometheus_text(snapshot, prefix="fd") == \
        "# TYPE fd_clicks_total counter\nfd_clicks_total 1\n"
    assert prometheus_text(Metrics()) == ""
