"""The pipeline emits the promised spans and counters when traced —
and nothing at all when not."""

import pytest

from repro import Device, FragDroid, FragDroidConfig, build_apk
from repro.core.explorer import _Run
from repro.core.artifacts import save_artifacts
from repro.core.report import result_to_dict
from repro.corpus import build_table1_app, demo_tabbed_app
from repro.obs import EventLog, Tracer
from repro.obs.events import event_census


def _traced_result(app_spec, **config_kwargs):
    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer, **config_kwargs)
    result = FragDroid(Device(), config).explore(build_apk(app_spec))
    return result, tracer


def test_explore_emits_phase_spans():
    result, _ = _traced_result(demo_tabbed_app())
    names = {s.name for s in result.spans}
    # Static extraction, per-algorithm spans.
    assert {"static.extract", "static.decode", "static.algorithm1.aftm",
            "static.algorithm2.dependency",
            "static.algorithm3.resource_dep"} <= names
    assert "explore" in names
    # Items and Cases 1-3 are timed by the run record, not by spans.
    assert not {n for n in names if n.startswith("explorer.")}


def _termination(result):
    (end,) = [e for e in result.events if e.kind == "run.end"]
    return end.attributes["termination"]


def test_termination_reason_recorded():
    result, _ = _traced_result(demo_tabbed_app())
    assert _termination(result) == "queue-drained"

    starved, _ = _traced_result(demo_tabbed_app(), max_events=3)
    assert _termination(starved) == "budget-exhausted"


def test_counters_cover_the_event_taxonomy():
    result, tracer = _traced_result(
        build_table1_app("com.advancedprocessmanager")
    )
    counters = tracer.metrics.counters()
    assert counters["clicks"] > 0
    assert counters["events.injected"] == result.stats.events
    assert counters["reflection.switches"] > 0
    assert counters["adb.installs"] >= 1
    assert tracer.metrics.histogram_stats("queue.depth").count > 0
    assert result.metrics["counters"] == counters


def test_an_exploration_that_raises_still_counts_its_record(monkeypatch):
    # The record-derived counters are added as the exploration ends,
    # even when it ends in an exception: they count what the record
    # holds at that point.
    def boom(run):
        raise RuntimeError("device lost")

    monkeypatch.setattr(_Run, "enqueue_forced_starts", boom)
    tracer, log = Tracer(), EventLog()
    config = FragDroidConfig(tracer=tracer, event_log=log)
    with pytest.raises(RuntimeError):
        FragDroid(Device(), config).explore(
            build_apk(build_table1_app("com.advancedprocessmanager")))
    census = event_census(log.events())
    counters = tracer.metrics.counters()
    assert census["widget.clicked"] > 0
    assert counters["clicks"] == census["widget.clicked"]
    assert counters["reflection.switches"] == census["reflection.switch"]
    assert "events.injected" not in counters


def test_spans_nest_static_under_explore():
    result, _ = _traced_result(demo_tabbed_app())
    by_id = {s.span_id: s for s in result.spans}
    (root,) = [s for s in result.spans if s.name == "explore"]
    (static,) = [s for s in result.spans if s.name == "static.extract"]
    assert static.parent_id == root.span_id
    (decode,) = [s for s in result.spans if s.name == "static.decode"]
    assert by_id[decode.parent_id] is static


def _run_page(result, directory):
    """The run page (``report.html``) of the saved run."""
    save_artifacts(result, directory)
    return (directory / "report.html").read_text(encoding="utf-8")


def test_untraced_run_keeps_reports_byte_identical(tmp_path):
    apk = build_apk(demo_tabbed_app())
    plain = FragDroid(Device()).explore(apk)
    assert plain.spans == [] and plain.metrics == {}
    report = result_to_dict(plain)
    assert "timing" not in report and "metrics" not in report
    html = _run_page(plain, tmp_path)
    assert "Phase timing" not in html
    assert "Per-phase self time" not in html


def test_traced_run_renders_timing_tables(tmp_path):
    result, _ = _traced_result(demo_tabbed_app())
    # The time is in the spans the run directory keeps, not the report.
    assert "timing" not in result_to_dict(result)
    html = _run_page(result, tmp_path)
    assert (tmp_path / "spans.jsonl").is_file()
    assert html.count("Phase timing") == 1
    assert "Per-phase self time" in html
    assert "<th class=num>p99 self (ms)</th>" in html
    assert "<td>static.extract</td>" in html


def test_parallel_sweep_produces_disjoint_traces():
    from repro.bench.parallel import explore_many
    from repro.corpus.table1_apps import plan_for

    tracer = Tracer()
    config = FragDroidConfig(tracer=tracer)
    plans = [plan_for("org.rbc.odb"), plan_for("com.happy2.bbmanga")]
    outcomes = explore_many(plans, config=config, max_workers=2)
    for package, outcome in outcomes.items():
        result = outcome.unwrap()
        assert result.spans, package
        # Every span the result carries belongs to this app alone.
        apps = {s.attributes.get("app") for s in result.spans
                if "app" in s.attributes}
        assert apps == {package}
    assert tracer.metrics.counter("sweep.apps") == 2


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_run_record_times_every_item(backend):
    # Per-item time is the gap between consecutive item.start walls,
    # the last item closed by run.end; no explorer span restates it.
    from repro.bench.parallel import explore_many
    from repro.corpus.table1_apps import plan_for

    config = FragDroidConfig(tracer=Tracer())
    plans = [plan_for("com.advancedprocessmanager"), plan_for("org.rbc.odb")]
    outcomes = explore_many(plans, config=config, max_workers=2,
                            backend=backend)
    for package, outcome in outcomes.items():
        result = outcome.unwrap()
        walls = [event.wall for event in result.events]
        assert walls == sorted(walls), package
        starts = [e for e in result.events if e.kind == "item.start"]
        assert len(starts) == len(result.test_cases), package
        (end,) = [e for e in result.events if e.kind == "run.end"]
        (root,) = [s for s in result.spans if s.name == "explore"]
        assert end.wall - starts[0].wall <= root.duration, package
