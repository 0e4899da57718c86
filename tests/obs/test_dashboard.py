"""The HTML run dashboard: single-run and fleet rendering."""

import json
from html.parser import HTMLParser

import pytest

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.core.artifacts import save_artifacts
from repro.corpus import build_table1_app, table1_packages
from repro.errors import StoreError
from repro.obs import (
    EventLog,
    Tracer,
    coverage_timeline,
    load_run,
    render_dashboard,
    render_dashboard_dir,
)
from repro.obs.dashboard import fleet_rows, render_fleet_table

_VOID_TAGS = {"meta", "line", "circle", "path", "polyline", "polygon",
              "br", "hr", "img", "link", "input"}


class _WellFormedChecker(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        assert self.stack and self.stack[-1] == tag, \
            f"misnested </{tag}> over {self.stack[-5:]}"
        self.stack.pop()


def _assert_well_formed(html_text):
    checker = _WellFormedChecker()
    checker.feed(html_text)
    assert not checker.stack, f"unclosed tags: {checker.stack}"


def _recorded_run(tmp_path, package=None):
    package = package or table1_packages()[0]
    config = FragDroidConfig(tracer=Tracer(), event_log=EventLog())
    result = FragDroid(Device(), config).explore(
        build_apk(build_table1_app(package))
    )
    run_dir = tmp_path / package
    save_artifacts(result, run_dir)
    return result, run_dir


def test_dashboard_renders_recorded_run(tmp_path):
    result, run_dir = _recorded_run(tmp_path)
    html_text = render_dashboard(load_run(run_dir))
    _assert_well_formed(html_text)
    assert result.package in html_text
    assert "Coverage over time" in html_text
    assert "Phase timing" in html_text
    assert "Critical path" in html_text
    assert "prefers-color-scheme: dark" in html_text
    assert "<script" not in html_text  # self-contained, zero JS


def test_dashboard_checkpoint_table_matches_coverage_timeline(tmp_path):
    result, run_dir = _recorded_run(tmp_path)
    html_text = render_dashboard(load_run(run_dir))
    points = coverage_timeline(
        result.events, [inv.step for inv in result.api_invocations])
    for point in points:
        row = (f"<tr><td class=num>{point.step}</td>"
               f"<td class=num>{point.activities}</td>"
               f"<td class=num>{point.fragments}</td>"
               f"<td class=num>{point.fivas}</td>"
               f"<td class=num>{point.apis}</td></tr>")
        assert row in html_text
    assert f"({len(points)} points)" in html_text


def test_dashboard_without_event_log_degrades_gracefully(tmp_path):
    result = FragDroid(Device()).explore(
        build_apk(build_table1_app(table1_packages()[0]))
    )
    run_dir = tmp_path / "plain"
    save_artifacts(result, run_dir)
    # Run directories saved before every run kept its record lack the
    # file, and their manifest does not list it.
    (run_dir / "events.jsonl").unlink()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["files"].remove("events.jsonl")
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    html_text = render_dashboard_dir(run_dir)
    _assert_well_formed(html_text)
    assert "No run record (events.jsonl)" in html_text
    assert "explore --save" in html_text  # which always writes it


def test_run_page_timing_table_formats_report_timing(tmp_path):
    from repro.core.report import timing_to_dict
    from repro.obs import Span
    from repro.obs.dashboard import RunData

    spans = [Span("x", 1, 1, None, 0, 0.0, 0.5)]
    report = {"package": "com.a", "timing": timing_to_dict(spans)}
    html_text = render_dashboard(RunData(path=tmp_path, report=report))
    _assert_well_formed(html_text)
    assert ("<td>x</td><td class=num>1</td><td class=num>0.5000</td>"
            "<td class=num>500.00</td>") in html_text
    assert "Per-phase timing (1 spans)" in html_text


def test_fleet_dashboard_over_run_directories(tmp_path):
    packages = table1_packages()[:2]
    for package in packages:
        _recorded_run(tmp_path, package)
    html_text = render_dashboard_dir(tmp_path)
    _assert_well_formed(html_text)
    assert "fleet" in html_text
    assert "Per-app results (2 apps)" in html_text
    for package in packages:
        assert package in html_text


def test_fleet_table_renders_sweep_rows():
    from repro.bench.parallel import explore_many, sweep_rows
    from repro.corpus import TABLE1_PLANS

    outcomes = explore_many(TABLE1_PLANS[:2], max_workers=2)
    rows = sweep_rows(outcomes)
    assert [row["package"] for row in rows] == sorted(outcomes)
    assert all(row["ok"] for row in rows)
    assert all(row["duration_s"] > 0 for row in rows)
    html_text = render_fleet_table(rows)
    _assert_well_formed(html_text)
    for row in rows:
        assert row["package"] in html_text


def test_fleet_rows_carry_failures():
    from repro.bench.parallel import SweepOutcome, sweep_rows

    outcomes = {"com.dead": SweepOutcome(
        package="com.dead", error=RuntimeError("boom"),
        duration=0.5, fault_kind="crash",
    )}
    (row,) = sweep_rows(outcomes)
    assert row["ok"] is False
    assert row["fault_kind"] == "crash"
    assert "failed: crash" in render_fleet_table([row])


def test_dashboard_dir_rejects_non_run_directories(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_dashboard_dir(tmp_path / "absent")
    with pytest.raises(StoreError, match="no manifest.json"):
        render_dashboard_dir(tmp_path)


def test_trend_section_over_registry_records():
    from repro.obs import RunRecord, render_trend_section

    def record(rate, apis, created):
        r = RunRecord(label="sweep",
                      coverage={"mean_activity_rate": rate,
                                "mean_fragment_rate": rate - 0.1,
                                "apis": apis},
                      phases={"explore": {"count": 1,
                                          "self_total_s": 1.0}},
                      meta={"created": created})
        r.run_id = r.compute_id()
        return r

    records = [record(0.7, 100, 1.0), record(0.75, 110, 2.0),
               record(0.72, 120, 3.0)]
    html = render_trend_section(records)
    assert "Run trend (last 3 runs)" in html
    assert "Mean activity rate" in html
    assert "polyline" in html
    for r in records:
        assert r.run_id[:10] in html

    # Fewer than two records: a note, not a chart.
    assert "polyline" not in render_trend_section(records[:1])
    assert render_trend_section([]) != ""


# ---------------------------------------------------------------------------
# The service (job fleet) view
# ---------------------------------------------------------------------------

def _job(job_id, state="done", created=100.0, started=100.5,
         finished=102.0, **kwargs):
    from repro.serve import Job

    job = Job(job_id=job_id, apps=kwargs.pop("apps", ("com.a",)),
              created=created, started=started, finished=finished,
              state=state, **kwargs)
    return job


def test_service_rows_derive_latencies_from_the_lifecycle():
    from repro.obs import service_rows

    done = _job("aaa", trace_id=9)
    done.completed = {"com.a": {"ok": False, "error": "boom"}}
    done.attempts = {"com.a": 1}
    queued = _job("bbb", state="submitted", created=101.0,
                  started=0.0, finished=0.0)
    rows = service_rows([queued, done])  # sorted oldest-first
    assert [row["job_id"] for row in rows] == ["aaa", "bbb"]
    first, second = rows
    assert first["queue_wait_s"] == 0.5
    assert first["run_s"] == 1.5
    assert first["failed"] == 1
    assert first["worker_deaths"] == 1
    assert first["trace_id"] == 9
    assert second["queue_wait_s"] is None and second["run_s"] is None


def test_queue_depth_series_steps_through_arrivals_and_pickups():
    from repro.obs import queue_depth_series

    jobs = [
        _job("aaa", created=100.0, started=101.0, finished=103.0),
        _job("bbb", created=100.5, started=102.0, finished=104.0),
        # Cancelled before it started: leaves the queue at `finished`.
        _job("ccc", state="cancelled", created=100.5, started=0.0,
             finished=102.5),
    ]
    points = queue_depth_series(jobs)
    assert points[0] == (0.0, 1)
    assert (0.5, 3) in points  # two arrivals share one timestamp
    assert points[-1][1] == 0  # everyone left the queue
    assert max(depth for _, depth in points) == 3
    assert queue_depth_series([]) == []


def test_service_dashboard_renders_jobs_and_adversity(tmp_path):
    from repro.obs import render_service_dashboard

    healthy = _job("aaa", trace_id=3)
    healthy.completed = {"com.a": {"ok": True}}
    bruised = _job("bbb", created=100.2, started=101.0, finished=104.0)
    bruised.completed = {"com.a": {"ok": False, "error": "boom"}}
    bruised.attempts = {"com.a": 2}
    bruised.quarantined = ["com.a"]
    html = render_service_dashboard([healthy, bruised],
                                    tmp_path / "journal")
    _assert_well_formed(html)
    assert "Service fleet" in html
    assert "Queue depth over time" in html
    assert "Jobs (2)" in html
    assert "Adversity timeline" in html
    assert "aaa" in html and "bbb" in html
    assert "<script" not in html  # self-contained like the run view


def test_service_dashboard_without_jobs_is_an_empty_state(tmp_path):
    from repro.obs import render_service_section, render_service_dashboard

    assert "repro jobs submit" in render_service_section([])
    html = render_service_dashboard([], tmp_path / "journal")
    _assert_well_formed(html)


def test_adversity_timeline_annotates_registry_records():
    from repro.obs.dashboard import _adversity_timeline

    job = _job("aaa")
    job.attempts = {"com.a": 1}

    class FakeRecord:
        meta = {"job_id": "aaa",
                "degradation": {"worker_deaths": 1}}

    timeline = _adversity_timeline([job], [FakeRecord()])
    assert "aaa" in timeline and "yes" in timeline
    # A healthy fleet renders the empty state, not an empty table.
    assert "healthy" in _adversity_timeline([_job("bbb")], None)


def test_dashboard_threads_trend_history_through(tmp_path):
    from repro.obs import RunRecord

    _, run_dir = _recorded_run(tmp_path)
    history = []
    for i in range(2):
        r = RunRecord(label="sweep",
                      coverage={"mean_activity_rate": 0.6 + i / 10,
                                "apis": 50 + i},
                      meta={"created": float(i)})
        r.run_id = r.compute_id()
        history.append(r)
    html = render_dashboard(load_run(run_dir), history=history)
    _assert_well_formed(html)
    assert "Run trend (last 2 runs)" in html
