"""The command-line interface."""

import json
import time

import pytest

from repro.cli import main
from tests.conftest import wait_until


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "demo:aftm" in out
    assert "com.inditex.zara" in out


def test_static_summary(capsys):
    code, out = run_cli(capsys, "static", "demo:aftm")
    assert code == 0
    assert "|A|=2 |F|=3" in out
    assert "[E3]" in out


def test_static_dot(capsys):
    code, out = run_cli(capsys, "static", "demo:aftm", "--dot")
    assert "digraph" in out


def test_static_json(capsys):
    code, out = run_cli(capsys, "static", "demo:aftm", "--json")
    data = json.loads(out)
    assert data["package"] == "com.example.aftm"


def test_explore_text(capsys):
    code, out = run_cli(capsys, "explore", "demo:tabs")
    assert code == 0
    assert "activities: 2/2" in out
    assert "fragments:  2/2" in out


def test_explore_json(capsys):
    code, out = run_cli(capsys, "explore", "demo:drawer", "--json")
    data = json.loads(out)
    assert data["coverage"]["fragments"]["sum"] == 2


def test_explore_flags(capsys):
    code, out = run_cli(capsys, "explore", "demo:drawer",
                        "--no-reflection", "--max-events", "500")
    assert code == 0


def test_audit(capsys):
    code, out = run_cli(capsys, "audit", "demo:tabs")
    assert code == 0
    assert "internet/Connectivity.getActiveNetworkInfo" in out


def test_unknown_app_exits(capsys):
    with pytest.raises(SystemExit):
        main(["explore", "com.not.an.app"])


def test_study(capsys):
    code, out = run_cli(capsys, "study")
    assert code == 0
    assert "217" in out and "91%" in out


def test_build_and_explore_apk_file(capsys, tmp_path):
    apk_path = str(tmp_path / "tabs.apk")
    code, out = run_cli(capsys, "build", "demo:tabs", "-o", apk_path)
    assert code == 0 and "wrote" in out
    code, out = run_cli(capsys, "explore", apk_path)
    assert code == 0
    assert "fragments:  2/2" in out


def test_explore_save_artifacts(capsys, tmp_path):
    out_dir = str(tmp_path / "run")
    code, out = run_cli(capsys, "explore", "demo:aftm", "--save", out_dir)
    assert code == 0 and "artifacts" in out
    import pathlib

    assert (pathlib.Path(out_dir) / "report.json").exists()


def test_target_command(capsys):
    code, out = run_cli(capsys, "target", "demo:tabs",
                        "internet/Connectivity.getActiveNetworkInfo")
    assert code == 0
    assert "fired" in out


def test_target_unobserved_api(capsys):
    code, out = run_cli(capsys, "target", "demo:tabs", "messages/MmsProvider")
    assert code == 1


def test_target_explores_the_run_explore_explores(capsys, tmp_path):
    from collections import Counter

    from repro.obs import read_events

    def fault_census(path):
        return Counter(event.attributes["fault"]
                       for event in read_events(path)
                       if event.kind == "fault.injected")

    explored, targeted = tmp_path / "explore.jsonl", tmp_path / "target.jsonl"
    run_cli(capsys, "explore", "demo:tabs", "--faults", "hostile",
            "--events-jsonl", str(explored))
    run_cli(capsys, "target", "demo:tabs", "phone/getDeviceId",
            "--faults", "hostile", "--events-jsonl", str(targeted))
    assert fault_census(explored)
    assert fault_census(targeted) == fault_census(explored)


def test_export_and_batch(capsys, tmp_path):
    import csv

    corpus_dir = tmp_path / "corpus"
    # Export two small apps only (build them directly to keep this fast).
    from repro.apk import build_apk
    from repro.apk.apkfile import save_apk
    from repro.corpus import build_table1_app, demo_tabbed_app

    save_apk(build_apk(demo_tabbed_app()), corpus_dir / "tabs.apk")
    save_apk(build_apk(build_table1_app("org.rbc.odb")),
             corpus_dir / "odb.apk")
    out_dir = tmp_path / "results"
    code, out = run_cli(capsys, "batch", str(corpus_dir),
                        "-o", str(out_dir), "--workers", "2")
    assert code == 0
    with (out_dir / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    by_package = {row["package"]: row for row in rows}
    assert by_package["org.rbc.odb"]["activities_visited"] == "4"
    assert by_package["com.example.wallpapers"]["fragments_visited"] == "2"
    assert (out_dir / "org.rbc.odb" / "report.json").exists()


def test_batch_writes_a_failed_row_for_a_broken_apk(capsys, tmp_path):
    """A non-zip .apk next to two good ones: the good apps' artifacts
    and rows are still written, the bad file gets a failed row keyed by
    its file name, and the command exits 1."""
    import csv

    from repro.apk import build_apk
    from repro.apk.apkfile import save_apk
    from repro.corpus import build_table1_app, demo_tabbed_app

    corpus_dir = tmp_path / "corpus"
    save_apk(build_apk(demo_tabbed_app()), corpus_dir / "tabs.apk")
    save_apk(build_apk(build_table1_app("org.rbc.odb")),
             corpus_dir / "odb.apk")
    (corpus_dir / "junk.apk").write_text("this is not a zip archive")
    out_dir = tmp_path / "results"
    code, out = run_cli(capsys, "batch", str(corpus_dir),
                        "-o", str(out_dir), "--workers", "2")
    assert code == 1
    assert "junk.apk" in out
    with (out_dir / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    by_package = {row["package"]: row for row in rows}
    assert by_package["junk.apk"]["error"].startswith("ApkError")
    assert by_package["junk.apk"]["activities_visited"] == ""
    assert by_package["org.rbc.odb"]["activities_visited"] == "4"
    assert by_package["org.rbc.odb"]["error"] == ""
    assert by_package["com.example.wallpapers"]["error"] == ""
    assert (out_dir / "org.rbc.odb" / "report.json").exists()
    assert (out_dir / "com.example.wallpapers" / "report.json").exists()


def test_batch_empty_directory(capsys, tmp_path):
    code, _ = run_cli(capsys, "batch", str(tmp_path), "-o",
                      str(tmp_path / "out"))
    assert code == 1


def test_explore_trace_jsonl_and_show(capsys, tmp_path):
    trace, run_dir = tmp_path / "run.jsonl", tmp_path / "run"
    code, out = run_cli(capsys, "explore", "demo:tabs",
                        "--trace-jsonl", str(trace), "--save", str(run_dir))
    assert code == 0
    assert "spans" in out
    assert trace.exists() and trace.read_text().strip()
    # --save keeps the same span stream as the run directory's copy.
    assert (run_dir / "spans.jsonl").read_text() == trace.read_text()

    code, out = run_cli(capsys, "show", str(run_dir), "--top", "100")
    assert code == 0
    assert "phases by p90 self time" in out
    assert "static.extract" in out
    assert "ui.snapshot" in out
    for header in ("== time ==", "== explorer ==", "== misses =="):
        assert header in out

    code, out = run_cli(capsys, "show", str(run_dir), "--top", "3")
    assert "top 3 phases by p90 self time" in out


def test_show_missing_ref_exits_2(capsys, tmp_path):
    code, out = run_cli(capsys, "show", str(tmp_path / "nope"),
                        "--dir", str(tmp_path / "runs"))
    assert code == 2
    assert "cannot load" in out and "nope" in out


def test_show_untraced_run_times_its_queue_items(capsys, tmp_path):
    run_dir = tmp_path / "plain"
    run_cli(capsys, "explore", "demo:tabs", "--save", str(run_dir))
    assert not (run_dir / "spans.jsonl").exists()
    code, out = run_cli(capsys, "show", str(run_dir))
    assert code == 0
    # One row per queue item: six items, each run once.
    assert "top 6 items by p90 self time" in out
    assert "termination: queue-drained" in out
    assert "unreached targets: 0" in out

    code, out = run_cli(capsys, "show", str(run_dir), "--flame")
    assert code == 1
    assert "holds no spans" in out


def test_show_flame(capsys, tmp_path):
    run_dir = tmp_path / "run"
    run_cli(capsys, "explore", "demo:tabs", "--save", str(run_dir),
            "--trace-jsonl", str(tmp_path / "run.jsonl"))
    code, out = run_cli(capsys, "show", str(run_dir), "--flame")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert any(line.startswith("explore ") for line in lines)
    assert any(";" in line for line in lines)
    # Per-trace self times telescope: the collapsed-stack values sum to
    # the root span's duration (in microseconds).
    from repro.obs import read_spans

    root_us = sum(s.duration for s in read_spans(run_dir / "spans.jsonl")
                  if s.parent_id is None) * 1e6
    total_us = sum(float(line.rsplit(" ", 1)[1]) for line in lines)
    assert abs(total_us - root_us) <= max(1e-6 * root_us, 1e-3)


def test_explore_events_jsonl_and_metrics_prom(capsys, tmp_path):
    events = tmp_path / "events.jsonl"
    prom = tmp_path / "metrics.prom"
    code, out = run_cli(capsys, "explore", "demo:tabs",
                        "--events-jsonl", str(events),
                        "--metrics-prom", str(prom))
    assert code == 0
    assert "events to" in out
    assert "metrics to" in out

    from repro.obs import read_events

    loaded = read_events(events)
    kinds = {event.kind for event in loaded}
    assert "run.start" in kinds and "run.end" in kinds
    assert "state.discovered" in kinds
    text = prom.read_text()
    assert "# TYPE fragdroid_clicks_total counter" in text


def test_dashboard_command_single_run_and_errors(capsys, tmp_path):
    run_dir = tmp_path / "run"
    events = tmp_path / "events.jsonl"
    run_cli(capsys, "explore", "demo:tabs",
            "--events-jsonl", str(events),
            "--trace-jsonl", str(tmp_path / "spans.jsonl"),
            "--save", str(run_dir))
    out_html = tmp_path / "dash.html"
    code, out = run_cli(capsys, "dashboard", str(run_dir),
                        "-o", str(out_html))
    assert code == 0
    assert "wrote dashboard" in out
    html_text = out_html.read_text()
    assert html_text.startswith("<!DOCTYPE html>")
    assert "Coverage over time" in html_text

    code, out = run_cli(capsys, "dashboard", str(tmp_path / "nowhere"),
                        "-o", str(out_html))
    assert code == 1
    assert "report.json" in out


def test_static_cache_flag_and_cache_commands(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, cold = run_cli(capsys, "explore", "demo:tabs",
                         "--static-cache", str(cache_dir))
    assert code == 0
    code, warm = run_cli(capsys, "explore", "demo:tabs",
                         "--static-cache", str(cache_dir))
    assert code == 0
    assert warm == cold

    code, out = run_cli(capsys, "cache", "stats", "--dir", str(cache_dir))
    assert code == 0
    assert "entries: 1" in out
    assert "lifetime hits: 1" in out

    code, out = run_cli(capsys, "cache", "clear", "--dir", str(cache_dir))
    assert code == 0
    assert "cleared 1 entries" in out
    code, out = run_cli(capsys, "cache", "stats", "--dir", str(cache_dir))
    assert "entries: 0" in out


def test_static_command_uses_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, cold = run_cli(capsys, "static", "demo:aftm",
                         "--static-cache", str(cache_dir))
    assert code == 0
    code, warm = run_cli(capsys, "static", "demo:aftm",
                         "--static-cache", str(cache_dir))
    assert code == 0
    assert warm == cold
    assert (cache_dir / "stats.json").exists()


def test_study_workers_and_backend_flags(capsys):
    code, serial = run_cli(capsys, "study")
    assert code == 0
    code, parallel = run_cli(capsys, "study", "--workers", "4",
                             "--backend", "process")
    assert code == 0
    assert parallel == serial


def _seed_registry(tmp_path, **overrides):
    from repro.obs import RunRecord, RunRegistry

    registry = RunRegistry(tmp_path)
    record = RunRecord(
        label=overrides.pop("label", "sweep"),
        coverage={"mean_activity_rate": 0.8, "mean_fragment_rate": 0.6,
                  "apis": 100, "apps_total": 2, "apps_ok": 2,
                  **overrides.pop("coverage", {})},
        meta={"created": overrides.pop("created", 1.0)},
        **overrides,
    )
    registry.record(record)
    return registry, record


def test_runs_list_show_and_pin(capsys, tmp_path):
    registry, record = _seed_registry(tmp_path)
    code, out = run_cli(capsys, "runs", "list", "--dir", str(tmp_path))
    assert code == 0
    assert record.run_id in out

    code, out = run_cli(capsys, "runs", "pin", record.run_id[:8],
                        "--dir", str(tmp_path))
    assert code == 0
    assert registry.pinned() == record.run_id
    code, out = run_cli(capsys, "runs", "list", "--dir", str(tmp_path))
    assert "pinned" in out

    code, out = run_cli(capsys, "runs", "show", record.run_id,
                        "--dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["run_id"] == record.run_id

    code, out = run_cli(capsys, "runs", "show", "missing",
                        "--dir", str(tmp_path))
    assert code == 1

    code, out = run_cli(capsys, "runs", "list", "--dir",
                        str(tmp_path / "empty"))
    assert code == 0
    assert "no run records" in out


def test_runs_diff_and_gc(capsys, tmp_path):
    registry, base = _seed_registry(tmp_path)
    _, cand = _seed_registry(tmp_path, label="candidate", created=2.0,
                             coverage={"mean_activity_rate": 0.5})
    code, out = run_cli(capsys, "runs", "diff", base.run_id, cand.run_id,
                        "--dir", str(tmp_path))
    assert code == 0
    assert "mean_activity_rate" in out

    code, out = run_cli(capsys, "runs", "diff", base.run_id, cand.run_id,
                        "--dir", str(tmp_path), "--json")
    assert json.loads(out)["comparable"] is True

    code, out = run_cli(capsys, "runs", "diff", base.run_id,
                        "--dir", str(tmp_path))
    assert code == 2  # diff needs exactly two refs

    run_cli(capsys, "runs", "pin", base.run_id, "--dir", str(tmp_path))
    code, out = run_cli(capsys, "runs", "gc", "--keep", "1",
                        "--dir", str(tmp_path))
    assert code == 0
    assert set(registry.ids()) == {base.run_id, cand.run_id}


def test_runs_ingest_bench_results(capsys, tmp_path):
    result = tmp_path / "bench.json"
    result.write_text(json.dumps({"schema": 1, "bench": "t1",
                                  "data": {"apps": 15, "rate": 0.7}}))
    runs_dir = tmp_path / "runs"
    code, out = run_cli(capsys, "runs", "ingest", str(result),
                        "--dir", str(runs_dir))
    assert code == 0
    assert "bench:t1" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, out = run_cli(capsys, "runs", "ingest", str(bad),
                        "--dir", str(runs_dir))
    assert code == 1
    assert "cannot ingest" in out


def test_regress_against_record_files(capsys, tmp_path):
    from repro.obs import RunRecord

    base = RunRecord(label="sweep",
                     coverage={"mean_activity_rate": 0.8, "apis": 100})
    base.run_id = base.compute_id()
    cand = RunRecord(label="sweep",
                     coverage={"mean_activity_rate": 0.5, "apis": 100})
    cand.run_id = cand.compute_id()
    base_file = tmp_path / "base.json"
    base_file.write_text(base.to_json())
    cand_file = tmp_path / "cand.json"
    cand_file.write_text(cand.to_json())

    code, out = run_cli(capsys, "regress", "--baseline", str(base_file),
                        "--candidate", str(cand_file),
                        "--dir", str(tmp_path / "runs"))
    assert code == 1
    assert "FAIL" in out and "mean_activity_rate" in out

    code, out = run_cli(capsys, "regress", "--baseline", str(base_file),
                        "--candidate", str(base_file),
                        "--dir", str(tmp_path / "runs"), "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out = run_cli(capsys, "regress", "--baseline", "nonexistent",
                        "--dir", str(tmp_path / "runs"))
    assert code == 2
    assert "cannot load baseline" in out

    # A baseline file of the wrong shape is a message, not a traceback.
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"schema": 1, "apps": 5}))
    code, out = run_cli(capsys, "regress", "--baseline", str(bad_file),
                        "--candidate", str(cand_file),
                        "--dir", str(tmp_path / "runs"))
    assert code == 2
    assert "cannot load baseline" in out
    assert "run record.apps: expected list" in out


def test_regress_runs_the_sweep_when_no_candidate_named(capsys, tmp_path):
    from repro.obs import RunRegistry

    runs_dir = tmp_path / "runs"
    # First sweep becomes the committed-style baseline record file.
    code, out = run_cli(capsys, "regress", "--baseline", "self",
                        "--dir", str(runs_dir),
                        "--ignore-comparability")
    assert code == 2  # baseline "self" doesn't exist yet
    registry = RunRegistry(runs_dir)

    from repro.bench import run_table1
    from repro.core.config import FragDroidConfig

    # Baseline recorded untraced: its record carries coverage but no
    # phases, so the gate below judges only the deterministic numbers.
    run_table1(config=FragDroidConfig(run_registry=registry),
               max_workers=2)
    (baseline,) = registry.list()
    out_file = tmp_path / "candidate.json"
    code, out = run_cli(capsys, "regress",
                        "--baseline", baseline.run_id,
                        "--dir", str(runs_dir), "--workers", "2",
                        "--record-out", str(out_file))
    assert code == 0
    assert "recorded candidate sweep" in out
    assert "PASS" in out
    assert json.loads(out_file.read_text())["label"] == "sweep"


@pytest.fixture
def saved_replay_run(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "explore", "demo:tabs",
                      "--save", str(out_dir), "--export-replay")
    assert code == 0
    scripts = sorted((out_dir / "testcases").glob("*.replay.json"))
    assert scripts
    return scripts


def test_export_replay_writes_scripts(saved_replay_run):
    text = saved_replay_run[0].read_text()
    data = json.loads(text)
    assert data["schema"] >= 2
    assert data["package"] == "com.example.wallpapers"
    assert data["events"]


def test_save_without_export_replay_writes_no_scripts(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, _ = run_cli(capsys, "explore", "demo:tabs", "--save",
                      str(out_dir))
    assert code == 0
    assert not list((out_dir / "testcases").glob("*.replay.json"))


def test_export_replay_requires_save(capsys):
    with pytest.raises(SystemExit, match="--save"):
        main(["explore", "demo:tabs", "--export-replay"])


def test_replay_divergence_free(capsys, saved_replay_run):
    code, out = run_cli(capsys, "replay", str(saved_replay_run[0]))
    assert code == 0
    assert "divergence-free" in out
    assert "coverage reached" in out


def test_replay_json_output(capsys, saved_replay_run):
    code, out = run_cli(capsys, "replay", str(saved_replay_run[0]),
                        "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["applied"] == data["total"]


def test_replay_against_wrong_app_diverges(capsys, saved_replay_run):
    code, out = run_cli(capsys, "replay", str(saved_replay_run[0]),
                        "--apk", "demo:drawer")
    assert code == 1
    assert "diverged" in out


def test_replay_malformed_script_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.replay.json"
    bad.write_text('{"schema": 999, "package": "x", "events": []}')
    code, out = run_cli(capsys, "replay", str(bad))
    assert code == 2
    assert "schema" in out
    bad.write_text("{not json")
    code, out = run_cli(capsys, "replay", str(bad))
    assert code == 2
    assert "not valid JSON" in out


def test_replay_missing_file_exits_2(capsys, tmp_path):
    code, out = run_cli(capsys, "replay", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in out


def test_replay_record_feeds_the_regress_gate(capsys, tmp_path,
                                              saved_replay_run):
    registry = str(tmp_path / "runs")
    code, out = run_cli(capsys, "replay", str(saved_replay_run[0]),
                        "--record", registry)
    assert code == 0 and "recorded replay as" in out
    clean_id = out.strip().rsplit(" ", 1)[-1]
    # A diverged replay (wrong app) records the divergence count.
    code, out = run_cli(capsys, "replay", str(saved_replay_run[0]),
                        "--apk", "demo:drawer", "--record", registry)
    assert code == 1
    diverged_id = out.strip().rsplit(" ", 1)[-1]
    # Gate: the diverged record fails even against itself-as-baseline.
    code, out = run_cli(capsys, "regress", "--baseline", clean_id,
                        "--candidate", diverged_id, "--dir", registry,
                        "--ignore-comparability")
    assert code == 1
    assert "replay" in out and "FAIL" in out
    # The clean record passes.
    code, out = run_cli(capsys, "regress", "--baseline", clean_id,
                        "--candidate", clean_id, "--dir", registry)
    assert code == 0 and "PASS" in out


def test_fragility_table(capsys):
    code, out = run_cli(capsys, "fragility", "demo:tabs", "--seed", "7")
    assert code == 0
    assert "unchanged" in out
    assert "rename-widget" in out
    assert "breakages:" in out


def test_fragility_json_and_determinism(capsys):
    code, first = run_cli(capsys, "fragility", "demo:tabs", "--seed",
                          "3", "--json")
    assert code == 0
    code, second = run_cli(capsys, "fragility", "demo:tabs", "--seed",
                           "3", "--json")
    assert first == second
    data = json.loads(first)
    assert data["control_ok"] is True
    assert data["seed"] == 3


def test_fragility_rejects_apk_files(capsys):
    with pytest.raises(SystemExit, match="spec"):
        main(["fragility", "something.apk"])


# ---------------------------------------------------------------------------
# The service commands
# ---------------------------------------------------------------------------

def test_jobs_cli_against_a_live_service(capsys, tmp_path, monkeypatch):
    from repro.serve import ReproServer

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    server.start()
    try:
        monkeypatch.setenv("FRAGDROID_SERVE_URL", server.url)
        code, out = run_cli(capsys, "jobs", "submit",
                            "com.serve.demo.alpha", "--max-events",
                            "200", "--wait")
        assert code == 0 and "done" in out
        code, out = run_cli(capsys, "jobs", "status")
        assert code == 0 and "done" in out
        job_id = out.split()[0]
        code, out = run_cli(capsys, "jobs", "logs", job_id)
        assert code == 0 and "job.state" in out
        # Cancelling a finished job is a typed conflict, exit 1.
        assert run_cli(capsys, "jobs", "cancel", job_id)[0] == 1
        # The finished job is visible to the runs machinery.
        code, out = run_cli(capsys, "runs", "list", "--dir",
                            str(tmp_path / "runs"))
        assert code == 0 and "serve-job" in out
    finally:
        server.stop(timeout=2.0)


def test_jobs_cli_submit_json_output(capsys, tmp_path, monkeypatch):
    from repro.serve import ReproServer

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    server.start()
    try:
        monkeypatch.setenv("FRAGDROID_SERVE_URL", server.url)
        code, out = run_cli(capsys, "jobs", "submit",
                            "com.serve.demo.beta", "--max-events", "200",
                            "--json")
        assert code == 0
        assert json.loads(out)["apps"] == ["com.serve.demo.beta"]
    finally:
        server.stop(timeout=2.0)


def test_jobs_cli_logs_follow_streams_to_completion(capsys, tmp_path,
                                                    monkeypatch):
    from repro.serve import ReproServer

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    server.start()
    try:
        monkeypatch.setenv("FRAGDROID_SERVE_URL", server.url)
        code, out = run_cli(capsys, "jobs", "submit",
                            "com.serve.demo.alpha", "--max-events",
                            "200", "--json")
        job_id = json.loads(out)["job_id"]
        # --follow tails the SSE stream and exits once the job ends.
        code, out = run_cli(capsys, "jobs", "logs", job_id, "--follow")
        assert code == 0
        assert "job.round" in out
        assert "state=done" in out
        # The handler released its subscription (no leaked buffer);
        # its finally-block can lag the client's exit by a beat.
        assert wait_until(lambda: server.broker.subscriber_count() == 0)
    finally:
        server.stop(timeout=2.0)


def test_jobs_cli_logs_follow_outlasts_a_dropped_stream(capsys, tmp_path,
                                                        monkeypatch):
    """The service drops a subscriber that falls behind its buffer;
    --follow must still print the whole log and end on the terminal
    state instead of stopping where the stream did."""
    from repro.serve import ReproServer, ServeClient
    from repro.serve.stream import Subscription

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sse_buffer=1)
    sweep = server.scheduler.sweep_fn

    def sweep_once_followed(plans, **kwargs):
        # Explore only once the follower subscribed, so the job's
        # events reach it live instead of as a finished backlog.
        wait_until(lambda: server.broker.subscriber_count() == 1,
                   timeout_s=30.0)
        return sweep(plans, **kwargs)

    get = Subscription.get

    def slow_get(self, timeout):
        time.sleep(0.05)  # a reader that lags the job's event bursts
        return get(self, timeout)

    server.scheduler.sweep_fn = sweep_once_followed
    monkeypatch.setattr(Subscription, "get", slow_get)
    server.start()
    try:
        monkeypatch.setenv("FRAGDROID_SERVE_URL", server.url)
        code, out = run_cli(capsys, "jobs", "submit",
                            "com.serve.demo.alpha", "--max-events",
                            "200", "--json")
        job_id = json.loads(out)["job_id"]
        code, out = run_cli(capsys, "jobs", "logs", job_id, "--follow")
        assert server.tracer.metrics.counter("serve.sse.dropped") >= 1
        assert code == 0
        lines = out.splitlines()
        assert "state=done" in lines[-1]
        logged = ServeClient(server.url).logs(job_id)
        assert [int(line.split()[0]) for line in lines] == \
            [event["seq"] for event in logged]
    finally:
        server.stop(timeout=2.0)


def test_dashboard_journal_renders_the_service_view(capsys, tmp_path,
                                                    monkeypatch):
    from repro.serve import ReproServer, ServeClient

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=10.0)
        job = client.submit(["com.serve.demo.alpha"], max_events=200)
        client.wait(job["job_id"], timeout_s=60.0)
    finally:
        server.stop(timeout=2.0)
    out_html = tmp_path / "fleet.html"
    code, out = run_cli(capsys, "dashboard",
                        "--journal", str(tmp_path / "journal"),
                        "--registry", str(tmp_path / "runs"),
                        "-o", str(out_html))
    assert code == 0 and "wrote dashboard" in out
    html_text = out_html.read_text()
    assert "Service fleet" in html_text
    assert job["job_id"] in html_text

    code, out = run_cli(capsys, "dashboard",
                        "--journal", str(tmp_path / "nowhere"))
    assert code == 1 and "journal" in out
    # No directory and no --journal is a usage error, not a traceback.
    code, out = run_cli(capsys, "dashboard")
    assert code == 1 and "--journal" in out


def test_jobs_cli_unreachable_service(capsys, monkeypatch):
    monkeypatch.setenv("FRAGDROID_SERVE_URL", "http://127.0.0.1:1")
    assert run_cli(capsys, "jobs", "status")[0] == 1


def test_jobs_cli_submit_needs_apps(capsys, monkeypatch):
    monkeypatch.setenv("FRAGDROID_SERVE_URL", "http://127.0.0.1:1")
    code, out = run_cli(capsys, "jobs", "submit")
    assert code == 2 and "app names" in out


# ---------------------------------------------------------------------------
# Static cache in the sweeps, show on records, and the bench-file
# regress gate
# ---------------------------------------------------------------------------

def test_study_with_static_cache_reports_hit_rate(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    code, out = run_cli(capsys, "study", "--static-cache", cache_dir)
    assert code == 0
    assert "hit rate 0%" in out
    code, out = run_cli(capsys, "study", "--static-cache", cache_dir)
    assert code == 0
    assert "217 hits" in out
    assert "hit rate 100%" in out


def test_cache_stats_shows_lifetime_hit_rate(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_cli(capsys, "study", "--static-cache", cache_dir)
    run_cli(capsys, "study", "--static-cache", cache_dir)
    code, out = run_cli(capsys, "cache", "stats", "--dir", cache_dir)
    assert code == 0
    assert "lifetime hit rate: 50%" in out


def test_show_record_file(capsys, tmp_path):
    code, out = run_cli(capsys, "show",
                        "benchmarks/baselines/table1_baseline.json",
                        "--top", "3", "--dir", str(tmp_path / "runs"))
    assert code == 0
    assert out.startswith("run 02344f97cd498f79 (sweep)\n")
    assert "top 3 phases by p90 self time" in out
    time = out.split("== time ==\n")[1].split("\n\n")[0].splitlines()
    # Title, column header, then three rows ranked by p90.
    assert time[1].split() == ["count", "self_s", "share", "p50_ms",
                               "p90_ms", "p99_ms", "phase"]
    p90s = [float(row.split()[4]) for row in time[2:]]
    assert len(p90s) == 3 and p90s == sorted(p90s, reverse=True)
    assert "mean_activity_rate: 0.719474" in out
    assert "no stored explanation for run 02344f97cd498f79" in out


def test_show_record_with_stored_explanation(capsys, tmp_path):
    runs_dir = str(tmp_path / "runs")
    main(["explain", "--table1", "--dir", runs_dir])
    capsys.readouterr()
    code, out = run_cli(capsys, "show", "--dir", runs_dir)
    assert code == 0
    assert "label: sweep" in out
    assert "unreached targets: 171" in out


def test_show_empty_registry_exits_2(capsys, tmp_path):
    code, out = run_cli(capsys, "show", "--dir", str(tmp_path / "runs"))
    assert code == 2
    assert "no run records" in out


def test_regress_accepts_bench_result_files(capsys, tmp_path):
    baseline = "benchmarks/baselines/static_perf_baseline.json"
    code, out = run_cli(
        capsys, "regress",
        "--baseline", baseline, "--candidate", baseline,
        "--coverage-key", "apps_per_second",
        "--max-coverage-drop", "0.25",
        "--dir", str(tmp_path / "runs"),
    )
    assert code == 0
    assert "PASS" in out


def test_regress_gates_bench_throughput_drop(capsys, tmp_path):
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({
        "schema": 1, "bench": "static_perf_market",
        "data": {"apps": 217, "apps_per_second": 100.0},
    }))
    code, out = run_cli(
        capsys, "regress",
        "--baseline", "benchmarks/baselines/static_perf_baseline.json",
        "--candidate", str(slow),
        "--coverage-key", "apps_per_second",
        "--max-coverage-drop", "0.25",
        "--dir", str(tmp_path / "runs"),
    )
    assert code == 1
    assert "apps_per_second" in out


# ---------------------------------------------------------------------------
# The paper's experiments: tables, comparison, ablation, corpus export
# ---------------------------------------------------------------------------

def _sha256(text):
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The printed experiments are deterministic (no wall-clock field), and
# byte-identical on the thread and the process backend.
@pytest.mark.parametrize("command, digest", [
    ("table1",
     "7c2b8d2ef292e0fbd735f9578e0835d766d545d54d6741d96cdfaaa3a2151dcd"),
    ("table2",
     "d07383d2a8394a7704fbdc3c817cadde85bd33e25bf0b1ee58243493d05b9f4c"),
    ("compare",
     "805f3750d67737c0cd5321e79b528b4ccdf19a05b45feb2c69403f91ff052ba4"),
    ("ablate",
     "5c94a89f3f45d463f4dc97ed366a51c579f91697b898fb8049ccacf7062b2e4b"),
])
def test_experiment_commands_print_pinned_text(capsys, command, digest):
    code, out = run_cli(capsys, command)
    assert code == 0
    assert _sha256(out) == digest, out


def test_export_corpus_writes_every_table1_app(capsys, tmp_path):
    from repro.apk.apkfile import load_apk
    from repro.corpus import table1_packages

    out_dir = tmp_path / "corpus"
    code, out = run_cli(capsys, "export-corpus", "-o", str(out_dir))
    assert code == 0
    packages = table1_packages()
    assert out.splitlines()[-1] == \
        f"exported {len(packages)} apps to {out_dir}"
    assert sorted(p.name for p in out_dir.glob("*.apk")) == \
        sorted(f"{package}.apk" for package in packages)
    for package in packages:
        assert load_apk(out_dir / f"{package}.apk").package == package


def test_explain_table1_records_the_sweep_and_stores_its_explanation(
        capsys, tmp_path):
    from repro.obs import ExplanationStore, RunRegistry

    runs_dir = tmp_path / "runs"
    code = main(["explain", "--table1", "--dir", str(runs_dir)])
    captured = capsys.readouterr()
    assert code == 0
    (record,) = RunRegistry(runs_dir).list()
    store = ExplanationStore(runs_dir)
    explanation = store.load(record.run_id)
    assert captured.err == (
        f"recorded sweep as {record.run_id}; stored explanation "
        f"{explanation.explanation_id} under {store.directory}\n")
    lines = captured.out.splitlines(keepends=True)
    assert lines[0] == (f"coverage explanation {explanation.explanation_id}"
                        f" (run {record.run_id})\n")
    # Everything below the ids is deterministic.
    assert _sha256("".join(lines[1:])) == \
        "456ce0921fb525b49905273efb23f6245bd699dd261146e23c6e878a53384641"
