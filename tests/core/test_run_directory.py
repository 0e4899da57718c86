"""A saved run directory is committed by its manifest.

``save_artifacts`` removes the marker (``manifest.json``) first and
writes it last; ``load_run`` is the one reader that decides what a run
directory is.  A save killed before any of its writes, into a fresh
directory or over a committed run, leaves a directory every reader
either refuses with a ``StoreError`` or reads as one complete run.  A
re-save replaces what the earlier save wrote, and damaged documents
raise typed errors, never tracebacks.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.cli import main
from repro.core.artifacts import save_artifacts
from repro.core.report import aftm_from_dict
from repro.corpus import build_table1_app, demo_drawer_app
from repro.errors import ReproError, StoreError
from repro.faults import make_device
from repro.obs import (
    Tracer,
    explain_run_dir,
    load_fleet,
    load_run,
    render_dashboard_dir,
)
from repro.obs.dashboard import manifest_files
from tests.conftest import CHILD_ENV

#: Explores demo:tabs once, then saves it over and over into
#: ``OUT/<n>`` (a copy of TEMPLATE, or fresh when TEMPLATE is "-"), each
#: time in a forked child killed before its n-th write: a file write,
#: an unlink or the marker's rename.  Stops at the first save that
#: completes and prints how many were killed.
_CRASHING_SAVER = """
import os, pathlib, shutil, sys
from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.artifacts import save_artifacts
from repro.corpus import demo_tabbed_app

result = FragDroid(Device()).explore(build_apk(demo_tabbed_app()))
template, out = sys.argv[1], pathlib.Path(sys.argv[2])
for prefix in range(1000):
    target = out / f"{prefix:03d}"
    if template != "-":
        shutil.copytree(template, target)
    pid = os.fork()
    if pid == 0:
        writes = [0]

        def crash_before(write):
            def crashing(*args, **kwargs):
                if writes[0] == prefix:
                    os._exit(17)
                writes[0] += 1
                return write(*args, **kwargs)
            return crashing

        pathlib.Path.write_text = crash_before(pathlib.Path.write_text)
        pathlib.Path.unlink = crash_before(pathlib.Path.unlink)
        os.replace = crash_before(os.replace)
        save_artifacts(result, target)
        os._exit(0)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        break
    assert code == 17, code
print(prefix)
"""


def _read_all(directory):
    """What ``load_run``, ``explain_run_dir`` and ``render_dashboard_dir``
    read from ``directory``; ``None`` for a reader that refused it with
    a ``StoreError``."""
    def run(path):
        data = load_run(path)
        return (data.report, [e.to_dict() for e in data.events],
                [s.to_dict() for s in data.spans])

    outcomes = []
    for read in (run, lambda path: explain_run_dir(path).to_json(),
                 render_dashboard_dir):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outcomes.append(read(directory))
        except StoreError:
            outcomes.append(None)
    return outcomes


def _crash_every_write(template, out):
    child = subprocess.run(
        [sys.executable, "-c", _CRASHING_SAVER, str(template), str(out)],
        env=CHILD_ENV, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    killed = int(child.stdout)
    return [out / f"{n:03d}" for n in range(killed)], out / f"{killed:03d}"


@pytest.mark.parametrize("over", ["fresh", "committed"])
def test_a_killed_save_is_refused_or_read_whole(tmp_path, over):
    template = "-"
    complete = []
    if over == "committed":
        # A different, traced run with replay scripts: its spans,
        # metrics and scripts are what the new save must not leave.
        template = tmp_path / "old"
        old = FragDroid(Device(), FragDroidConfig(tracer=Tracer())).explore(
            build_apk(demo_drawer_app()))
        save_artifacts(old, template, replay_scripts=True)
        complete.append(_read_all(template))
    killed, finished = _crash_every_write(template, tmp_path / "saves")
    complete.append(_read_all(finished))
    assert None not in complete[-1]
    # One kill before each write: the old marker's removal, every file,
    # every stale file's removal and the new marker's rename.
    files = set(manifest_files(finished))
    stale = (set(manifest_files(template)) - files
             if over == "committed" else set())
    assert len(killed) == 1 + len(files) + len(stale) + 1
    assert over == "fresh" or {"spans.jsonl", "metrics.prom"} <= stale
    outcomes = [_read_all(directory) for directory in killed]
    for directory, outcome in zip(killed, outcomes):
        assert outcome in ([None] * 3, *complete), directory.name
    # Only the prefix before the old marker's removal reads the old run.
    assert outcomes.count([None] * 3) == len(killed) - (over == "committed")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue()


def test_a_resave_replaces_what_the_earlier_save_wrote(tmp_path):
    run_dir = tmp_path / "run"
    code, _ = _cli("explore", "demo:tabs", "--save", run_dir,
                   "--trace-jsonl", tmp_path / "spans.jsonl",
                   "--export-replay")
    assert code == 0
    assert (run_dir / "spans.jsonl").exists()
    assert list(run_dir.glob("testcases/*.replay.json"))
    # A file no manifest lists (a sink, notes) is left alone.
    (run_dir / "notes.txt").write_text("kept")
    code, _ = _cli("explore", "demo:tabs", "--save", run_dir)
    assert code == 0
    assert (run_dir / "report.html").read_text(encoding="utf-8") == \
        render_dashboard_dir(run_dir)
    assert load_run(run_dir).spans == []
    assert not list(run_dir.glob("testcases/*.replay.json"))
    assert not (run_dir / "spans.jsonl").exists()
    assert not (run_dir / "metrics.prom").exists()
    assert (run_dir / "notes.txt").read_text() == "kept"
    code, out = _cli("show", run_dir)
    assert code == 0 and "items by p90 self time" in out


def test_a_manifest_naming_outside_paths_is_refused_and_never_followed(
        tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("precious")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for name in ("../outside.txt", "/etc/passwd", ""):
        (run_dir / "manifest.json").write_text(
            json.dumps({"files": [name]}))
        with pytest.raises(StoreError, match="not a path inside"):
            load_run(run_dir)
        save_artifacts(FragDroid(Device()).explore(
            build_apk(demo_drawer_app())), run_dir)
        load_run(run_dir)
    assert outside.read_text() == "precious"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A committed traced run under the hostile fault profile, so its
    report carries every optional section."""
    package = "com.aircrunch.shopalerts"
    config = FragDroidConfig(tracer=Tracer(), fault_profile="hostile",
                             fault_seed=7)
    result = FragDroid(make_device(config.fault_plan, scope=package),
                       config).explore(build_apk(build_table1_app(package)))
    run_dir = tmp_path_factory.mktemp("saved") / "run"
    save_artifacts(result, run_dir)
    return run_dir


def test_the_saved_report_carries_every_section(saved):
    report = load_run(saved).report
    assert {"timing", "degradation", "metrics"} <= set(report)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_uncommitted_copy_exits_2_without_a_traceback(saved, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(saved, copy)
    (copy / "manifest.json").unlink()
    for command in ("explain", "show"):
        code, out = _cli(command, copy)
        assert code == 2, out
        assert "no manifest.json" in out
        assert "Traceback" not in out
    with pytest.raises(StoreError, match="no manifest.json"):
        render_dashboard_dir(copy)
    # A fleet skips it, with a warning.
    with pytest.warns(RuntimeWarning, match="copy"):
        assert load_fleet(tmp_path) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_report_that_is_not_an_object_is_refused_by_each_command(
        saved, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(saved, copy)
    (copy / "report.json").write_text("[]")
    for argv, status in ((["explain", copy], 2), (["show", copy], 2),
                         (["dashboard", copy, "-o", tmp_path / "d.html"], 1)):
        code, out = _cli(*argv)
        assert code == status, out
        assert "report.json: top level is a list" in out
        assert "Traceback" not in out


def test_a_listed_file_that_is_missing_refuses_the_run(saved, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(saved, copy)
    (copy / "events.jsonl").unlink()
    with pytest.raises(StoreError, match="events.jsonl missing"):
        load_run(copy)


@pytest.mark.parametrize("data", [
    None,
    [],
    {"package": 1},
    {"package": "p", "edges": [{"src": 1}]},
    {"package": "p", "activities": "A"},
    {"package": "p", "edges": [{
        "src": "F", "src_kind": "fragment", "dst": "A",
        "dst_kind": "activity", "kind": "E1", "host": None,
        "trigger": "t"}]},
    {"package": "p", "edges": [{
        "src": "A", "src_kind": "service", "dst": "B",
        "dst_kind": "activity", "kind": "E1", "host": None,
        "trigger": "t"}]},
], ids=["null", "list", "package-number", "edge-src-number",
        "activities-text", "fragment-to-activity", "unknown-kind"])
def test_aftm_from_dict_rejects_malformed_models_with_store_error(data):
    with pytest.raises(StoreError):
        aftm_from_dict(data)


# ---------------------------------------------------------------------------
# Fuzz: any damage to report.json loads or raises a ReproError
# ---------------------------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_FIELDS = [(key,) for key in ("package", "coverage", "stats",
                              "api_invocations", "aftm", "timing",
                              "degradation", "metrics")] + [
    ("aftm", key) for key in ("package", "entry", "activities",
                              "fragments", "visited", "edges")] + [
    ("coverage", key) for key in ("activities", "fragments",
                                  "fragments_in_visited_activities")]


@pytest.fixture(scope="module")
def damaged(saved, tmp_path_factory):
    """A committed run of just a report and its record, whose
    ``report.json`` each example overwrites."""
    run_dir = tmp_path_factory.mktemp("damaged")
    shutil.copy(saved / "events.jsonl", run_dir)
    (run_dir / "manifest.json").write_text(json.dumps(
        {"files": ["events.jsonl", "report.json"]}))
    return run_dir, json.loads((saved / "report.json").read_text())


def _loads_or_raises_repro_error(run_dir, report) -> None:
    (run_dir / "report.json").write_text(json.dumps(report))
    for read in (load_run, explain_run_dir, render_dashboard_dir):
        try:
            read(run_dir)
        except ReproError:
            pass


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(value=_json)
def test_any_json_report_loads_or_raises_repro_error(damaged, value):
    _loads_or_raises_repro_error(damaged[0], value)


@_FUZZ
@given(value=_json)
def test_any_json_aftm_loads_or_raises_repro_error(damaged, value):
    report = json.loads(json.dumps(damaged[1]))
    report["aftm"] = value
    _loads_or_raises_repro_error(damaged[0], report)


@_FUZZ
@given(path=st.sampled_from(_FIELDS), value=_json, drop=st.booleans())
def test_a_damaged_report_field_loads_or_raises_repro_error(
        damaged, path, value, drop):
    report = json.loads(json.dumps(damaged[1]))
    *parents, key = path
    holder = report
    for parent in parents:
        holder = holder[parent]
    if drop:
        holder.pop(key, None)
    else:
        holder[key] = value
    _loads_or_raises_repro_error(damaged[0], report)


def test_the_undamaged_report_loads(damaged):
    run_dir, report = damaged
    (run_dir / "report.json").write_text(json.dumps(report))
    assert load_run(run_dir).report == report
    assert explain_run_dir(run_dir).cause_census
