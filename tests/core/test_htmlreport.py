"""``report.html``: the dashboard run page a saved run carries."""

import pathlib

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.artifacts import save_artifacts
from repro.core.config import FragDroidConfig
from repro.corpus import (
    build_table1_app,
    demo_aftm_example,
    table1_packages,
)
from repro.faults import make_device
from repro.obs import Event, Tracer
from repro.obs.dashboard import (
    RunData,
    render_dashboard,
    render_dashboard_dir,
)
from repro.obs.events import STATE_DISCOVERED
from tests.conftest import make_full_demo_spec


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    result = FragDroid(Device()).explore(build_apk(make_full_demo_spec()))
    run_dir = tmp_path_factory.mktemp("full-demo")
    save_artifacts(result, run_dir)
    return (run_dir / "report.html").read_text(encoding="utf-8"), result


def test_document_structure(report):
    html_text, _ = report
    assert html_text.startswith("<!DOCTYPE html>")
    # Coverage checkpoints, stalls, components, AFTM transitions and
    # sensitive-API relations.
    assert html_text.count("<table>") == 5
    assert "</html>" in html_text
    assert "<script" not in html_text  # self-contained, no scripts


def test_summary_contains_counts(report):
    html_text, result = report
    assert f"{len(result.visited_activities)} / {result.activity_total}" \
        in html_text
    assert f"{result.activity_rate:.1%}" in html_text
    assert f"{len(result.passing_test_cases)} passing" in html_text
    assert result.package in html_text


def test_components_listed_with_status(report):
    html_text, _ = report
    assert "com.example.demo.VaultActivity" in html_text
    assert "unvisited" in html_text
    assert "visited" in html_text


def test_api_symbols_rendered(report):
    html_text, _ = report
    assert "◗" in html_text or "⊙" in html_text or "●" in html_text


def test_text_is_escaped(tmp_path):
    result = FragDroid(Device()).explore(build_apk(demo_aftm_example()))
    # Record a hostile-looking discovery: the trace line it renders as
    # must come out escaped.
    result.events.append(Event(
        999, STATE_DISCOVERED, step=999,
        attributes={"component": "activity",
                    "name": "<script>alert(1)</script>"}))
    save_artifacts(result, tmp_path)
    html_text = (tmp_path / "report.html").read_text(encoding="utf-8")
    assert "<script>alert(1)</script>" not in html_text
    assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html_text


def test_saved_artifacts_include_html(tmp_path):
    result = FragDroid(Device()).explore(build_apk(demo_aftm_example()))
    save_artifacts(result, tmp_path)
    html_path = tmp_path / "report.html"
    assert html_path.exists()
    assert "FragDroid flight recorder" in html_path.read_text()


def _explored(kind: str, package: str = "com.c51"):
    if kind == "hostile":
        config = FragDroidConfig(fault_profile="hostile", fault_seed=7)
    elif kind == "traced":
        config = FragDroidConfig(tracer=Tracer())
    else:
        config = FragDroidConfig()
    device = make_device(config.fault_plan, scope=package)
    return FragDroid(device, config).explore(
        build_apk(build_table1_app(package)))


@pytest.mark.parametrize("kind", ["plain", "traced", "hostile"])
def test_saved_page_is_what_the_dashboard_renders(tmp_path, kind):
    result = _explored(kind)
    run_dir = tmp_path / "run"
    save_artifacts(result, run_dir)
    saved = (run_dir / "report.html").read_text(encoding="utf-8")
    assert saved == render_dashboard_dir(run_dir)
    # The page names no path: a moved run directory renders the same.
    moved = tmp_path / "elsewhere" / "moved"
    moved.parent.mkdir()
    run_dir.rename(moved)
    assert saved == render_dashboard_dir(moved)


@pytest.mark.parametrize("kind", ["plain", "hostile"])
def test_passing_count_is_derived_from_the_run_record(kind):
    """The page counts passing cases off the record (started items
    less failed ones), since ``report.json`` does not carry them."""
    for package in table1_packages():
        result = _explored(kind, package)
        html_text = render_dashboard(RunData(
            path=pathlib.Path(package), report={"package": package},
            events=result.events))
        assert (f"{len(result.passing_test_cases)} passing"
                in html_text), package
