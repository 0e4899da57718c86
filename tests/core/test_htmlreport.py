"""The HTML run report."""

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.htmlreport import render_html_report
from repro.corpus import demo_aftm_example
from tests.conftest import make_full_demo_spec


@pytest.fixture(scope="module")
def report():
    result = FragDroid(Device()).explore(build_apk(make_full_demo_spec()))
    return render_html_report(result), result


def test_document_structure(report):
    html_text, _ = report
    assert html_text.startswith("<!DOCTYPE html>")
    assert html_text.count("<table>") == 4
    assert "</html>" in html_text
    assert "<script" not in html_text  # self-contained, no scripts


def test_summary_contains_counts(report):
    html_text, result = report
    assert f"{len(result.visited_activities)} / {result.activity_total}" \
        in html_text
    assert result.package in html_text


def test_components_listed_with_status(report):
    html_text, _ = report
    assert "com.example.demo.VaultActivity" in html_text
    assert "unvisited" in html_text
    assert "visited" in html_text


def test_api_symbols_rendered(report):
    html_text, _ = report
    assert "◗" in html_text or "⊙" in html_text or "●" in html_text


def test_text_is_escaped():
    result = FragDroid(Device()).explore(build_apk(demo_aftm_example()))
    # Record a hostile-looking discovery and re-render: the trace line
    # it renders as must come out escaped.
    from repro.obs import Event
    from repro.obs.events import STATE_DISCOVERED

    result.events.append(Event(
        999, STATE_DISCOVERED, step=999,
        attributes={"component": "activity",
                    "name": "<script>alert(1)</script>"}))
    html_text = render_html_report(result)
    assert "<script>alert(1)</script>" not in html_text
    assert "&lt;script&gt;" in html_text


def test_saved_artifacts_include_html(tmp_path):
    from repro.core.artifacts import save_artifacts

    result = FragDroid(Device()).explore(build_apk(demo_aftm_example()))
    save_artifacts(result, tmp_path)
    html_path = tmp_path / "report.html"
    assert html_path.exists()
    assert "FragDroid exploration report" in html_path.read_text()