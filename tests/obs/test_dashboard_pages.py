"""Byte-identical dashboard pages against a committed fixture.

``golden/dashboard_pages.json`` pins the sha256 of the run, fleet and
service pages rendered from fixed inputs: a faulted run's report and
flight record, synthetic spans with fixed timings, registry records
and serve jobs.  Every chart kind (coverage curves, the run trend and
the queue-depth curve) and every optional section appears.  A change
to the renderers' structure must not change a byte of their output.
Regenerate only for an *intentional* change to the pages::

    PYTHONPATH=src python tests/obs/test_dashboard_pages.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.apk.builder import build_apk
from repro.core.config import FragDroidConfig
from repro.core.explorer import FragDroid
from repro.core.report import result_to_json
from repro.corpus import build_table1_app
from repro.faults import make_device
from repro.obs import EventLog, RunRecord, Span, explain_result
from repro.obs.dashboard import (
    RunData,
    render_dashboard,
    render_fleet_dashboard,
    render_service_dashboard,
)

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "dashboard_pages.json")

PACKAGES = ("com.aircrunch.shopalerts", "com.c51")


def _run_data(package: str):
    config = FragDroidConfig(fault_profile="hostile", fault_seed=7,
                             event_log=EventLog())
    result = FragDroid(make_device(config.fault_plan, scope=package),
                       config).explore(build_apk(build_table1_app(package)))
    spans = [
        Span("explore", 1, 1, None, 0, 0.0, 0.5, {"app": package}),
        Span("static.extract", 2, 1, 1, 1, 0.0, 0.125),
        Span("explorer.test_case", 3, 1, 1, 1, 0.125, 0.25),
        Span("ui.snapshot", 4, 1, 3, 2, 0.125, 0.0625),
    ]
    run = RunData(path=pathlib.Path("runs") / package,
                  report=json.loads(result_to_json(result)),
                  events=list(result.events), spans=spans)
    return run, explain_result(result)


def _history():
    records = []
    for i, (rate, apis) in enumerate(((0.7, 100), (0.75, 110),
                                      (0.72, 120))):
        record = RunRecord(label="sweep",
                           coverage={"mean_activity_rate": rate,
                                     "mean_fragment_rate": rate - 0.1,
                                     "apis": apis},
                           phases={"explore": {"count": 1,
                                               "self_total_s": 1.0 + i}},
                           meta={"created": float(i)})
        record.run_id = record.compute_id()
        records.append(record)
    return records


def _jobs():
    from repro.serve import Job

    healthy = Job(job_id="aaa", apps=("com.a",), created=100.0,
                  started=100.5, finished=102.0, state="done", trace_id=3)
    healthy.completed = {"com.a": {"ok": True}}
    bruised = Job(job_id="bbb", apps=("com.a", "com.b"), created=100.2,
                  started=101.0, finished=104.0, state="done")
    bruised.completed = {"com.a": {"ok": False, "error": "boom"}}
    bruised.attempts = {"com.a": 2}
    bruised.quarantined = ["com.a"]
    waiting = Job(job_id="ccc", apps=("com.c",), created=100.7,
                  started=0.0, finished=0.0, state="submitted")
    return [healthy, bruised, waiting]


class _Record:
    meta = {"job_id": "bbb", "degradation": {"worker_deaths": 2}}


def pages() -> dict:
    runs, explanations = zip(*(_run_data(package) for package in PACKAGES))
    history = _history()
    return {
        "run": render_dashboard(runs[0], fleet=runs, history=history,
                                explanations=explanations),
        "run-bare": render_dashboard(RunData(path=runs[1].path,
                                             report=runs[1].report)),
        "fleet": render_fleet_dashboard(runs, "fleet", history=history,
                                        explanations=explanations),
        "service": render_service_dashboard(
            _jobs(), "journal", records=[_Record()], history=history,
            explanations=explanations),
        "service-empty": render_service_dashboard([], "journal"),
    }


def page_hashes() -> dict:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in pages().items()}


@pytest.fixture(scope="module")
def rendered():
    return page_hashes()


@pytest.mark.parametrize("page", ["run", "run-bare", "fleet", "service",
                                  "service-empty"])
def test_dashboard_page_byte_identical(rendered, page):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert rendered[page] == golden[page]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(page_hashes(), indent=1,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
