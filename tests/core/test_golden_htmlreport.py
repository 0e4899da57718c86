"""Byte-identical saved run pages against a committed fixture.

``golden/html_reports.json`` pins the sha256 of the ``report.html``
:func:`~repro.core.artifacts.save_artifacts` writes (the dashboard run
page) for each of the 15 Table-I results of a default run, plus two
hostile-profile runs with fixed synthetic spans, so the per-phase
timing and degradation sections are pinned too.  A change to how the
page is rendered must not change a byte of it.  Regenerate only for
an *intentional* change to the page::

    PYTHONPATH=src python tests/core/test_golden_htmlreport.py
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.android import Device
from repro.apk.builder import build_apk
from repro.core.artifacts import save_artifacts
from repro.core.config import FragDroidConfig
from repro.core.explorer import FragDroid
from repro.corpus import TABLE1_PLANS, build_table1_app
from repro.corpus.synth import build_app
from repro.faults import make_device
from repro.obs import Span

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "html_reports.json")

FAULTED = ("com.aircrunch.shopalerts", "com.c51")


def _saved_page(result) -> str:
    with tempfile.TemporaryDirectory() as directory:
        save_artifacts(result, directory)
        return (pathlib.Path(directory) / "report.html").read_text(
            encoding="utf-8")


def _plain(plan) -> str:
    return _saved_page(FragDroid(Device()).explore(build_apk(build_app(plan))))


def _faulted(package: str) -> str:
    config = FragDroidConfig(fault_profile="hostile", fault_seed=7)
    result = FragDroid(make_device(config.fault_plan, scope=package),
                       config).explore(build_apk(build_table1_app(package)))
    result.spans = [
        Span("explore", 1, 1, None, 0, 0.0, 0.5, {"app": package}),
        Span("static.extract", 2, 1, 1, 1, 0.0, 0.125),
        Span("explorer.test_case", 3, 1, 1, 1, 0.125, 0.25),
        Span("explorer.test_case", 4, 1, 1, 1, 0.375, 0.0625),
    ]
    return _saved_page(result)


def report_hashes() -> dict:
    pages = {plan.package: _plain(plan) for plan in TABLE1_PLANS}
    pages.update({f"hostile/{package}": _faulted(package)
                  for package in FAULTED})
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in pages.items()}


@pytest.fixture(scope="module")
def rendered():
    return report_hashes()


def test_fixture_covers_every_report(rendered):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(rendered)


@pytest.mark.parametrize("name", [plan.package for plan in TABLE1_PLANS]
                         + [f"hostile/{package}" for package in FAULTED])
def test_html_report_byte_identical(rendered, name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert rendered[name] == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(report_hashes(), indent=1,
                                      sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
