"""Golden outputs of the suite consumers: regression, minimisation and
targeted driving.

``golden/replay_consumers.json`` pins, for the kitchen-sink demo spec,
``org.rbc.odb`` and ``com.cnn.mobile.android.phone``:

* ``run_regression``'s ``render()`` text and per-case statuses against
  the same version, a version with the first clicked widget renamed,
  and a version where that widget crashes;
* ``minimize_suite``'s chosen case names, ``covered`` set and
  truncated-probe count;
* ``drive_to_api``'s ``(case operations, component)`` for every API the
  exploration observed (or the error it raised).

Regenerate the fixture only for *intentional* changes::

    PYTHONPATH=src python tests/core/test_golden_replay_consumers.py
"""

import json
import pathlib

import pytest

from repro.android import Device
from repro.apk.builder import build_apk
from repro.core.explorer import FragDroid
from repro.core.minimize import minimize_suite
from repro.core.queue import OpKind
from repro.core.regression import run_regression
from repro.core.targeted import drive_to_api
from repro.corpus import build_table1_app
from repro.corpus.mutations import inject_crash, rename_widget
from repro.errors import ApkError, ReproError
from tests.conftest import make_full_demo_spec

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "replay_consumers.json")

APPS = {
    "demo:full": make_full_demo_spec,
    "org.rbc.odb": lambda: build_table1_app("org.rbc.odb"),
    "com.cnn.mobile.android.phone":
        lambda: build_table1_app("com.cnn.mobile.android.phone"),
}


def _mutations(spec, result):
    """The same version, then the first clicked widget renamed, then
    that widget made to crash."""
    yield "same", spec
    clicked = sorted({op.target for case in result.passing_test_cases
                      for op in case.operations
                      if op.kind is OpKind.CLICK})
    for widget in clicked:
        try:
            renamed = rename_widget(spec, widget, f"{widget}_v2")
        except ApkError:
            continue
        yield f"rename:{widget}", renamed
        yield f"crash:{widget}", inject_crash(spec, widget)
        return


def golden_entry(app: str) -> dict:
    spec = APPS[app]()
    apk = build_apk(spec)
    result = FragDroid(Device()).explore(apk)
    regression = {}
    for label, version in _mutations(spec, result):
        report = run_regression(result, build_apk(version))
        regression[label] = {
            "render": report.render(),
            "statuses": [[o.case, o.status] for o in report.outcomes],
        }
    suite = minimize_suite(result, apk)
    drives = {}
    for api in sorted({i.api for i in result.api_invocations}):
        try:
            case, component = drive_to_api(result, apk, Device(), api)
        except ReproError as exc:
            drives[api] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        drives[api] = {"operations": [str(op) for op in case.operations],
                       "component": component}
    return {
        "regression": regression,
        "minimize": {"cases": [case.name for case in suite.cases],
                     "covered": sorted(suite.covered),
                     "truncated_probes": suite.truncated_probes},
        "drive_to_api": drives,
    }


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_app():
    assert sorted(_load()) == sorted(APPS)


@pytest.mark.parametrize("app", sorted(APPS))
def test_replay_consumers_match_golden(app):
    assert golden_entry(app) == _load()[app]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({app: golden_entry(app) for app in sorted(APPS)},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
