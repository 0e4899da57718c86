"""Persist a run's artifacts to disk.

A FragDroid run produces inspectable artifacts — the generated Robotium
test programs, the AFTM (JSON and Graphviz), the structured report, the
trace and the run record (``events.jsonl``) it is rendered from.
:func:`save_artifacts` lays them out the way the paper's tooling would
leave them next to an Ant build.  Every saved run carries its record
and ``manifest.json``, so ``repro explain`` and ``repro dashboard``
answer in full for any of them; a traced run (``FragDroidConfig.tracer``)
adds ``spans.jsonl`` and ``metrics.prom``.  ``report.html`` is the
dashboard's run page, rendered from the same report, record and spans
the directory holds, so it is byte for byte what ``repro dashboard
DIR`` renders.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Union

from repro.core.explorer import ExplorationResult
from repro.core.report import aftm_to_json, result_to_dict
from repro.obs import prometheus_text, run_manifest
from repro.obs.dashboard import RunData, render_dashboard
from repro.obs.timeline import coverage_timeline


def save_artifacts(result: ExplorationResult,
                   directory: Union[str, pathlib.Path],
                   replay_scripts: bool = False) -> List[pathlib.Path]:
    """Write all artifacts of a run under ``directory``.

    Layout::

        <dir>/report.json          structured run report
        <dir>/report.html          the run page `repro dashboard DIR` renders
        <dir>/aftm.json            the final AFTM
        <dir>/aftm.dot             Graphviz rendering
        <dir>/trace.log            the exploration trace
        <dir>/coverage.txt         the human-readable summary
        <dir>/testcases/*.java     every generated Robotium program
        <dir>/events.jsonl         the run record, one event per line
        <dir>/manifest.json        the run manifest

    with ``replay_scripts=True``, additionally::

        <dir>/testcases/*.replay.json   one replay script per passing case

    and, only when the run was traced::

        <dir>/spans.jsonl          the finished spans
        <dir>/metrics.prom         Prometheus text exposition

    Returns the written paths.
    """
    base = pathlib.Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    written: List[pathlib.Path] = []

    def _write(relative: str, content: str) -> None:
        path = base / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        written.append(path)

    report = result_to_dict(result)
    _write("report.json", json.dumps(report, indent=2, sort_keys=True))
    _write("report.html", render_dashboard(RunData(
        path=base, report=report, events=result.events, spans=result.spans)))
    _write("aftm.json", aftm_to_json(result.aftm))
    _write("aftm.dot", result.aftm.to_dot())
    _write("trace.log", result.trace_text())
    _write("coverage.txt", result.coverage_report())
    for case in result.test_cases:
        _write(f"testcases/{case.name}.java", case.to_robotium_java())
    if replay_scripts:
        from repro.rnr.recorder import ReplayScript

        for case in result.passing_test_cases:
            _write(f"testcases/{case.name}.replay.json",
                   ReplayScript(case.package, case.operations).to_json()
                   + "\n")
    _write("events.jsonl", "".join(
        json.dumps(e.to_dict(), sort_keys=True) + "\n"
        for e in result.events
    ))
    if result.spans:
        _write("spans.jsonl", "".join(
            json.dumps(s.to_dict(), sort_keys=True) + "\n"
            for s in result.spans
        ))
    if result.metrics:
        _write("metrics.prom", prometheus_text(result.metrics))
    _write("manifest.json", json.dumps(
        run_manifest(result, files=[str(p.relative_to(base))
                                    for p in written]),
        indent=2, sort_keys=True,
    ) + "\n")
    return written


def coverage_curve(result: ExplorationResult) -> List[tuple]:
    """Discovery progress over the run: ``(step, activities, fragments)``
    sampled at every new visit — the projection of the run record's
    :func:`~repro.obs.timeline.coverage_timeline`."""
    return [(point.step, point.activities, point.fragments)
            for point in coverage_timeline(result.events)]
