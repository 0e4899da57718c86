"""Persist a run's artifacts to disk.

A FragDroid run produces inspectable artifacts — the generated Robotium
test programs, the AFTM, the structured report, the trace and the run
record (``events.jsonl``) it is rendered from.  :func:`save_artifacts`
lays them out the way the paper's tooling would leave them next to an
Ant build.  The directory is committed by its marker
(:data:`~repro.obs.dashboard.MANIFEST`): removed before the first
write, written atomically after the last, so a save cut short leaves a
directory :func:`~repro.obs.dashboard.load_run` refuses rather than
a mix of two runs.  ``report.html`` is the dashboard's run page,
rendered from the same report, record and spans the directory holds,
so it is byte for byte what ``repro dashboard DIR`` renders.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Union

from repro.core.explorer import ExplorationResult
from repro.core.report import result_to_dict
from repro.errors import StoreError
from repro.obs import prometheus_text
from repro.obs.dashboard import (
    MANIFEST,
    RunData,
    manifest_files,
    render_dashboard,
)
from repro.store import atomic_write


def save_artifacts(result: ExplorationResult,
                   directory: Union[str, pathlib.Path],
                   replay_scripts: bool = False) -> List[pathlib.Path]:
    """Write all artifacts of a run under ``directory``.

    Layout::

        <dir>/report.json          structured run report (with the AFTM)
        <dir>/report.html          the run page `repro dashboard DIR` renders
        <dir>/aftm.dot             Graphviz rendering of the AFTM
        <dir>/trace.log            the exploration trace
        <dir>/coverage.txt         the human-readable summary
        <dir>/testcases/*.java     every generated Robotium program
        <dir>/events.jsonl         the run record, one event per line
        <dir>/manifest.json        the commit marker, written last

    with ``replay_scripts=True``, additionally::

        <dir>/testcases/*.replay.json   one replay script per passing case

    and, only when the run was traced::

        <dir>/spans.jsonl          the finished spans
        <dir>/metrics.prom         Prometheus text exposition

    A save over an earlier one replaces it: the files the old marker
    listed that this save does not write are removed, and files no
    marker listed are left alone.  Returns the written paths.
    """
    base = pathlib.Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    try:
        previous = manifest_files(base)
    except StoreError:
        previous = []
    (base / MANIFEST).unlink(missing_ok=True)
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
    files = sorted(path.relative_to(base).as_posix() for path in written)
    for stale in sorted(set(previous) - set(files)):
        if (base / stale).is_file():
            (base / stale).unlink()
    atomic_write(base / MANIFEST,
                 json.dumps({"files": files}, indent=2) + "\n")
    return written + [base / MANIFEST]
