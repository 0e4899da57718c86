"""Record & replay (paper Section I's R&R technique, RERAN-style).

The paper positions record-and-replay as the pre-MBT state of the art:
a human tester's UI events are recorded as a script and replayed on
other devices.  This subpackage implements that technique over the
emulator — and wires it into the pipeline as a first-class citizen:

* :mod:`repro.rnr.recorder` — the manual recorder and the
  schema-versioned :class:`ReplayScript` format, whose events are the
  test cases' own :class:`~repro.core.queue.Operation` objects (every
  passing test case exports as a script as it is);
* :mod:`repro.rnr.replay` — the one replay loop, with per-step
  divergence reporting and run-registry records;
* :mod:`repro.rnr.fragility` — the breakage study replaying recorded
  suites against mutated app versions ("scripts break when the UI
  changes", quantified).
"""

from repro.rnr.fragility import FragilityReport, run_fragility
from repro.rnr.recorder import (
    SCRIPT_SCHEMA,
    Recorder,
    ReplayScript,
)
from repro.rnr.replay import (
    ReplayOutcome,
    SuiteReplayReport,
    replay_run_record,
    replay_script,
    replay_suite,
)

__all__ = [
    "SCRIPT_SCHEMA",
    "Recorder",
    "ReplayScript",
    "ReplayOutcome",
    "SuiteReplayReport",
    "FragilityReport",
    "replay_script",
    "replay_suite",
    "replay_run_record",
    "run_fragility",
]
