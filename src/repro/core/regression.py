"""Regression testing with generated suites.

The point of generating Robotium test cases is to *keep* them: when the
app's next version lands, the suite replays against it and every broken
path or fresh crash is a regression signal.  This module replays a
previous exploration's test cases on a new APK and classifies the
outcomes — the workflow the paper's generated artifacts enable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.explorer import ExplorationResult
from repro.errors import ReproError
from repro.rnr.recorder import ReplayScript
from repro.rnr.replay import replay_script

PASS = "pass"
BROKEN = "broken"   # an operation no longer applies (UI drifted)
CRASH = "crash"     # the new version force-closed on an old path


@dataclass(frozen=True)
class RegressionOutcome:
    case: str
    status: str
    detail: str = ""


@dataclass
class RegressionReport:
    package: str
    outcomes: List[RegressionOutcome] = field(default_factory=list)

    def of_status(self, status: str) -> List[RegressionOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def passed(self) -> int:
        return len(self.of_status(PASS))

    @property
    def broken(self) -> int:
        return len(self.of_status(BROKEN))

    @property
    def crashed(self) -> int:
        return len(self.of_status(CRASH))

    @property
    def ok(self) -> bool:
        return self.broken == 0 and self.crashed == 0

    def render(self) -> str:
        lines = [
            f"regression run for {self.package}: "
            f"{self.passed} passed, {self.broken} broken, "
            f"{self.crashed} crashed"
        ]
        for outcome in self.outcomes:
            if outcome.status != PASS:
                lines.append(f"  {outcome.case}: {outcome.status}"
                             f" — {outcome.detail}")
        return "\n".join(lines)


def run_regression(
    baseline: ExplorationResult,
    new_apk: ApkPackage,
    device: Optional[Device] = None,
) -> RegressionReport:
    """Replay the baseline's generated suite against a new version."""
    if new_apk.package != baseline.package:
        raise ReproError(
            f"suite is for {baseline.package}, APK is {new_apk.package}"
        )
    device = device or Device()
    report = RegressionReport(package=baseline.package)
    apk: Optional[ApkPackage] = new_apk
    for case in baseline.passing_test_cases:
        # The first replay installs the new version; the rest reuse it.
        outcome = replay_script(
            ReplayScript(case.package, case.operations), device, apk=apk)
        apk = None
        status = (PASS if outcome.ok
                  else CRASH if outcome.crashed else BROKEN)
        report.outcomes.append(
            RegressionOutcome(case.name, status, outcome.detail))
    return report
