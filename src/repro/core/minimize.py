"""Test-suite minimization (TrimDroid's theme, applied to our output).

TrimDroid's contribution is "a comparable coverage … using fewer test
cases"; after a FragDroid run we can do the same to our own generated
suite: pick the smallest subset of passing test cases that still
reaches every visited component.  Greedy set cover — optimal is
NP-hard, greedy is the standard ln(n)-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.explorer import ExplorationResult
from repro.core.testcase import TestCase
from repro.obs import NULL_TRACER, Tracer
from repro.rnr.recorder import ReplayScript
from repro.rnr.replay import replay_script


@dataclass
class MinimizedSuite:
    cases: List[TestCase]
    covered: Set[str]
    original_size: int
    # Probe replays that broke before finishing: their observed coverage
    # is a truncation, not the case's full reach.  A non-zero count
    # means the greedy cover ran on under-counted inputs.
    truncated_probes: int = 0

    @property
    def reduction(self) -> float:
        if not self.original_size:
            return 0.0
        return 1.0 - len(self.cases) / self.original_size

    def render(self) -> str:
        text = (
            f"minimized suite: {len(self.cases)}/{self.original_size} "
            f"test cases ({self.reduction:.0%} fewer) covering "
            f"{len(self.covered)} components"
        )
        if self.truncated_probes:
            text += (f" ({self.truncated_probes} coverage probe"
                     f"{'s' if self.truncated_probes != 1 else ''} "
                     "truncated)")
        return text


def _coverage_of_case(case: TestCase, apk: ApkPackage,
                      known_components: Set[str],
                      ) -> Tuple[Set[str], bool]:
    """Replay one case on a scratch device; observe which components
    appear (activity on top after each op + attached fragments).

    Returns ``(covered, truncated)``: a probe that breaks mid-replay
    keeps the coverage observed so far but flags the truncation instead
    of silently under-counting.
    """
    outcome = replay_script(ReplayScript(case.package, case.operations),
                            Device(), apk=apk)
    reached = set(outcome.activities) | set(outcome.fragments)
    return reached & known_components, not outcome.ok


def minimize_suite(result: ExplorationResult,
                   apk: ApkPackage,
                   tracer: Optional[Tracer] = None) -> MinimizedSuite:
    """Greedy set cover of visited components by passing test cases.

    Ties on coverage gain break toward the lowest case index — the
    greedy pick is fully deterministic, never dict-order dependent.
    ``tracer`` (optional) counts truncated coverage probes on the
    ``minimize.truncated_probes`` metric.
    """
    tracer = tracer or NULL_TRACER
    universe = set(result.visited_activities) | set(result.visited_fragments)
    coverage: Dict[int, Set[str]] = {}
    truncated_probes = 0
    for index, case in enumerate(result.passing_test_cases):
        coverage[index], truncated = _coverage_of_case(case, apk, universe)
        if truncated:
            truncated_probes += 1
            tracer.inc("minimize.truncated_probes")

    chosen: List[TestCase] = []
    covered: Set[str] = set()
    remaining = dict(coverage)
    while covered != universe and remaining:
        best_index, best_gain = None, -1
        # Ascending index + strict improvement = lowest index wins ties.
        for index in sorted(remaining):
            gain = len(remaining[index] - covered)
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index is None or best_gain <= 0:
            break
        covered |= remaining.pop(best_index)
        chosen.append(result.passing_test_cases[best_index])
    return MinimizedSuite(
        cases=chosen,
        covered=covered,
        original_size=len(result.passing_test_cases),
        truncated_probes=truncated_probes,
    )
