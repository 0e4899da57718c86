"""Deterministic regression gate over two run records.

``check_regression(baseline, candidate, policy)`` judges the two
records' :class:`~repro.obs.diff.RecordDiff`: its comparability notes,
coverage deltas and per-phase self times.  It is a pure function: no
clocks, no randomness, no filesystem — the same record pair under
the same policy always yields the same verdict, whichever sweep
backend (threads or processes) produced the candidate.  That is the
property that makes ``repro regress`` usable as a CI exit code.

What gates, and why:

* **coverage** — the paper's primary currency.  A relative drop beyond
  ``max_coverage_drop`` on any gated key (mean activity/fragment
  rates, visited totals, API count) is a regression.  Coverage on a
  seeded synthetic corpus is deterministic, so the threshold exists
  for *intentional* model changes, not machine noise.
* **phase time** — gated on each phase's **share of total self time**,
  not wall seconds.  A committed baseline record travels across
  machines; absolute timings don't, but "static extraction is 30% of
  the run" does.  Phases below ``min_phase_share`` of the baseline
  total are ignored (tiny denominators make noisy ratios).
* **replay divergence** — absolute, not baseline-relative.  A candidate
  record carrying a ``replay_diverged`` coverage count above
  ``max_replay_divergences`` (default 0) fails outright: a recorded
  script that stopped applying to the *same* app is a harness bug,
  whatever the baseline did.  Records without the key are unaffected.
* **comparability** — differing config fingerprints or corpus digests
  are themselves violations (unless the policy relaxes them): a green
  diff between incomparable runs is worse than a red one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.diff import diff_records
from repro.obs.registry import RunRecord

#: Coverage keys gated by default (all relative-drop checks).
DEFAULT_COVERAGE_KEYS = (
    "mean_activity_rate",
    "mean_fragment_rate",
    "activities_visited",
    "fragments_visited",
    "apis",
)


@dataclass(frozen=True)
class RegressionPolicy:
    """Thresholds for the gate; all ratios are relative to baseline."""

    max_coverage_drop: float = 0.10
    max_phase_time_increase: float = 0.25
    min_phase_share: float = 0.05
    coverage_keys: Tuple[str, ...] = DEFAULT_COVERAGE_KEYS
    require_same_config: bool = True
    require_same_corpus: bool = True
    # Replay divergence is absolute, not baseline-relative: a recorded
    # script that no longer applies to the *same* app is a harness
    # regression even when the baseline also diverged.
    max_replay_divergences: int = 0

    def describe(self) -> str:
        parts = [
            f"coverage drop <= {self.max_coverage_drop:.0%}",
            f"phase-time share increase <= "
            f"{self.max_phase_time_increase:.0%} "
            f"(phases >= {self.min_phase_share:.0%} of baseline)",
        ]
        if self.max_replay_divergences == 0:
            parts.append("no replay divergences")
        else:
            parts.append(
                f"replay divergences <= {self.max_replay_divergences}")
        return ", ".join(parts)


@dataclass(frozen=True)
class Violation:
    """One threshold breach."""

    kind: str  # "coverage" | "phase_time" | "comparability" | "replay"
    key: str
    baseline: Optional[float]
    candidate: Optional[float]
    limit: float
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "key": self.key,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "limit": self.limit,
            "detail": self.detail,
        }


@dataclass
class RegressionReport:
    """The gate's verdict: violations fail, warnings inform."""

    baseline_id: str
    candidate_id: str
    policy: RegressionPolicy
    violations: List[Violation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline_id": self.baseline_id,
            "candidate_id": self.candidate_id,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "warnings": list(self.warnings),
            "policy": self.policy.describe(),
        }

    def render_text(self) -> str:
        lines = [
            f"regression check: candidate {self.candidate_id} "
            f"vs baseline {self.baseline_id}",
            f"policy: {self.policy.describe()}",
            ("PASS" if self.ok
             else f"FAIL ({len(self.violations)} violation"
                  f"{'s' if len(self.violations) != 1 else ''})"),
        ]
        for violation in self.violations:
            lines.append(f"  - {violation.kind} {violation.key}: "
                         f"{violation.detail}")
        if self.warnings:
            lines.append("warnings:")
            for warning in self.warnings:
                lines.append(f"  * {warning}")
        return "\n".join(lines)


def check_regression(baseline: RunRecord, candidate: RunRecord,
                     policy: Optional[RegressionPolicy] = None,
                     ) -> RegressionReport:
    """Compare a candidate run against a baseline under a policy: judge
    their :func:`~repro.obs.diff.diff_records` diff."""
    policy = policy or RegressionPolicy()
    diff = diff_records(baseline, candidate)
    report = RegressionReport(baseline_id=diff.baseline_id,
                              candidate_id=diff.candidate_id,
                              policy=policy)

    # -- comparability -----------------------------------------------------
    # The diff notes each failed check, the config first.
    notes = iter(diff.notes)
    for key, same, required in (
            ("config", diff.same_config, policy.require_same_config),
            ("corpus", diff.same_corpus, policy.require_same_corpus)):
        if same:
            continue
        detail = next(notes)
        if required:
            report.violations.append(Violation(
                kind="comparability", key=key, baseline=None,
                candidate=None, limit=0.0, detail=detail))
        else:
            report.warnings.append(detail)

    # -- coverage ----------------------------------------------------------
    coverage = {d.key: d for d in diff.coverage}
    for key in policy.coverage_keys:
        delta = coverage.get(key)
        base = delta.before if delta else None
        if base is None or base <= 0:
            continue  # nothing to regress from
        cand = delta.after or 0.0
        drop = (base - cand) / base
        if drop > policy.max_coverage_drop:
            report.violations.append(Violation(
                kind="coverage", key=key, baseline=base,
                candidate=cand, limit=policy.max_coverage_drop,
                detail=(f"{base:g} -> {cand:g} "
                        f"(-{drop:.1%} > {policy.max_coverage_drop:.0%} "
                        f"allowed)")))

    # -- replay divergence (absolute gate, not baseline-relative) ----------
    replay = coverage.get("replay_diverged")
    diverged = replay.after if replay else None
    if diverged is not None and diverged > policy.max_replay_divergences:
        report.violations.append(Violation(
            kind="replay", key="replay_diverged", baseline=None,
            candidate=diverged,
            limit=float(policy.max_replay_divergences),
            detail=(f"{diverged:g} replayed script"
                    f"{'s' if diverged != 1 else ''} diverged "
                    f"(> {policy.max_replay_divergences} allowed) — "
                    "recorded suite no longer applies to this app")))

    # -- phase time (shares of total self time) ----------------------------
    # Each record sums its own phases, so a share does not depend on
    # the order the diff lists them in.
    base_total = baseline.total_phase_time()
    cand_total = candidate.total_phase_time()
    for delta in diff.phase_time:
        if delta.before is None or base_total <= 0:
            continue
        base_share = delta.before / base_total
        if base_share < policy.min_phase_share:
            continue
        cand_share = ((delta.after or 0.0) / cand_total
                      if cand_total > 0 else 0.0)
        increase = (cand_share - base_share) / base_share
        if increase > policy.max_phase_time_increase:
            report.violations.append(Violation(
                kind="phase_time", key=delta.key, baseline=base_share,
                candidate=cand_share,
                limit=policy.max_phase_time_increase,
                detail=(f"share of self time {base_share:.1%} -> "
                        f"{cand_share:.1%} (+{increase:.1%} > "
                        f"{policy.max_phase_time_increase:.0%} allowed)")))
    return report
