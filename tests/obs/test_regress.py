"""The deterministic regression gate (repro.obs.regress)."""

import json

from repro import FragDroidConfig
from repro.bench.parallel import explore_many
from repro.corpus.table1_apps import plan_for
from repro.obs import (
    RegressionPolicy,
    RunRecord,
    RunRegistry,
    check_regression,
)


def record(**overrides):
    r = RunRecord(label=overrides.pop("label", "sweep"), **overrides)
    r.run_id = r.compute_id()
    return r


def baseline_record():
    return record(
        config={"max_events": 8000},
        corpus_digest="aaa",
        coverage={"mean_activity_rate": 0.8, "mean_fragment_rate": 0.6,
                  "activities_visited": 40, "fragments_visited": 20,
                  "apis": 100},
        phases={"explore": {"count": 5, "self_total_s": 6.0},
                "static": {"count": 5, "self_total_s": 3.0},
                "tiny": {"count": 1, "self_total_s": 0.1}},
    )


def test_identical_records_pass():
    base = baseline_record()
    report = check_regression(base, base)
    assert report.ok and report.exit_code == 0
    assert report.violations == []
    assert "PASS" in report.render_text()


def test_coverage_drop_beyond_threshold_fails():
    base = baseline_record()
    cand = baseline_record()
    cand.coverage["mean_activity_rate"] = 0.7  # -12.5%
    report = check_regression(base, cand)
    assert not report.ok and report.exit_code == 1
    (violation,) = report.violations
    assert violation.kind == "coverage"
    assert violation.key == "mean_activity_rate"
    assert "FAIL (1 violation)" in report.render_text()
    # Within the 10% band the same move passes.
    cand.coverage["mean_activity_rate"] = 0.75
    assert check_regression(base, cand).ok
    # A *gain* never fails.
    cand.coverage["mean_activity_rate"] = 0.95
    assert check_regression(base, cand).ok


def test_missing_candidate_coverage_reads_as_zero():
    base = baseline_record()
    cand = baseline_record()
    del cand.coverage["apis"]
    report = check_regression(base, cand)
    assert [v.key for v in report.violations] == ["apis"]
    assert report.violations[0].candidate == 0.0


def test_phase_time_gates_on_share_not_seconds():
    base = baseline_record()
    cand = baseline_record()
    # The whole run slowing down uniformly (same shares) is fine — the
    # gate must hold across machines of different speeds.
    cand.phases = {name: {**stats,
                          "self_total_s": stats["self_total_s"] * 3}
                   for name, stats in base.phases.items()}
    assert check_regression(base, cand).ok
    # One phase ballooning relative to the rest is a regression.
    cand = baseline_record()
    cand.phases["static"]["self_total_s"] = 9.0
    report = check_regression(base, cand)
    assert [v.kind for v in report.violations] == ["phase_time"]
    assert report.violations[0].key == "static"


def test_tiny_phases_are_ignored():
    base = baseline_record()
    cand = baseline_record()
    # "tiny" holds ~1% of the baseline self time: even a 10x blowup in
    # it stays under min_phase_share and never gates.
    cand.phases["tiny"]["self_total_s"] = 1.0
    assert check_regression(base, cand).ok


def test_comparability_gates_unless_relaxed():
    base = baseline_record()
    cand = baseline_record()
    cand.config = {"max_events": 4000}
    cand.corpus_digest = "bbb"
    report = check_regression(base, cand)
    assert {v.key for v in report.violations} == {"config", "corpus"}
    assert all(v.kind == "comparability" for v in report.violations)
    relaxed = RegressionPolicy(require_same_config=False,
                               require_same_corpus=False)
    report = check_regression(base, cand, relaxed)
    assert report.ok
    assert len(report.warnings) == 2


def test_report_is_json_ready():
    base = baseline_record()
    cand = baseline_record()
    cand.coverage["apis"] = 10
    report = check_regression(base, cand)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["ok"] is False
    assert data["violations"][0]["kind"] == "coverage"
    assert "coverage drop" in data["policy"]


def test_verdict_is_deterministic_across_sweep_backends(tmp_path):
    """The acceptance property: the same sweep on the thread and the
    process backend yields records the gate judges identically."""
    plans = [plan_for(p) for p in ("org.rbc.odb", "com.happy2.bbmanga",
                                   "net.aviascanner.aviascanner")]
    records = {}
    for backend in ("thread", "process"):
        registry = RunRegistry(tmp_path / backend)
        config = FragDroidConfig(run_registry=registry)
        explore_many(plans, config=config, max_workers=2, backend=backend)
        (records[backend],) = registry.list()
    thread, process = records["thread"], records["process"]
    assert thread.coverage == process.coverage
    assert thread.corpus_digest == process.corpus_digest
    assert thread.config == process.config
    for base, cand in ((thread, process), (process, thread)):
        report = check_regression(base, cand)
        assert report.ok and report.exit_code == 0


def replay_record(diverged=0.0):
    return record(
        label="replay:com.app",
        coverage={"replay_scripts": 5.0, "replay_diverged": diverged,
                  "replay_events": 20.0, "replay_applied": 20.0 - diverged,
                  "activities_visited": 3, "fragments_visited": 2},
    )


def test_replay_divergence_is_gated_absolutely():
    """Divergence on an unchanged app fails even when the baseline also
    diverged — the gate is absolute, not baseline-relative."""
    base = replay_record(diverged=2.0)
    cand = replay_record(diverged=1.0)
    report = check_regression(base, cand, RegressionPolicy(
        require_same_config=False, require_same_corpus=False))
    kinds = [v.kind for v in report.violations]
    assert "replay" in kinds
    violation = next(v for v in report.violations if v.kind == "replay")
    assert violation.key == "replay_diverged"
    assert violation.candidate == 1.0
    assert report.exit_code == 1


def test_clean_replay_record_passes():
    base = replay_record()
    report = check_regression(base, base)
    assert report.ok


def test_replay_allowance_is_configurable():
    base = replay_record()
    cand = replay_record(diverged=1.0)
    policy = RegressionPolicy(max_replay_divergences=1,
                              require_same_config=False,
                              require_same_corpus=False)
    report = check_regression(base, cand, policy)
    assert not any(v.kind == "replay" for v in report.violations)
    assert "replay divergences <= 1" in policy.describe()
    assert "no replay divergences" in RegressionPolicy().describe()


def test_records_without_replay_counters_are_unaffected():
    base = baseline_record()
    report = check_regression(base, base)
    assert report.ok
    assert not any(v.kind == "replay" for v in report.violations)
