"""Drift checks between BENCHMARK.json and the ledger's code.

Run with ``pytest benchmarks/ledger`` from the repository root; the
default test run does not collect it, because the metric-name checks
run one short market workload.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = ledger.load_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _names(section: str):
    return [entry["name"] for entry in SPEC[section]]


def test_sizes_and_names():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (_names("workloads") + _names("end_to_end")
             + _names("per_layer"))
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)


def test_workloads_match_the_code():
    names = _names("workloads")
    assert set(names) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("traced,section", [(False, "end_to_end"),
                                            (True, "per_layer")])
def test_produced_metrics_match_the_spec(traced, section):
    result = ledger.run_workload("market", 2018, seconds=0.0,
                                 traced=traced)
    assert result["correct"], result
    assert set(result["metrics"]) == set(_names(section))


def test_every_wrap_target_resolves_to_a_callable():
    for sites, _ in spans.LAYERS.values():
        for site in sites:
            _, _, raw = spans.resolve(site)
            assert callable(spans.unwrap(raw)), site


def _raw_attributes():
    return [spans.resolve(site)[2]
            for sites, _ in spans.LAYERS.values() for site in sites]


def test_wrappers_restore_the_originals():
    before = _raw_attributes()
    with pytest.raises(RuntimeError):
        with spans.patched(spans.SpanRecorder()):
            inside = _raw_attributes()
            raise RuntimeError("unwinds through the patch")
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, _raw_attributes()))


def test_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: sum(range(20000)))

    def parent():
        leaf()
        leaf()
        return sum(range(20000))

    recorder.wrap("parent", parent)()
    calls, self_s = recorder.totals()
    assert calls == {"leaf": 2, "parent": 1}
    assert sum(self_s.values()) == pytest.approx(recorder.root_seconds())
    assert 0 < self_s["parent"] < recorder.root_seconds()


def test_nearest_rank_percentile():
    values = list(range(1, 21))
    assert ledger.percentile(values, 50) == 10
    assert ledger.percentile(values, 95) == 19
    assert ledger.percentile([7.0], 90) == 7.0


def test_expected_outputs_pin_the_paper_numbers():
    expected = json.loads(ledger.EXPECTED_PATH.read_text(encoding="utf-8"))
    seed_2018 = expected["market"]["2018"]
    assert (seed_2018["total"], seed_2018["packed"],
            seed_2018["with_fragments"]) == (217, 9, 188)
    assert round(expected["table1"]["mean_activity_rate"], 4) == 0.7195
    assert set(expected["table1"]["apps"]) == set(expected["serve"])
