"""Serialization of run results.

A structured JSON report for a whole exploration run (consumed by the
CLI and usable by downstream tooling).  Its ``aftm`` is the model's one
JSON form, :func:`repro.static.aftm.aftm_to_dict`.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.explorer import ExplorationResult
from repro.static.aftm import aftm_from_dict, aftm_to_dict
from repro.store import check_shape
from repro.types import InvocationSource


# ---------------------------------------------------------------------------
# Exploration report
# ---------------------------------------------------------------------------

def result_to_dict(result: ExplorationResult) -> Dict:
    """A machine-readable report of one FragDroid run."""
    fiva_visited, fiva_total = result.fragments_in_visited_activities()
    invocations: List[Dict] = [
        {
            "api": inv.api,
            "component": inv.component.cls,
            "source": inv.source.value,
            "step": inv.step,
        }
        for inv in result.api_invocations
    ]
    report: Dict = {
        "package": result.package,
        "coverage": {
            "activities": {
                "visited": sorted(result.visited_activities),
                "sum": result.activity_total,
                "rate": result.activity_rate,
            },
            "fragments": {
                "visited": sorted(result.visited_fragments),
                "sum": result.fragment_total,
                "rate": result.fragment_rate,
            },
            "fragments_in_visited_activities": {
                "visited": fiva_visited,
                "sum": fiva_total,
            },
        },
        "stats": {
            "test_cases": result.stats.test_cases,
            "failed_items": result.stats.failed_items,
            "reflection_failures": result.stats.reflection_failures,
            "crashes": result.stats.crashes,
            "restarts": result.stats.restarts,
            "events": result.stats.events,
            "aftm_updates": result.stats.aftm_updates,
        },
        "api_invocations": invocations,
        "aftm": aftm_to_dict(result.aftm),
    }
    # Metrics appear only when the run was traced, so the default
    # (no-op tracer) report stays byte-identical.  A traced run's time
    # is in its spans (``spans.jsonl``), not in the report.
    if result.metrics:
        report["metrics"] = result.metrics
    # Likewise the degradation section exists only for fault-injected
    # runs (repro.faults).
    if result.degradation is not None:
        report["degradation"] = result.degradation.to_dict()
    return report


def result_to_json(result: ExplorationResult) -> str:
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True)


_RATE_SHAPE = {"visited": [str], "sum": int, "rate": float}

#: What :func:`result_to_dict` writes and the run-directory readers read.
_REPORT_SHAPE = {
    "package": str,
    "coverage": {"activities": _RATE_SHAPE, "fragments": _RATE_SHAPE,
                 "fragments_in_visited_activities": {"visited": int,
                                                     "sum": int}},
    "stats": {str: int},
    "api_invocations": [{
        "api": str, "component": str, "step": int,
        "source": frozenset(source.value for source in InvocationSource),
    }],
    "aftm": dict,
    "?degradation": {"?faults": {str: int}, "?total_faults": int,
                     "?backoff_s": float, "?quarantined": [str]},
}


def check_report(data, where: str = "report") -> Dict:
    """``data``, if it is a report :func:`result_to_dict` could have
    written; else :class:`StoreError` naming where the damage is."""
    check_shape(data, _REPORT_SHAPE, where)
    aftm_from_dict(data["aftm"], f"{where}.aftm")
    return data
