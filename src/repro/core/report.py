"""Serialization of models and run results.

JSON round-trips for the AFTM (so a model extracted in one session can
seed another — the evolutionary updates compose), and a structured JSON
report for a whole exploration run (consumed by the CLI and usable by
downstream tooling).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.explorer import ExplorationResult
from repro.errors import ReproError, StoreError
from repro.obs import Span, aggregate_spans
from repro.static.aftm import AFTM, Node, NodeKind, activity_node, fragment_node
from repro.store import check_shape
from repro.types import InvocationSource


# ---------------------------------------------------------------------------
# AFTM <-> JSON
# ---------------------------------------------------------------------------

def aftm_to_dict(aftm: AFTM) -> Dict:
    return {
        "package": aftm.package,
        "entry": aftm.entry.name if aftm.entry else None,
        "activities": sorted(n.name for n in aftm.activities),
        "fragments": sorted(n.name for n in aftm.fragments),
        "visited": sorted(n.name for n in aftm.iter_visited()),
        "edges": [
            {
                "src": edge.src.name,
                "src_kind": edge.src.kind.value,
                "dst": edge.dst.name,
                "dst_kind": edge.dst.kind.value,
                "kind": edge.kind.name,
                "host": edge.host,
                "trigger": edge.trigger,
            }
            for edge in sorted(aftm.iter_edges())
        ],
    }


def aftm_to_json(aftm: AFTM) -> str:
    return json.dumps(aftm_to_dict(aftm), indent=2, sort_keys=True)


_NODE_KINDS = frozenset(kind.value for kind in NodeKind)

#: What :func:`aftm_to_dict` writes (see :func:`repro.store.check_shape`).
_AFTM_SHAPE = {
    "package": str, "?entry": (str, type(None)), "?activities": [str],
    "?fragments": [str], "?visited": [str],
    "?edges": [{"src": str, "src_kind": _NODE_KINDS, "dst": str,
                "dst_kind": _NODE_KINDS, "kind": str,
                "host": (str, type(None)), "trigger": str}],
}


def aftm_from_dict(data, where: str = "aftm") -> AFTM:
    """The AFTM :func:`aftm_to_dict` wrote.  Raises :class:`StoreError`
    for any other value, naming where in it the damage is."""
    check_shape(data, _AFTM_SHAPE, where)
    aftm = AFTM(data["package"])
    if data.get("entry"):
        aftm.set_entry(activity_node(data["entry"]))
    for name in data.get("activities", ()):
        aftm.add_node(activity_node(name))
    for name in data.get("fragments", ()):
        aftm.add_node(fragment_node(name))
    for index, edge in enumerate(data.get("edges", ())):
        try:
            aftm.add_transition(
                Node(NodeKind(edge["src_kind"]), edge["src"]),
                Node(NodeKind(edge["dst_kind"]), edge["dst"]),
                host=edge["host"], trigger=edge["trigger"])
        except ReproError as exc:  # an edge no AFTM holds (F -> A)
            raise StoreError(f"{where}.edges[{index}]: {exc}") from exc
    visited = set(data.get("visited", ()))
    for node in list(aftm.iter_nodes()):
        if node.name in visited:
            aftm.mark_visited(node)
    return aftm


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
    # Observability extras appear only when the run was traced, so the
    # default (no-op tracer) report stays byte-identical.
    if result.spans:
        report["timing"] = timing_to_dict(result.spans)
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
    "?timing": [{"span": str, "count": int, **{
        key: float for key in ("total_s", "mean_ms", "p50_ms", "p90_ms",
                               "p99_ms", "max_ms")}}],
    "?degradation": {"?faults": {str: int}, "?total_faults": int,
                     "?backoff_s": float, "?quarantined": [str]},
}


def check_report(data, where: str = "report") -> Dict:
    """``data``, if it is a report :func:`result_to_dict` could have
    written; else :class:`StoreError` naming where the damage is."""
    check_shape(data, _REPORT_SHAPE, where)
    aftm_from_dict(data["aftm"], f"{where}.aftm")
    return data


# ---------------------------------------------------------------------------
# Timing (repro.obs)
# ---------------------------------------------------------------------------

def timing_to_dict(spans: List[Span]) -> List[Dict]:
    """Per-phase aggregates of a traced run, slowest phase first."""
    return [
        {
            "span": stat.name,
            "count": stat.count,
            "total_s": round(stat.total, 6),
            "mean_ms": round(stat.mean * 1000, 3),
            "p50_ms": round(stat.p50 * 1000, 3),
            "p90_ms": round(stat.p90 * 1000, 3),
            "p99_ms": round(stat.p99 * 1000, 3),
            "max_ms": round(stat.maximum * 1000, 3),
        }
        for stat in aggregate_spans(spans)
    ]
