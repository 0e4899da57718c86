"""Span-tree analytics: self-time, critical path, flamegraph output.

A traced run records a flat list of spans with parent pointers; this
module folds them back into trees and answers the profiler questions:

* :func:`build_trees` — one :class:`FlameNode` tree per trace root;
* :func:`phase_stats` — per-name *self* time (a span's duration minus
  its children's): count, total and p50/p90/p99, the one per-phase
  aggregation every view reads (the run record, ``repro show``, the
  run page's timing table and bars), ranked by :func:`ranked_phases`;
* :func:`critical_path` — the chain of slowest descendants from a
  root, i.e. where an optimisation would actually shorten the run;
* :func:`collapsed_stacks` — classic ``a;b;c <value>`` collapsed-stack
  lines (value = self time in microseconds), the input format of every
  flamegraph renderer; the values over a tree sum to its root span's
  duration exactly (self time telescopes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.metrics import percentile
from repro.obs.tracer import Span


@dataclass
class FlameNode:
    """One span plus its children, in start order."""

    span: Span
    children: List["FlameNode"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        """Duration not accounted for by any child span."""
        return self.span.duration - sum(c.span.duration
                                        for c in self.children)

    def walk(self) -> Iterable["FlameNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_trees(spans: Sequence[Span]) -> List[FlameNode]:
    """Reconstruct the span forest: one tree per trace root.

    Orphans (spans whose parent never finished — a crashed run) are
    promoted to roots so no recorded time is dropped.
    """
    nodes: Dict[int, FlameNode] = {
        span.span_id: FlameNode(span) for span in spans
    }
    roots: List[FlameNode] = []
    for span in spans:
        node = nodes[span.span_id]
        parent = (nodes.get(span.parent_id)
                  if span.parent_id is not None else None)
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start)
    roots.sort(key=lambda n: n.span.start)
    return roots


def self_time_stats(values: Sequence[float]) -> Dict[str, float]:
    """Count, total and p50/p90/p99 of one phase's self times (seconds
    in, milliseconds out for the percentiles)."""
    return {
        "count": len(values),
        "self_total_s": round(sum(values), 6),
        "self_p50_ms": round(percentile(values, 0.50) * 1000, 3),
        "self_p90_ms": round(percentile(values, 0.90) * 1000, 3),
        "self_p99_ms": round(percentile(values, 0.99) * 1000, 3),
    }


def phase_stats(spans) -> Dict[str, Dict[str, float]]:
    """Per-phase (span-name) self-time stats with p50/p90/p99.  The
    ``self_total_s`` values sum, to rounding, to the roots' durations."""
    self_times: Dict[str, List[float]] = {}
    for root in build_trees(list(spans)):
        for node in root.walk():
            self_times.setdefault(node.span.name, []).append(node.self_time)
    return {name: self_time_stats(values)
            for name, values in self_times.items()}


def ranked_phases(phases: Dict[str, Dict[str, float]],
                  ) -> List[Tuple[str, Dict[str, float]]]:
    """The entries of ``phases`` (the :func:`phase_stats` shape), the
    highest p90 self time first; ties keep their order."""
    return sorted(phases.items(),
                  key=lambda item: item[1].get("self_p90_ms", 0.0),
                  reverse=True)


def critical_path(spans: Sequence[Span]) -> List[Span]:
    """The chain of slowest descendants from the slowest root.

    This is the sequence of spans an optimisation has to shorten to
    shorten the run; everything off this path is hidden behind it.
    """
    roots = build_trees(spans)
    if not roots:
        return []
    node = max(roots, key=lambda n: n.span.duration)
    path = [node.span]
    while node.children:
        node = max(node.children, key=lambda n: n.span.duration)
        path.append(node.span)
    return path


def collapsed_stacks(spans: Sequence[Span]) -> List[str]:
    """Collapsed-stack lines, ``name;name;... <self-time µs>``.

    Equal stacks aggregate; the per-line values over one trace sum to
    the root span's duration (in µs) within floating-point error, so a
    flamegraph rendered from these lines has the run's true width.
    """
    totals: Dict[str, float] = {}

    def visit(node: FlameNode, prefix: str) -> None:
        stack = f"{prefix};{node.span.name}" if prefix else node.span.name
        totals[stack] = totals.get(stack, 0.0) + node.self_time
        for child in node.children:
            visit(child, stack)

    for root in build_trees(spans):
        visit(root, "")
    return [f"{stack} {seconds * 1e6:.3f}"
            for stack, seconds in sorted(totals.items())]
