"""Span-tree analytics: trees, self time, critical path, flamegraphs."""

from repro.obs import (
    Span,
    build_trees,
    collapsed_stacks,
    critical_path,
    phase_stats,
)


def _span(name, span_id, parent_id, start, duration, trace_id=1):
    return Span(name=name, span_id=span_id, trace_id=trace_id,
                parent_id=parent_id, depth=0, start=start,
                duration=duration, attributes={})


def _forest():
    # root(10) -> a(4) -> leaf(1)
    #          -> b(3)
    return [
        _span("root", 1, None, 0.0, 10.0),
        _span("a", 2, 1, 1.0, 4.0),
        _span("leaf", 3, 2, 1.5, 1.0),
        _span("b", 4, 1, 6.0, 3.0),
    ]


def test_build_trees_reconstructs_parent_child_structure():
    roots = build_trees(_forest())
    assert len(roots) == 1
    root = roots[0]
    assert root.span.name == "root"
    assert [c.span.name for c in root.children] == ["a", "b"]
    assert [n.span.name for n in root.walk()] == ["root", "a", "leaf", "b"]


def test_orphan_spans_are_promoted_to_roots():
    spans = [_span("child", 2, 99, 0.0, 1.0)]
    roots = build_trees(spans)
    assert [r.span.name for r in roots] == ["child"]


def test_phase_stats_self_time_subtracts_children():
    # A second trace, whose root is another "a" with no children.
    spans = _forest() + [_span("a", 5, None, 20.0, 2.0, trace_id=2)]
    stats = phase_stats(spans)
    totals = {name: s["self_total_s"] for name, s in stats.items()}
    assert abs(totals["root"] - 3.0) < 1e-9   # 10 - (4 + 3)
    assert abs(totals["a"] - 5.0) < 1e-9      # (4 - 1) + 2
    assert abs(totals["leaf"] - 1.0) < 1e-9
    assert abs(totals["b"] - 3.0) < 1e-9
    assert stats["a"]["count"] == 2
    # Self time telescopes: the totals sum to the roots' durations.
    assert abs(sum(totals.values()) - 12.0) < 1e-9


def test_critical_path_descends_slowest_children():
    path = critical_path(_forest())
    assert [s.name for s in path] == ["root", "a", "leaf"]
    assert critical_path([]) == []


def test_collapsed_stacks_telescope_to_root_duration():
    lines = collapsed_stacks(_forest())
    assert "root 3000000.000" in lines
    assert "root;a;leaf 1000000.000" in lines
    total = sum(float(line.rsplit(" ", 1)[1]) for line in lines)
    assert abs(total - 10.0 * 1e6) < 1e-3


def test_collapsed_stacks_aggregate_equal_stacks():
    spans = [
        _span("root", 1, None, 0.0, 5.0),
        _span("x", 2, 1, 0.0, 1.0),
        _span("x", 3, 1, 2.0, 2.0),
    ]
    lines = collapsed_stacks(spans)
    assert lines == ["root 2000000.000", "root;x 3000000.000"]
