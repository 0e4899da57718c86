"""Self-contained HTML report for one exploration run.

A single ``report.html`` an analyst can open or attach to a ticket:
run summary, coverage tables, the AFTM edge list, the sensitive-API
attribution table, and the trace.  Plain semantic HTML tables — no
external assets, no scripts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.explorer import ExplorationResult
from repro.core.sensitive_analysis import relations_from_invocations
from repro.obs import timing_rows
from repro.obs.dashboard import esc, html_table

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; line-height: 1.45; }
table { border-collapse: collapse; margin: 0.75rem 0 1.5rem; }
th, td { border: 1px solid #bbb; padding: 0.3rem 0.6rem;
         text-align: left; font-size: 0.92rem; }
th { background: #f0f0f0; }
caption { text-align: left; font-weight: 600; padding: 0.25rem 0; }
code { background: #f6f6f6; padding: 0 0.25rem; }
details { margin: 1rem 0; }
""".strip()


def _columns(*labels: str) -> List[Tuple[str, bool]]:
    """Headers for :func:`html_table`; the report aligns no column."""
    return [(label, False) for label in labels]


def render_html_report(result: ExplorationResult) -> str:
    """The complete document as a string."""
    fiva_visited, fiva_total = result.fragments_in_visited_activities()
    stats = result.stats

    summary_rows = [
        ["Activities", f"{len(result.visited_activities)} / "
                       f"{result.activity_total}",
         f"{result.activity_rate:.1%}"],
        ["Fragments", f"{len(result.visited_fragments)} / "
                      f"{result.fragment_total}",
         f"{result.fragment_rate:.1%}" if result.fragment_total else "n/a"],
        ["Fragments in visited activities",
         f"{fiva_visited} / {fiva_total}", ""],
        ["Distinct interfaces", stats.distinct_interfaces, ""],
        ["Test cases", stats.test_cases,
         f"{len(result.passing_test_cases)} passing"],
        ["Events / crashes / restarts",
         f"{stats.events} / {stats.crashes} / {stats.restarts}", ""],
        ["Reflection failures", stats.reflection_failures, ""],
    ]

    visited = set(result.visited_activities) | set(result.visited_fragments)
    component_rows = []
    for name in sorted(result.info.activities):
        component_rows.append(
            ["Activity", name,
             "visited" if name in visited else "unvisited"]
        )
    for name in sorted(result.info.fragments):
        component_rows.append(
            ["Fragment", name,
             "visited" if name in visited else "unvisited"]
        )

    edge_rows = [
        [edge.kind.name, edge.src.simple_name, edge.dst.simple_name,
         edge.host.rsplit(".", 1)[-1] if edge.host else "",
         edge.trigger]
        for edge in sorted(result.aftm.edges)
    ]

    relations = relations_from_invocations(result.package,
                                           result.api_invocations)
    api_rows = [
        [relation.api, relation.symbol,
         "activity" if relation.by_activity else "",
         "fragment" if relation.by_fragment else ""]
        for relation in relations
    ]

    trace = result.trace
    trace_lines = "\n".join(esc(event) for event in trace)

    # Per-phase timing appears only for traced runs, so the default
    # (no-op tracer) report stays byte-identical.
    timing_table = ""
    if result.spans:
        timing_table = html_table(
            _columns("Span", "Count", "Total (s)", "Mean (ms)", "p50 (ms)",
                     "p90 (ms)", "p99 (ms)", "Max (ms)"),
            timing_rows(result.spans),
            caption="Per-phase timing",
        )

    # The degradation section exists only for fault-injected runs.
    degradation_table = ""
    if result.degradation is not None:
        deg = result.degradation
        fault_rows = [[kind, count]
                      for kind, count in sorted(deg.faults.items())]
        degradation_table = html_table(
            _columns("Metric", "Value"),
            [["Faults injected", deg.total_faults],
             *fault_rows,
             ["Retries (recovered / gave up)",
              f"{deg.retries} ({deg.recoveries} / {deg.giveups})"],
             ["Backoff (simulated s)", f"{deg.backoff_s:.2f}"],
             ["Reconnects", deg.reconnects],
             ["Quarantined widgets",
              ", ".join(deg.quarantined) or "none"],
             ["Items re-enqueued / abandoned",
              f"{deg.requeued_items} / {deg.abandoned_items}"]],
            caption=f"Degradation — fault profile "
                    f"'{deg.profile}' (seed {deg.seed})",
        )

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>FragDroid report — {esc(result.package)}</title>
<style>{_STYLE}</style>
</head>
<body>
<h1>FragDroid exploration report</h1>
<p>Package: <code>{esc(result.package)}</code></p>
{html_table(_columns("Metric", "Value", "Rate"), summary_rows,
            caption="Run summary")}
{timing_table}{degradation_table}{html_table(
    _columns("Kind", "Class", "Status"), component_rows,
    caption="Components")}
{html_table(_columns("Kind", "From", "To", "Host", "Trigger"), edge_rows,
            caption="AFTM transitions")}
{html_table(_columns("API", "Symbol", "By activity", "By fragment"),
            api_rows, caption="Sensitive API relations")}
<details>
<summary>Exploration trace ({len(trace)} events)</summary>
<pre>{trace_lines}</pre>
</details>
</body>
</html>
"""
