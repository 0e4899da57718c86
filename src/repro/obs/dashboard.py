"""Self-contained HTML dashboard for a recorded run (or a fleet).

``repro dashboard <run dir> -o dash.html`` renders one file an analyst
can open anywhere: stat tiles for the headline coverage numbers,
inline-SVG coverage-over-time sparklines (one single-series card per
curve: activities, fragments, FIVAs, sensitive APIs), the per-phase
self-time table and bars (:func:`repro.obs.flame.phase_stats`, the
rows ``repro show`` prints) and the critical path from the span
record, the stall table, the degradation panel of a faulted run, the
components, AFTM transitions and sensitive-API relations of the
report, the exploration trace, and — when pointed at a directory of
per-app run directories (``repro batch`` output or ``bench.parallel``
sweep aggregation) — a per-app fleet table.  The run page is the saved run's ``report.html``:
:func:`repro.core.artifacts.save_artifacts` writes exactly what
``repro dashboard DIR`` renders.

No scripts, no external assets: charts are static inline SVG with a
table fallback (`<details>`) for every curve, colors are CSS custom
properties with a dark scheme under ``prefers-color-scheme``, and all
marks follow the house chart specs (2px lines, step curves for the
cumulative discovery counts, single-hue magnitude bars with rounded
data ends, text in ink tokens — never in series color).
"""

from __future__ import annotations

import html
import pathlib
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import StoreError
from repro.obs.events import ITEM_FAILED, ITEM_START, Event
from repro.obs.flame import critical_path, phase_stats, ranked_phases
from repro.obs.sinks import read_events, read_spans
from repro.obs.timeline import (
    CoveragePoint,
    Stall,
    coverage_timeline,
    discovery_stats,
    stalls,
)
from repro.obs.tracer import Span
from repro.store import check_shape, read_document

PathLike = Union[str, pathlib.Path]


# ---------------------------------------------------------------------------
# Run loading
# ---------------------------------------------------------------------------

@dataclass
class RunData:
    """Everything the dashboard knows about one recorded run."""

    path: pathlib.Path
    report: Dict
    events: List[Event] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)

    @property
    def package(self) -> str:
        return str(self.report.get("package", self.path.name))

    @property
    def api_steps(self) -> List[int]:
        """The device steps of the run's sensitive-API invocations."""
        return [int(inv["step"])
                for inv in self.report.get("api_invocations", [])]


#: A run directory's commit marker, ``{"files": [...]}``, listing every
#: file of the run; ``save_artifacts`` removes it first, writes it last.
MANIFEST = "manifest.json"


def manifest_files(directory: PathLike) -> List[str]:
    """The files a run directory's commit marker lists.  Raises
    :class:`StoreError` when the marker is missing or malformed."""
    path = pathlib.Path(directory) / MANIFEST
    try:
        files = check_shape(read_document(path), {"files": [str]},
                            "manifest")["files"]
    except FileNotFoundError:
        raise StoreError(f"{path.parent}: not a committed run directory "
                         f"(no {MANIFEST})") from None
    except StoreError as exc:
        raise StoreError(f"{path}: {exc}") from exc
    for name in files:
        parts = pathlib.PurePosixPath(name).parts
        if not parts or parts[0] == "/" or ".." in parts:
            raise StoreError(f"{path}: {name!r} is not a path inside the "
                             "run directory")
    return files


def load_run(directory: PathLike) -> RunData:
    """Load one run directory (``explore --save`` layout): the one code
    that decides what a run directory is.  Raises :class:`StoreError`
    when its :data:`MANIFEST` is missing or malformed, a file it lists
    is missing, or ``report.json`` is not a report.  ``events.jsonl``
    and ``spans.jsonl`` are read when the marker lists them."""
    from repro.core.report import check_report

    base = pathlib.Path(directory)
    files = manifest_files(base)
    missing = [name for name in dict.fromkeys(["report.json", *files])
               if not (base / name).is_file()]
    if missing:
        raise StoreError(f"{base}: damaged run directory: "
                         f"{', '.join(missing)} missing")
    try:
        report = check_report(read_document(base / "report.json"))
    except StoreError as exc:
        raise StoreError(f"{base / 'report.json'}: {exc}") from exc
    events = (read_events(base / "events.jsonl")
              if "events.jsonl" in files else [])
    spans = (read_spans(base / "spans.jsonl")
             if "spans.jsonl" in files else [])
    return RunData(path=base, report=report, events=events, spans=spans)


def load_fleet(directory: PathLike) -> List[RunData]:
    """Every run directory directly under ``directory``, sorted by
    package (the ``repro batch`` output layout).  A subdirectory
    :func:`load_run` refuses is skipped with a ``RuntimeWarning``."""
    runs = []
    for child in sorted(pathlib.Path(directory).iterdir()):
        if not child.is_dir():
            continue
        try:
            runs.append(load_run(child))
        except StoreError as exc:
            warnings.warn(f"skipping an uncommitted run: {exc}",
                          RuntimeWarning, stacklevel=2)
    return sorted(runs, key=lambda run: run.package)


# ---------------------------------------------------------------------------
# Chart chrome (reference palette; swap hexes to rebrand)
# ---------------------------------------------------------------------------

_STYLE = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
  --bar: #2a78d6;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
    --bar: #3987e5;
  }
}
* { box-sizing: border-box; }
body { font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
       margin: 0; background: var(--page); color: var(--ink);
       line-height: 1.45; }
main { max-width: 76rem; margin: 0 auto; padding: 1.5rem; }
h1 { font-size: 1.35rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.0rem; margin: 2rem 0 0.75rem; }
.sub { color: var(--ink-2); margin: 0 0 1.25rem; font-size: 0.9rem; }
.tiles { display: grid; gap: 0.75rem;
         grid-template-columns: repeat(auto-fill, minmax(10.5rem, 1fr)); }
.tile { background: var(--surface); border: 1px solid var(--border);
        border-radius: 0.5rem; padding: 0.7rem 0.9rem; }
.tile .label { font-size: 0.78rem; color: var(--ink-2); }
.tile .value { font-size: 1.6rem; font-weight: 600; }
.tile .detail { font-size: 0.78rem; color: var(--muted); }
.cards { display: grid; gap: 0.75rem;
         grid-template-columns: repeat(auto-fill, minmax(16rem, 1fr)); }
.card { background: var(--surface); border: 1px solid var(--border);
        border-radius: 0.5rem; padding: 0.7rem 0.9rem; }
.card .label { font-size: 0.82rem; color: var(--ink-2);
               margin-bottom: 0.35rem; display: flex;
               align-items: center; gap: 0.4rem; }
.card .label .final { margin-left: auto; color: var(--ink);
                      font-weight: 600; }
.key-dot { width: 8px; height: 8px; border-radius: 50%;
           display: inline-block; }
svg text { font-family: inherit; }
table { border-collapse: collapse; background: var(--surface);
        font-size: 0.85rem; width: 100%; }
th, td { border: 1px solid var(--border); padding: 0.3rem 0.6rem;
         text-align: left; }
td.num, th.num { text-align: right;
                 font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; background: var(--page); }
details { margin: 0.5rem 0 1rem; }
summary { cursor: pointer; color: var(--ink-2); font-size: 0.85rem; }
.bars .row { display: grid;
             grid-template-columns: 15rem 1fr; gap: 0.6rem;
             align-items: center; margin: 0.3rem 0; }
.bars .name { font-size: 0.82rem; color: var(--ink-2);
              overflow: hidden; text-overflow: ellipsis;
              white-space: nowrap; }
.badge { display: inline-block; padding: 0 0.45rem; border-radius: 0.6rem;
         font-size: 0.78rem; border: 1px solid var(--border); }
.path { font-size: 0.85rem; color: var(--ink-2); }
.path code { color: var(--ink); background: var(--page);
             padding: 0 0.25rem; border-radius: 0.2rem; }
.empty { color: var(--muted); font-size: 0.85rem; }
""".strip()

_SERIES = (
    ("activities", "Activities discovered", "--series-1"),
    ("fragments", "Fragments discovered", "--series-2"),
    ("fivas", "FIVAs discovered", "--series-3"),
    ("apis", "Sensitive APIs observed", "--series-4"),
)


def esc(value: object) -> str:
    """``value`` as escaped HTML text."""
    return html.escape(str(value))


def html_table(headers: Sequence[Tuple[str, bool]],
               rows: Sequence[Sequence[object]], caption: str = "") -> str:
    """A plain HTML table, the dashboard's and the run report's.

    ``headers`` pairs each column's label with whether it holds numbers
    (its cells get ``class=num``); each row gives one cell per column.
    """
    parts = ["<table>"]
    if caption:
        parts.append(f"<caption>{esc(caption)}</caption>")
    parts.append("<tr>")
    parts.extend(
        f"<th{' class=num' if num else ''}>{esc(label)}</th>"
        for label, num in headers
    )
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for (_, num), cell in zip(headers, row):
            parts.append(f"<td{' class=num' if num else ''}>{esc(cell)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _tile(label: str, value: object, detail: str = "") -> str:
    detail_html = f'<div class="detail">{esc(detail)}</div>' if detail else ""
    return (f'<div class="tile"><div class="label">{esc(label)}</div>'
            f'<div class="value">{esc(value)}</div>{detail_html}</div>')


# ---------------------------------------------------------------------------
# Inline-SVG marks
# ---------------------------------------------------------------------------

def _sparkline(points: Sequence[Tuple[float, float]], color_var: str,
               label: str, step: bool, ceiling: float = 0,
               width: int = 280, height: int = 64) -> str:
    """A single-series curve over ``(x, value)`` points: 2px line, 10%
    area wash, 8px end marker with a 2px surface ring, hairline
    baseline.  The data decides the interpolation: ``step`` holds each
    value until the next point (cumulative counts, levels), otherwise
    the points are joined linearly (independent samples).  The y axis
    tops out at the largest value, or at ``ceiling`` when that is
    higher."""
    pad = 6
    max_x = max(x for x, _ in points) or 1
    top = max(max(value for _, value in points), ceiling, 0) or 1

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * x / max_x

    def sy(value: float) -> float:
        return height - pad - (height - 2 * pad) * max(value, 0) / top

    if step:
        coords: List[str] = []
        previous_y = sy(points[0][1])
        for x, value in points:
            coords.append(f"{sx(x):.1f},{previous_y:.1f}")
            previous_y = sy(value)
            coords.append(f"{sx(x):.1f},{previous_y:.1f}")
        end_x = sx(max_x)
        coords.append(f"{end_x:.1f},{previous_y:.1f}")
    else:
        coords = [f"{sx(x):.1f},{sy(value):.1f}" for x, value in points]
        end_x = sx(points[-1][0])
    line = " ".join(coords)
    base = height - pad
    area = f"{pad:.1f},{base:.1f} {line} {end_x:.1f},{base:.1f}"
    mark_x, mark_y = sx(points[-1][0]), sy(points[-1][1])
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" aria-label="{esc(label)}">'
        f'<line x1="{pad}" y1="{base}" x2="{width - pad}" y2="{base}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
        f'<polygon points="{area}" fill="var({color_var})" opacity="0.1"/>'
        f'<polyline points="{line}" fill="none" stroke="var({color_var})" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{mark_x:.1f}" cy="{mark_y:.1f}" r="4" '
        f'fill="var({color_var})" stroke="var(--surface)" stroke-width="2"/>'
        f"</svg>"
    )


def _card(label: str, final: str, color_var: str, chart: str) -> str:
    """One chart card: keyed label, final value, then the chart."""
    return (
        '<div class="card"><div class="label">'
        f'<span class="key-dot" style="background: var({color_var})">'
        "</span>"
        f"{esc(label)}"
        f'<span class="final">{esc(final)}</span></div>'
        + chart
        + "</div>"
    )


def _coverage_cards(points: Sequence[CoveragePoint],
                    totals: Dict[str, Optional[int]]) -> str:
    cards = []
    for series, label, color_var in _SERIES:
        final = getattr(points[-1], series)
        total = totals.get(series)
        final_text = f"{final} / {total}" if total else f"{final}"
        # Cumulative counts are step functions: each holds until the
        # next discovery.
        chart = _sparkline([(p.step, getattr(p, series)) for p in points],
                           color_var, f"{series} over time", step=True,
                           ceiling=total or 0)
        cards.append(_card(label, final_text, color_var, chart))
    checkpoint_rows = [
        [p.step, p.activities, p.fragments, p.fivas, p.apis] for p in points
    ]
    table = html_table(
        [("Step", True), ("Activities", True), ("Fragments", True),
         ("FIVAs", True), ("APIs", True)],
        checkpoint_rows,
    )
    return (
        f'<div class="cards">{"".join(cards)}</div>'
        f"<details><summary>Coverage checkpoints "
        f"({len(points)} points)</summary>{table}</details>"
    )


def _phase_bars(ranked: Sequence[Tuple[str, Dict[str, float]]],
                top: int = 10) -> str:
    """Each of the ``top`` ranked phases' self time as a horizontal
    magnitude bar: one hue, ≤24px thick, 4px rounded data end (square
    at the baseline), value at the tip in ink."""
    shown = ranked[:top]
    max_total = max(stats["self_total_s"] for _, stats in shown) or 1.0
    rows = []
    for name, stats in shown:
        total = stats["self_total_s"]
        frac = total / max_total
        bar_w = max(1.0, 300.0 * frac)
        radius = min(4.0, bar_w)
        bar_path = (
            f"M0,1 h{bar_w - radius:.1f} "
            f"a{radius:.0f},{radius:.0f} 0 0 1 {radius:.0f},{radius:.0f} "
            f"v{16 - 2 * radius:.0f} "
            f"a{radius:.0f},{radius:.0f} 0 0 1 -{radius:.0f},{radius:.0f} "
            f"h-{bar_w - radius:.1f} z"
        )
        label_x = bar_w + 6
        rows.append(
            '<div class="row">'
            f'<span class="name" title="{esc(name)}">'
            f"{esc(name)} &times;{stats['count']}</span>"
            f'<svg viewBox="0 0 380 18" width="100%" height="18" '
            f'preserveAspectRatio="xMinYMid meet">'
            f'<path d="{bar_path}" fill="var(--bar)"/>'
            f'<text x="{label_x:.1f}" y="13" font-size="11" '
            f'fill="var(--ink-2)">{total:.3f} s</text>'
            "</svg></div>"
        )
    return f'<div class="bars">{"".join(rows)}</div>'


#: Trend series: (label, value-extractor key into coverage, color).
_TREND_SERIES = (
    ("Mean activity rate", "mean_activity_rate", "--series-1"),
    ("Mean fragment rate", "mean_fragment_rate", "--series-2"),
    ("Sensitive APIs", "apis", "--series-4"),
)


def render_trend_section(records: Sequence) -> str:
    """The longitudinal trend cards: one sparkline per coverage series
    plus total phase time, across registry records (oldest first).

    ``records`` are :class:`repro.obs.registry.RunRecord` objects (duck
    typed: ``coverage``, ``total_phase_time()``, ``run_id``, ``label``,
    ``created``).
    """
    records = list(records)
    if len(records) < 2:
        return ("<h2>Run trend</h2>"
                '<p class="empty">fewer than two registry records — '
                "record more runs to see trends</p>")
    # One point per record, oldest left.  Runs are independent samples,
    # not a cumulative count, so the points are joined linearly.
    def trend(values: List[float], color_var: str) -> str:
        return _sparkline(list(enumerate(values)), color_var,
                          "trend across runs", step=False)

    cards = []
    for label, key, color_var in _TREND_SERIES:
        values = [float(r.coverage.get(key, 0) or 0) for r in records]
        if not any(values):
            continue
        cards.append(_card(label, f"{values[-1]:g}", color_var,
                           trend(values, color_var)))
    times = [r.total_phase_time() for r in records]
    if any(times):
        cards.append(_card("Total phase self time (s)", f"{times[-1]:.3f}",
                           "--series-3", trend(times, "--series-3")))
    run_rows = [
        [r.run_id, r.label,
         f"{float(r.coverage.get('mean_activity_rate', 0) or 0):.3f}",
         f"{float(r.coverage.get('mean_fragment_rate', 0) or 0):.3f}",
         int(r.coverage.get("apis", 0) or 0),
         f"{r.total_phase_time():.3f}"]
        for r in records
    ]
    table = html_table(
        [("Run", False), ("Label", False), ("Act rate", True),
         ("Frag rate", True), ("APIs", True), ("Phase s", True)],
        run_rows,
    )
    return (
        f"<h2>Run trend (last {len(records)} runs)</h2>"
        f'<div class="cards">{"".join(cards)}</div>'
        f"<details><summary>Registry records ({len(records)})</summary>"
        f"{table}</details>"
    )


def _critical_path(spans: Sequence[Span]) -> str:
    path = critical_path(spans)
    if not path:
        return ""
    crumbs = " &rarr; ".join(
        f"<code>{esc(span.name)}</code> "
        f"<span>{span.duration * 1000:.1f} ms</span>"
        for span in path
    )
    return f'<h2>Critical path</h2><p class="path">{crumbs}</p>'


def _stall_table(found: Sequence[Stall], top: int = 8) -> str:
    if not found:
        return ('<p class="empty">no discovery stalls at this '
                "threshold</p>")
    rows = [[s.start_step, s.end_step, s.events] for s in found[:top]]
    return html_table(
        [("Plateau from step", True), ("To step", True),
         ("Events without discovery", True)],
        rows,
    )


def _degradation_panel(degradation: Dict) -> str:
    faults = degradation.get("faults", {})
    fault_text = ", ".join(f"{kind}={count}"
                           for kind, count in sorted(faults.items())) or "none"
    total = degradation.get("total_faults", 0)
    badge_color = ("--status-good" if total == 0 else
                   "--status-serious" if total < 50 else "--status-critical")
    rows = [
        ["Faults injected", f"{total} ({fault_text})"],
        ["Retries (recovered / gave up)",
         f"{degradation.get('retries', 0)} "
         f"({degradation.get('recoveries', 0)} / "
         f"{degradation.get('giveups', 0)})"],
        ["Backoff (simulated s)", f"{degradation.get('backoff_s', 0):.2f}"],
        ["Reconnects", degradation.get("reconnects", 0)],
        ["Quarantined widgets",
         ", ".join(degradation.get("quarantined", [])) or "none"],
        ["Items re-enqueued / abandoned",
         f"{degradation.get('requeued_items', 0)} / "
         f"{degradation.get('abandoned_items', 0)}"],
    ]
    return (
        "<h2>Degradation "
        f'<span class="badge" style="color: var({badge_color})">'
        f"&#9679; profile: {esc(degradation.get('profile', '?'))}, "
        f"seed {esc(degradation.get('seed', '?'))}</span></h2>"
        + html_table([("Metric", False), ("Value", False)], rows)
    )


# ---------------------------------------------------------------------------
# Page assembly
# ---------------------------------------------------------------------------

def _page(title: str, body: str) -> str:
    """The self-contained page shell every dashboard view renders in."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>FragDroid dashboard — {esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n"
        f"<main>\n{body}\n</main>\n</body>\n</html>\n"
    )


def _coverage_totals(report: Dict) -> Dict[str, Optional[int]]:
    coverage = report.get("coverage", {})

    def total(key: str) -> Optional[int]:
        return coverage.get(key, {}).get("sum")

    return {
        "activities": total("activities"),
        "fragments": total("fragments"),
        "fivas": total("fragments_in_visited_activities"),
        "apis": None,
    }


def _visited(report: Dict, key: str) -> int:
    visited = report.get("coverage", {}).get(key, {}).get("visited", 0)
    return len(visited) if isinstance(visited, list) else int(visited)


def _rate(entry: Dict) -> str:
    return f"{entry.get('rate', 0.0):.1%}" if entry.get("sum") else "n/a"


def _run_tiles(run: RunData) -> str:
    report = run.report
    stats = report.get("stats", {})
    coverage = report.get("coverage", {})
    fiva = coverage.get("fragments_in_visited_activities", {})
    cases = f"{stats.get('reflection_failures', 0)} reflection failures"
    if run.events:
        # Every started item either records exactly one failure or
        # passes.
        passing = sum((event.kind == ITEM_START) - (event.kind == ITEM_FAILED)
                      for event in run.events)
        cases = f"{passing} passing, {cases}"
    tiles = [
        _tile("Activities",
              f"{_visited(report, 'activities')} / "
              f"{coverage.get('activities', {}).get('sum', 0)}",
              _rate(coverage.get("activities", {}))),
        _tile("Fragments",
              f"{_visited(report, 'fragments')} / "
              f"{coverage.get('fragments', {}).get('sum', 0)}",
              _rate(coverage.get("fragments", {}))),
        _tile("Fragments in visited activities",
              f"{fiva.get('visited', 0)} / {fiva.get('sum', 0)}"),
        _tile("Sensitive API invocations",
              len(report.get("api_invocations", []))),
        _tile("Test cases", stats.get("test_cases", 0), cases),
        _tile("Events injected", stats.get("events", 0)),
        _tile("Crashes", stats.get("crashes", 0),
              f"{stats.get('restarts', 0)} restarts"),
    ]
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _discovery_tiles(events: Sequence[Event]) -> str:
    stats = discovery_stats(events)
    tiles = []
    for series, label, _ in _SERIES[:2]:
        t50, t90 = stats.get(f"{series}_t50"), stats.get(f"{series}_t90")
        if t50 is None:
            continue
        tiles.append(_tile(f"{label}: time to 50% / 90%",
                           f"{t50} / {t90 if t90 is not None else '—'}",
                           "device steps"))
    return f'<div class="tiles">{"".join(tiles)}</div>' if tiles else ""


def _timing_table(ranked: Sequence[Tuple[str, Dict[str, float]]]) -> str:
    """The ranked per-phase self-time stats, the rows ``repro show``
    prints."""
    rows = [
        [name, stats["count"], f"{stats['self_total_s']:.3f}",
         f"{stats['self_p50_ms']:.2f}", f"{stats['self_p90_ms']:.2f}",
         f"{stats['self_p99_ms']:.2f}"]
        for name, stats in ranked
    ]
    table = html_table(
        [("Span", False), ("Count", True), ("Self (s)", True),
         ("p50 self (ms)", True), ("p90 self (ms)", True),
         ("p99 self (ms)", True)],
        rows,
    )
    return (f"<details><summary>Per-phase self time ({len(rows)} phases)"
            f"</summary>{table}</details>")


def _short(name: Optional[str]) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _model_sections(run: RunData) -> str:
    """The components, AFTM transitions and sensitive-API relations of
    the report."""
    from repro.core.sensitive_analysis import relations_from_invocations
    from repro.types import ApiInvocation, ComponentName, InvocationSource

    aftm = run.report.get("aftm", {})
    visited = set(aftm.get("visited", ()))
    components = [
        [kind, name, "visited" if name in visited else "unvisited"]
        for kind, key in (("Activity", "activities"),
                          ("Fragment", "fragments"))
        for name in aftm.get(key, ())
    ]
    edges = [
        [edge["kind"], _short(edge["src"]), _short(edge["dst"]),
         _short(edge["host"]), edge["trigger"]]
        for edge in aftm.get("edges", ())
    ]
    invocations = [
        ApiInvocation(inv["api"], ComponentName(run.package, inv["component"]),
                      InvocationSource(inv["source"]), int(inv["step"]))
        for inv in run.report.get("api_invocations", [])
    ]
    relations = [
        [relation.api, relation.symbol,
         "activity" if relation.by_activity else "",
         "fragment" if relation.by_fragment else ""]
        for relation in relations_from_invocations(run.package, invocations)
    ]
    return (
        "<h2>Components</h2>"
        + html_table([("Kind", False), ("Class", False), ("Status", False)],
                     components)
        + "\n<h2>AFTM transitions</h2>"
        + html_table([("Kind", False), ("From", False), ("To", False),
                      ("Host", False), ("Trigger", False)], edges)
        + "\n<h2>Sensitive API relations</h2>"
        + html_table([("API", False), ("Symbol", False),
                      ("By activity", False), ("By fragment", False)],
                     relations)
    )


def _trace_section(events: Sequence[Event]) -> str:
    """The exploration trace, rendered from the run record the way
    ``trace.log`` is."""
    from repro.core.explorer import trace_of

    trace = trace_of(events)
    lines = "\n".join(esc(line) for line in trace)
    return (f"<details><summary>Exploration trace ({len(trace)} events)"
            f"</summary><pre>{lines}</pre></details>")


def render_dashboard(run: RunData,
                     fleet: Optional[Sequence[RunData]] = None,
                     history: Optional[Sequence] = None,
                     explanations: Optional[Sequence] = None) -> str:
    """One self-contained HTML page for one recorded run.

    Every section derives from the saved run alone (report, run record
    and spans), so the page does not depend on where the run directory
    lives.  ``history`` — run-registry records (oldest first) — adds the
    longitudinal trend section; ``explanations`` — stored coverage
    explanations — the miss-cause section."""
    sections: List[str] = [
        f"<h1>FragDroid flight recorder</h1>"
        f'<p class="sub">Run: <strong>{esc(run.package)}</strong></p>',
        _run_tiles(run),
    ]
    if run.events:
        points = coverage_timeline(run.events, run.api_steps)
        sections.append("<h2>Coverage over time</h2>")
        sections.append(_coverage_cards(points, _coverage_totals(run.report)))
        sections.append(_discovery_tiles(run.events))
        sections.append("<h2>Discovery stalls</h2>")
        sections.append(_stall_table(stalls(run.events)))
    else:
        sections.append(
            '<p class="empty">No run record (events.jsonl) in this run '
            "directory — save the run again with <code>explore --save"
            "</code> for coverage-over-time analytics and the trace.</p>"
        )
    if run.spans:
        ranked = ranked_phases(phase_stats(run.spans))
        sections.append("<h2>Phase timing (self time per span)</h2>")
        sections.append(_timing_table(ranked))
        sections.append(_phase_bars(ranked))
        sections.append(_critical_path(run.spans))
    degradation = run.report.get("degradation")
    if degradation:
        sections.append(_degradation_panel(degradation))
    sections.append(_model_sections(run))
    if run.events:
        sections.append(_trace_section(run.events))
    if fleet:
        sections.append(
            f"<h2>Fleet ({len(fleet)} apps)</h2>"
            + render_fleet_table(fleet_rows(fleet))
        )
    if explanations is not None:
        sections.append(render_attribution_section(explanations))
    if history is not None:
        sections.append(render_trend_section(history))
    return _page(run.package, "\n".join(sections))


# ---------------------------------------------------------------------------
# Fleet view
# ---------------------------------------------------------------------------

def fleet_rows(runs: Sequence[RunData]) -> List[Dict]:
    """Per-app fleet rows from loaded run directories — the same shape
    :func:`repro.bench.parallel.sweep_rows` produces from live
    :class:`~repro.bench.parallel.SweepOutcome` objects."""
    rows: List[Dict] = []
    for run in runs:
        coverage = run.report.get("coverage", {})
        stats = run.report.get("stats", {})
        rows.append({
            "package": run.package,
            "ok": True,
            "activities_visited": _visited(run.report, "activities"),
            "activities_sum": coverage.get("activities", {}).get("sum", 0),
            "fragments_visited": _visited(run.report, "fragments"),
            "fragments_sum": coverage.get("fragments", {}).get("sum", 0),
            "apis": len(run.report.get("api_invocations", [])),
            "events": stats.get("events", 0),
            "crashes": stats.get("crashes", 0),
            "duration_s": None,
            "fault_kind": None,
        })
    return rows


def render_fleet_table(rows: Sequence[Dict]) -> str:
    """The per-app fleet table (sweep aggregation or batch output)."""
    headers = [("App", False), ("Status", False), ("Activities", True),
               ("Fragments", True), ("APIs", True), ("Events", True),
               ("Crashes", True), ("Duration (s)", True)]
    body = []
    for row in rows:
        if row.get("ok", True):
            status = "ok"
        else:
            status = f"failed: {row.get('fault_kind') or 'error'}"
        duration = row.get("duration_s")
        body.append([
            row.get("package", "?"),
            status,
            f"{row.get('activities_visited', 0)}/"
            f"{row.get('activities_sum', 0)}",
            f"{row.get('fragments_visited', 0)}/"
            f"{row.get('fragments_sum', 0)}",
            row.get("apis", 0),
            row.get("events", 0),
            row.get("crashes", 0),
            f"{duration:.3f}" if duration is not None else "—",
        ])
    return html_table(headers, body)


def render_fleet_dashboard(runs: Sequence[RunData],
                           path: PathLike,
                           history: Optional[Sequence] = None,
                           explanations: Optional[Sequence] = None) -> str:
    """A fleet page: aggregate tiles plus the per-app table (and the
    registry trend / miss-cause sections when records or explanations
    are given)."""
    total_activities = sum(_visited(r.report, "activities") for r in runs)
    total_fragments = sum(_visited(r.report, "fragments") for r in runs)
    crashes = sum(r.report.get("stats", {}).get("crashes", 0) for r in runs)
    events = sum(r.report.get("stats", {}).get("events", 0) for r in runs)
    tiles = [
        _tile("Apps", len(runs)),
        _tile("Activities visited", total_activities),
        _tile("Fragments visited", total_fragments),
        _tile("Events injected", events),
        _tile("Crashes", crashes),
    ]
    body = (
        "<h1>FragDroid flight recorder — fleet</h1>"
        f'<p class="sub">Sweep: {esc(path)}</p>'
        f'<div class="tiles">{"".join(tiles)}</div>'
        f"<h2>Per-app results ({len(runs)} apps)</h2>"
        + render_fleet_table(fleet_rows(runs))
        + (render_attribution_section(explanations)
           if explanations is not None else "")
        + (render_trend_section(history) if history is not None else "")
    )
    return _page("fleet", body)


# ---------------------------------------------------------------------------
# Service (job fleet) view
# ---------------------------------------------------------------------------

def _job_dict(job) -> Dict:
    """Duck-type: accepts a serve ``Job`` or its ``to_dict()`` payload."""
    return job.to_dict() if hasattr(job, "to_dict") else dict(job)


def service_rows(jobs: Sequence) -> List[Dict]:
    """Per-job outcome/latency rows from journaled jobs (the
    :meth:`repro.serve.journal.JobJournal.jobs` listing), oldest first.

    Latencies are derived from the journaled lifecycle timestamps:
    queue wait = ``started - created``, run time = ``finished -
    started`` (None while the stage hasn't happened yet)."""
    rows: List[Dict] = []
    for entry in jobs:
        data = _job_dict(entry)
        created = float(data.get("created", 0.0))
        started = float(data.get("started", 0.0))
        finished = float(data.get("finished", 0.0))
        completed = data.get("completed") or {}
        attempts = data.get("attempts") or {}
        rows.append({
            "job_id": data.get("job_id", "?"),
            "state": data.get("state", "?"),
            "apps": len(data.get("apps") or ()),
            "completed": len(completed),
            "failed": sum(1 for row in completed.values()
                          if not row.get("ok", True)),
            "queue_wait_s": (round(max(0.0, started - created), 3)
                             if started and created else None),
            "run_s": (round(max(0.0, finished - started), 3)
                      if finished and started else None),
            "worker_deaths": int(sum(attempts.values())),
            "quarantined": len(data.get("quarantined") or ()),
            "error": str(data.get("error", "")),
            "trace_id": int(data.get("trace_id", 0) or 0),
            "created": created,
        })
    rows.sort(key=lambda row: (row["created"], row["job_id"]))
    return rows


def queue_depth_series(jobs: Sequence) -> List[Tuple[float, int]]:
    """Queue depth over time from journaled lifecycle timestamps.

    Each job holds a queue slot from ``created`` until ``started`` (or
    ``finished``, for jobs cancelled before they started).  Returns
    ``(seconds since the first submission, depth)`` step points."""
    changes: List[Tuple[float, int]] = []
    for entry in jobs:
        data = _job_dict(entry)
        created = float(data.get("created", 0.0))
        if not created:
            continue
        changes.append((created, +1))
        left = float(data.get("started", 0.0)) \
            or float(data.get("finished", 0.0))
        if left:
            changes.append((max(left, created), -1))
    if not changes:
        return []
    changes.sort()
    epoch = changes[0][0]
    points: List[Tuple[float, int]] = []
    depth = 0
    for stamp, delta in changes:
        depth += delta
        offset = round(stamp - epoch, 3)
        if points and points[-1][0] == offset:
            points[-1] = (offset, depth)
        else:
            points.append((offset, depth))
    return points


def render_service_section(jobs: Sequence,
                           records: Optional[Sequence] = None) -> str:
    """The fleet-health panel: state tiles, queue depth over time, the
    per-job outcome/latency table and the adversity (retry /
    quarantine / worker-death) timeline.

    ``jobs`` come from the job journal; ``records`` (optional) are
    run-registry records whose ``meta`` may carry a ``serve-job``
    degradation account (they annotate, they are not required)."""
    rows = service_rows(jobs)
    if not rows:
        return ("<h2>Service fleet</h2>"
                '<p class="empty">no journaled jobs — submit some with '
                "<code>repro jobs submit</code></p>")
    by_state: Dict[str, int] = {}
    for row in rows:
        by_state[row["state"]] = by_state.get(row["state"], 0) + 1
    deaths = sum(row["worker_deaths"] for row in rows)
    failed_apps = sum(row["failed"] for row in rows)
    waits = [row["queue_wait_s"] for row in rows
             if row["queue_wait_s"] is not None]
    runs = [row["run_s"] for row in rows if row["run_s"] is not None]
    tiles = [
        _tile("Jobs", len(rows),
              ", ".join(f"{state}: {count}"
                        for state, count in sorted(by_state.items()))),
        _tile("Worker deaths", deaths,
              f"{sum(row['quarantined'] for row in rows)} quarantined"),
        _tile("Failed app rows", failed_apps),
    ]
    if waits:
        tiles.append(_tile("Median queue wait (s)",
                           f"{sorted(waits)[len(waits) // 2]:.3f}",
                           f"max {max(waits):.3f}"))
    if runs:
        tiles.append(_tile("Median run time (s)",
                           f"{sorted(runs)[len(runs) // 2]:.3f}",
                           f"max {max(runs):.3f}"))
    sections = [
        "<h2>Service fleet</h2>",
        f'<div class="tiles">{"".join(tiles)}</div>',
    ]
    depth_points = queue_depth_series(jobs)
    if depth_points:
        peak = max(value for _, value in depth_points)
        chart = _sparkline(depth_points, "--series-1",
                           "queue depth over time", step=True)
        sections.append(
            '<div class="cards">'
            + _card("Queue depth over time", f"peak {peak}", "--series-1",
                    chart)
            + "</div>"
        )
    job_table_rows = [
        [row["job_id"], row["state"],
         f"{row['completed']}/{row['apps']}", row["failed"],
         f"{row['queue_wait_s']:.3f}"
         if row["queue_wait_s"] is not None else "—",
         f"{row['run_s']:.3f}" if row["run_s"] is not None else "—",
         row["trace_id"] or "—",
         row["error"] or ""]
        for row in rows
    ]
    sections.append(f"<h3>Jobs ({len(rows)})</h3>")
    sections.append(html_table(
        [("Job", False), ("State", False), ("Apps done", True),
         ("Failed", True), ("Queue wait (s)", True), ("Run (s)", True),
         ("Trace", True), ("Error", False)],
        job_table_rows,
    ))
    sections.append(_adversity_timeline(jobs, records))
    return "\n".join(sections)


def _adversity_timeline(jobs: Sequence,
                        records: Optional[Sequence]) -> str:
    """One row per job that hit adversity, oldest first: worker deaths
    absorbed, apps re-admitted, apps quarantined, failed rows — the
    journal's account, annotated with the registry's degradation meta
    when a matching ``serve-job`` record exists."""
    degradation_by_job: Dict[str, Dict] = {}
    for record in records or ():
        meta = getattr(record, "meta", None) or {}
        job_id = meta.get("job_id")
        if job_id and isinstance(meta.get("degradation"), dict):
            degradation_by_job[str(job_id)] = meta["degradation"]
    rows = []
    for entry in jobs:
        data = _job_dict(entry)
        attempts = data.get("attempts") or {}
        quarantined = list(data.get("quarantined") or ())
        completed = data.get("completed") or {}
        failed = sorted(package for package, row in completed.items()
                        if not row.get("ok", True))
        if not attempts and not quarantined and not failed:
            continue
        degradation = degradation_by_job.get(str(data.get("job_id", "")))
        recorded = "yes" if degradation is not None else "—"
        rows.append([
            data.get("job_id", "?"),
            int(sum(attempts.values())),
            ", ".join(sorted(attempts)) or "—",
            ", ".join(quarantined) or "—",
            ", ".join(failed) or "—",
            recorded,
        ])
    if not rows:
        return ('<h3>Adversity timeline</h3><p class="empty">no worker '
                "deaths, re-admissions or failed rows — a healthy "
                "fleet</p>")
    return "<h3>Adversity timeline</h3>" + html_table(
        [("Job", False), ("Worker deaths", True), ("Re-admitted", False),
         ("Quarantined", False), ("Failed apps", False),
         ("In registry", False)],
        rows,
    )


# ---------------------------------------------------------------------------
# Attribution (miss causes) view
# ---------------------------------------------------------------------------

def load_explanations(registry_dir: PathLike) -> List:
    """Every stored coverage explanation under a registry directory
    (the ``explanations/`` store ``repro explain`` writes), sorted by
    source run id.  Corrupt files are skipped with a warning, never
    fatal."""
    from repro.obs.attribution import ExplanationStore

    return ExplanationStore(registry_dir).list()


def render_attribution_section(explanations: Sequence) -> str:
    """The miss-cause panel: why targets stayed unreached, across every
    stored explanation — the fleet cause census plus the widgets
    blocking the most targets (``repro explain`` has the per-target
    drill-down)."""
    from repro.obs.attribution import (
        CAUSES,
        fleet_cause_census,
        top_blocking_widgets,
    )

    explanations = list(explanations)
    if not explanations:
        return ("<h2>Miss causes</h2>"
                '<p class="empty">no stored coverage explanations — '
                "create them with <code>repro explain --table1</code></p>")
    census = fleet_cause_census(explanations)
    missed = sum(census.values())
    unclassified = census.get("unclassified", 0)
    tiles = [
        _tile("Explained runs", len(explanations)),
        _tile("Unreached targets", missed),
        _tile("Unclassified", unclassified,
              "every miss has a typed cause" if not unclassified else ""),
    ]
    sections = [
        "<h2>Miss causes</h2>",
        f'<div class="tiles">{"".join(tiles)}</div>',
    ]
    census_rows = [[cause, census[cause]] for cause in CAUSES
                   if census.get(cause)]
    if census_rows:
        sections.append("<h3>Cause census</h3>")
        sections.append(html_table([("Cause", False), ("Targets", True)],
                               census_rows))
    widgets = top_blocking_widgets(explanations)
    if widgets:
        sections.append("<h3>Top blocking widgets</h3>")
        sections.append(html_table(
            [("Widget", False), ("Targets blocked", True)],
            [[widget, count] for widget, count in widgets],
        ))
    return "\n".join(sections)


def render_service_dashboard(jobs: Sequence,
                             path: PathLike,
                             records: Optional[Sequence] = None,
                             history: Optional[Sequence] = None,
                             explanations: Optional[Sequence] = None) -> str:
    """A standalone fleet-health page from a job journal
    (``repro dashboard --journal DIR``)."""
    body = (
        "<h1>FragDroid flight recorder — service fleet</h1>"
        f'<p class="sub">Journal: {esc(path)}</p>'
        + render_service_section(jobs, records)
        + (render_attribution_section(explanations)
           if explanations is not None else "")
        + (render_trend_section(history) if history is not None else "")
    )
    return _page("service fleet", body)


def render_dashboard_dir(directory: PathLike,
                         history: Optional[Sequence] = None,
                         explanations: Optional[Sequence] = None) -> str:
    """Dispatch: a run directory :func:`load_run` reads renders the run
    page; else a directory of them renders the fleet page, and one with
    none raises the run's :class:`StoreError`.  A directory holding its
    own ``manifest.json`` or ``report.json`` is a (damaged) run, never a
    fleet: its error is raised as is.  ``history``
    (run-registry records, oldest first) adds the trend section to
    either page; ``explanations`` (stored coverage explanations, see
    :func:`load_explanations`) adds the miss-cause section."""
    base = pathlib.Path(directory)
    if not base.is_dir():
        raise FileNotFoundError(
            f"{base}: not a directory — point `repro dashboard` at an "
            "`explore --save` run directory (with report.json) or a "
            "directory of them"
        )
    try:
        runs = [load_run(base)]
    except StoreError:
        if (base / MANIFEST).exists() or (base / "report.json").exists():
            raise
        runs = load_fleet(base)
        if not runs:
            raise
    if len(runs) == 1:
        return render_dashboard(runs[0], history=history,
                                explanations=explanations)
    return render_fleet_dashboard(runs, base, history=history,
                                  explanations=explanations)
