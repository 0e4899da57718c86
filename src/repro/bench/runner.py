"""Experiment runners behind the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import ApkPackage, build_apk
from repro.baselines import ActivityExplorer, DepthFirstExplorer, Monkey
from repro.bench.parallel import explore_many, sweep
from repro.core.coverage import CoverageReport, CoverageRow
from repro.core.explorer import ExplorationResult
from repro.core.sensitive_analysis import SensitiveApiReport, build_api_report
from repro.corpus import TABLE1_PLANS, build_app, generate_market
from repro.corpus.synth import LOGIN_SECRET, AppPlan
from repro.corpus.table1_apps import (
    PAPER_MEAN_ACTIVITY_RATE,
    PAPER_MEAN_FRAGMENT_RATE,
    TABLE1_EXPECTED,
)
from repro.errors import PackedApkError
from repro.obs.registry import RunRegistry, capture_run_record
from repro.smali.apktool import Apktool
from repro.static.cache import StaticCache
from repro.static.effective import fragment_subclasses
from repro.types import InvocationSource


# ---------------------------------------------------------------------------
# Table I + Table II
# ---------------------------------------------------------------------------

@dataclass
class Table1Run:
    results: Dict[str, ExplorationResult]
    report: CoverageReport
    api_report: SensitiveApiReport

    def render_table1(self) -> str:
        lines = [self.report.render(), ""]
        lines.append(
            f"mean activity rate: {self.report.mean_activity_rate:.2%} "
            f"(paper: {PAPER_MEAN_ACTIVITY_RATE:.2%})"
        )
        lines.append(
            f"mean fragment rate: {self.report.mean_fragment_rate:.2%} "
            f"(paper: {PAPER_MEAN_FRAGMENT_RATE:.2%})"
        )
        lines.append(
            f"mean fragments-in-visited-activities rate: "
            f"{self.report.mean_fiva_rate:.2%} (paper: >50%)"
        )
        lines.append(
            f"apps with 100% FiVA: {self.report.full_fiva_apps()} "
            f"(paper: 5 of 15)"
        )
        lines.append("")
        lines.append("per-app comparison against the paper's Table I:")
        lines.append(
            f"{'package':34} {'A got':>7} {'A paper':>8} "
            f"{'F got':>7} {'F paper':>8}"
        )
        for package, result in sorted(self.results.items()):
            exp = TABLE1_EXPECTED[package]
            lines.append(
                f"{package:34} "
                f"{len(result.visited_activities):3d}/{result.activity_total:<3d}"
                f" {exp[0]:3d}/{exp[1]:<4d}"
                f"{len(result.visited_fragments):3d}/{result.fragment_total:<3d}"
                f" {exp[2]:3d}/{exp[3]:<4d}"
            )
        return "\n".join(lines)

    def render_table2(self) -> str:
        lines = [self.api_report.render(), ""]
        raw = sum(len(r.api_invocations) for r in self.results.values())
        distinct = len(
            {(i.api, i.component, i.source)
             for r in self.results.values() for i in r.api_invocations}
        )
        lines.append(f"raw invocation records: {raw} "
                     f"(distinct: {distinct}; paper reports 269 invocations)")
        lines.append(
            f"APIs found: {self.api_report.distinct_apis_found} (paper: 46)"
        )
        lines.append(
            f"fragment-associated relations: "
            f"{self.api_report.fragment_associated_share:.1%} (paper: 49%)"
        )
        lines.append(
            f"fragment-only relations (missed by Activity-level tools): "
            f"{self.api_report.fragment_only_share:.1%} (paper: >=9.6%)"
        )
        return "\n".join(lines)


def run_table1(config: Optional[FragDroidConfig] = None,
               max_workers: Optional[int] = None,
               backend: Optional[str] = None) -> Table1Run:
    """Run FragDroid over the 15 evaluation apps.

    The sweep runs through :func:`repro.bench.parallel.explore_many`
    (``backend`` picks its pool: threads by default, processes to
    sidestep the GIL); the evaluation corpus is expected healthy, so a
    captured per-app failure is re-raised here (``SweepOutcome.unwrap``).
    """
    outcomes = explore_many(TABLE1_PLANS, config=config,
                            max_workers=max_workers, backend=backend)
    results: Dict[str, ExplorationResult] = {}
    rows: List[CoverageRow] = []
    for plan in TABLE1_PLANS:
        result = outcomes[plan.package].unwrap()
        results[plan.package] = result
        rows.append(CoverageRow.from_result(result, downloads=plan.downloads))
    return Table1Run(
        results=results,
        report=CoverageReport(rows),
        api_report=build_api_report(results.values()),
    )


# ---------------------------------------------------------------------------
# Usage study (Section I / VII-A)
# ---------------------------------------------------------------------------

@dataclass
class UsageStudyResult:
    total: int
    packed: int
    analyzable: int
    with_fragments: int
    categories: int

    @property
    def share(self) -> float:
        return self.with_fragments / self.analyzable if self.analyzable else 0.0

    def render(self) -> str:
        return (
            f"apps: {self.total} across {self.categories} categories; "
            f"packed (ruled out): {self.packed}; "
            f"using Fragments: {self.with_fragments}/{self.analyzable} "
            f"= {self.share:.1%} (paper: 91%)"
        )


#: What :func:`_classify_apk` can answer; any other cached note is a
#: miss, classified again.
_STUDY_CLASSES = frozenset({"packed", "fragments", "plain"})


def _classify_apk(apk: ApkPackage) -> str:
    """One usage-study datapoint: "packed", "fragments" or "plain"."""
    try:
        decoded = Apktool().decode(apk)
    except PackedApkError:
        return "packed"
    return "fragments" if fragment_subclasses(decoded) else "plain"


def _classify_market_app(app) -> str:
    """Build one market app and classify it."""
    return _classify_apk(app.build())


def _classify_noted(notes: Mapping[str, str],
                    app) -> Tuple[str, str, bool]:
    """Build one market app once: ``(its digest, its class, hit)``, the
    class read from ``notes`` when they know the digest (a hit),
    classified otherwise."""
    apk = app.build()
    digest = apk.digest()
    note = notes.get(digest)
    if note in _STUDY_CLASSES:
        return digest, note, True
    return digest, _classify_apk(apk), False


def run_usage_study(count: int = 217, seed: int = 2018,
                    max_workers: Optional[int] = None,
                    backend: Optional[str] = None,
                    registry: Optional["RunRegistry"] = None,
                    cache: Optional["StaticCache"] = None,
                    ) -> UsageStudyResult:
    """The Section VII-A market survey: decode ``count`` synthetic
    market apps and tally Fragment adoption.

    The apps are classified by a :func:`repro.bench.parallel.sweep` on
    ``max_workers`` workers: ``None`` means ``min(apps, cpus)``,
    honouring ``FRAGDROID_WORKERS``.  Each app is built where it is
    classified.  The classification is CPU-bound, so when more than one
    worker runs and neither ``backend`` nor ``FRAGDROID_SWEEP_BACKEND``
    names one, the sweep takes the process pool; one worker classifies
    inline.  Every app is independent, so the tally is identical
    regardless of worker count or backend.
    The market is expected healthy, so a captured per-app failure (a
    dead worker included) is re-raised here (``SweepOutcome.unwrap``).
    ``registry`` (a :class:`repro.obs.registry.RunRegistry`) persists
    the tallies as a run record the `repro runs` verbs can diff.

    ``cache`` (a :class:`repro.static.cache.StaticCache`) makes the
    study incremental: the parent loads its notes once and ships them
    with the sweep; each app is still built once, for its digest, and
    decoded and classified only when the notes lack that digest.  The
    new classifications are stored, and the tally is identical either
    way.
    """
    market = generate_market(count=count, seed=seed)
    notes = None if cache is None else cache.load_notes("usage-study")
    run = sweep(market,
                (_classify_market_app if notes is None
                 else partial(_classify_noted, notes)),
                key=lambda app: app.package, max_workers=max_workers,
                backend=backend, default_backend="process")
    results = [run.outcomes[app.package].unwrap() for app in market]
    if notes is None:
        statuses = results
    else:
        statuses = [status for _, status, _ in results]
        missed = [(digest, status) for digest, status, hit in results
                  if not hit]
        cache.count_lookups(hits=len(market) - len(missed),
                            misses=len(missed))
        if missed:
            cache.store_notes("usage-study", dict(missed))
    packed = statuses.count("packed")
    study = UsageStudyResult(
        total=len(market),
        packed=packed,
        analyzable=len(market) - packed,
        with_fragments=statuses.count("fragments"),
        categories=len({a.category for a in market}),
    )
    if registry is not None:
        registry.record(capture_run_record(
            "usage-study",
            coverage={
                "apps_total": study.total,
                "packed": study.packed,
                "analyzable": study.analyzable,
                "with_fragments": study.with_fragments,
                "categories": study.categories,
                "fragment_share": round(study.share, 6),
            },
            meta={"seed": seed, "count": count, **run.meta},
        ))
    return study


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

COMPARISON_PACKAGES = (
    "com.advancedprocessmanager",
    "com.aircrunch.shopalerts",
    "com.inditex.zara",
    "com.cnn.mobile.android.phone",
    "imoblife.toolbox.full",
)


@dataclass
class BaselineComparison:
    rows: List[Dict[str, object]] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'package':30} {'tool':16} {'acts':>6} {'frags':>6} "
            f"{'APIs':>5} {'frag-miss':>9} {'misattrib':>9} {'events':>7}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['package']:30} {row['tool']:16} "
                f"{row['activities']:>6} {row['fragments']:>6} "
                f"{row['apis']:>5} {row['fragment_misses']:>9} "
                f"{row.get('misattributed', '-'):>9} {row['events']:>7}"
            )
        return "\n".join(lines)


def _plan_for(package: str) -> AppPlan:
    for plan in TABLE1_PLANS:
        if plan.package == package:
            return plan
    raise KeyError(package)


def run_baseline_comparison(
    packages: Tuple[str, ...] = COMPARISON_PACKAGES,
) -> BaselineComparison:
    """FragDroid vs Activity-level MBT vs DFS vs Monkey, equal budget."""
    comparison = BaselineComparison()
    for package in packages:
        plan = _plan_for(package)

        frag = FragDroid(Device()).explore(build_apk(build_app(plan)))
        frag_apis = {i.api for i in frag.api_invocations}
        frag_fragment_apis = {
            i.api for i in frag.api_invocations
            if i.source is InvocationSource.FRAGMENT
        }
        budget = max(frag.stats.events, 50)
        comparison.rows.append({
            "package": package, "tool": "FragDroid",
            "activities": len(frag.visited_activities),
            "fragments": len(frag.visited_fragments),
            "apis": len(frag_apis),
            "fragment_misses": 0,
            "events": frag.stats.events,
        })

        base = ActivityExplorer(Device(), max_events=budget).run(
            build_apk(build_app(plan))
        )
        base_apis = base.detected_apis()
        misattributed = len({
            (i.api, i.component)
            for i in base.ground_truth
            if i.source is InvocationSource.FRAGMENT
        })
        comparison.rows.append({
            "package": package, "tool": "Activity-MBT",
            "activities": len(base.visited_activities),
            "fragments": 0,
            "apis": len(base_apis),
            "fragment_misses": len(frag_fragment_apis - base_apis),
            "misattributed": misattributed,
            "events": base.events,
        })

        dfs = DepthFirstExplorer(Device(), max_events=budget).run(
            build_apk(build_app(plan))
        )
        comparison.rows.append({
            "package": package, "tool": "DFS (A3E)",
            "activities": len(dfs.visited_activities),
            "fragments": len(dfs.visited_fragment_classes),
            "apis": "-",
            "fragment_misses": "-",
            "events": dfs.events,
        })

        monkey_device = Device()
        monkey = Monkey(monkey_device, seed=2018).run(
            build_apk(build_app(plan)), event_count=budget
        )
        comparison.rows.append({
            "package": package, "tool": "Monkey",
            "activities": len(monkey.visited_activities),
            "fragments": len(monkey.visited_fragment_classes),
            "apis": len({
                i.api for i in monkey_device.api_monitor.invocations
            }),
            "fragment_misses": "-",
            "events": monkey.events,
        })
    return comparison


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_PACKAGES = (
    "com.advancedprocessmanager",   # reflection-only fragments
    "com.cnn.mobile.android.phone",  # forced-start targets
    "com.weather.Weather",           # strict inputs
)


@dataclass
class AblationResult:
    rows: List[Dict[str, object]] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'package':30} {'variant':22} {'acts':>6} {'frags':>6} "
            f"{'events':>7}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['package']:30} {row['variant']:22} "
                f"{row['activities']:>6} {row['fragments']:>6} "
                f"{row['events']:>7}"
            )
        return "\n".join(lines)


def run_ablation(
    packages: Tuple[str, ...] = ABLATION_PACKAGES,
) -> AblationResult:
    """Disable each FragDroid mechanism in turn."""
    secrets = {f"password_{i:02d}": LOGIN_SECRET for i in range(10)}
    variants = [
        ("full", FragDroidConfig()),
        ("no-reflection", FragDroidConfig(enable_reflection=False)),
        ("no-forced-start", FragDroidConfig(enable_forced_start=False)),
        ("no-click-sweep", FragDroidConfig(enable_click_exploration=False)),
        ("analyst-inputs", FragDroidConfig(input_values=secrets)),
    ]
    ablation = AblationResult()
    for package in packages:
        plan = _plan_for(package)
        for name, config in variants:
            result = FragDroid(Device(), config).explore(
                build_apk(build_app(plan))
            )
            ablation.rows.append({
                "package": package, "variant": name,
                "activities": len(result.visited_activities),
                "fragments": len(result.visited_fragments),
                "events": result.stats.events,
            })
    return ablation
