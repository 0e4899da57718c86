"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the corpus apps and figure demos available by name;
* ``static <app>`` — run Static Information Extraction, print the AFTM
  summary (``--dot`` for Graphviz, ``--json`` for the model);
* ``explore <app>`` — run the full FragDroid pipeline, print the
  coverage report (``--json`` for the structured run report);
* ``audit <app>`` — explore and print the sensitive-API relations;
* ``trace-summary <run.jsonl>`` — per-phase timing and top-N slowest
  spans of a traced run (written with ``explore --trace-jsonl``);
  ``--flame`` emits collapsed-stack flamegraph lines instead;
* ``dashboard <run dir>`` — render the self-contained HTML run
  dashboard from a saved run (``explore --save`` with the flight
  recorder on) or a directory of runs (the fleet view);
* ``table1`` / ``table2`` / ``study`` / ``compare`` / ``ablate`` —
  regenerate the paper's experiments; the sweep commands take
  ``--workers N`` and ``--backend {thread,process}`` (the process pool
  sidesteps the GIL for market-scale runs);
* ``cache stats`` / ``cache clear`` — inspect or drop the
  content-addressed static-analysis cache (fed by ``--static-cache``);
* ``runs list|show|diff|gc|pin|ingest`` — the longitudinal run
  registry: list recorded runs, print one record, structured-diff two
  records, prune old ones (never the pinned baseline), pin the
  regression baseline, ingest benchmark result JSON;
* ``regress --baseline REF`` — the deterministic regression gate:
  compare a candidate run (recorded id, record file, or a fresh
  Table-I sweep) against a baseline record; exit 1 on regression (a
  replay record with divergences on an unchanged app also fails);
* ``replay SCRIPT`` — re-run a recorded ``*.replay.json`` script
  (written by ``explore --save DIR --export-replay``) on a fresh
  device; reports applied/diverged-at and the coverage reached;
* ``fragility APP`` — the R&R breakage study: record a suite, replay
  it against seeded app mutations, print the per-mutation table;
* ``serve`` — run the exploration fleet as a local HTTP/JSON service:
  admission-controlled job queue, crash-safe journal (restart resumes
  in-flight jobs), worker-death recovery with bounded re-admission;
* ``jobs submit|status|logs|cancel`` — talk to a running ``serve``
  (``--url``, or ``$FRAGDROID_SERVE_URL``); see ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.apk.appspec import AppSpec
from repro.bench import (
    run_ablation,
    run_baseline_comparison,
    run_table1,
    run_usage_study,
)
from repro.bench.parallel import BACKENDS
from repro.core.report import aftm_to_json, result_to_json
from repro.core.sensitive_analysis import build_api_report
from repro.faults import FAULT_PROFILES, make_device
from repro.corpus import (
    build_table1_app,
    demo_aftm_example,
    demo_drawer_app,
    demo_tabbed_app,
    table1_packages,
)
from repro.static import extract_static_info

DEMOS: Dict[str, Callable[[], AppSpec]] = {
    "demo:tabs": demo_tabbed_app,
    "demo:drawer": demo_drawer_app,
    "demo:aftm": demo_aftm_example,
}


def _resolve_apk(name: str):
    """An app by corpus name, demo name, or .apk file path."""
    import pathlib

    if name.endswith(".apk") and pathlib.Path(name).exists():
        from repro.apk.apkfile import load_apk

        return load_apk(name)
    if name in DEMOS:
        return build_apk(DEMOS[name]())
    if name in table1_packages():
        return build_apk(build_table1_app(name))
    # Replay scripts name the Android package, not the demo alias.
    for factory in DEMOS.values():
        spec = factory()
        if spec.package == name:
            return build_apk(spec)
    raise SystemExit(
        f"unknown app {name!r}; run `python -m repro list` for choices, "
        "or pass a path to a saved .apk"
    )


def _resolve_spec(name: str) -> AppSpec:
    """An app *spec* by corpus or demo name (mutations need the spec;
    a bare .apk file cannot be mutated)."""
    if name.endswith(".apk"):
        raise SystemExit(
            "the fragility study mutates the app spec; .apk files are "
            "not supported — pass a demo:* or corpus name"
        )
    if name in DEMOS:
        return DEMOS[name]()
    if name in table1_packages():
        return build_table1_app(name)
    for factory in DEMOS.values():
        spec = factory()
        if spec.package == name:
            return spec
    raise SystemExit(
        f"unknown app {name!r}; run `python -m repro list` for choices"
    )


def _config_from(args: argparse.Namespace) -> FragDroidConfig:
    config = FragDroidConfig(
        enable_reflection=not args.no_reflection,
        enable_forced_start=not args.no_forced_start,
        enable_click_exploration=not args.no_click_sweep,
        input_strategy="heuristic" if args.heuristic_inputs else "default",
        max_events=args.max_events,
        fault_profile=getattr(args, "faults", "none"),
        fault_seed=getattr(args, "fault_seed", 0),
    )
    if getattr(args, "trace_jsonl", None):
        from repro.obs import JsonlSink, Tracer

        try:
            sink = JsonlSink(args.trace_jsonl)
        except OSError as exc:
            raise SystemExit(
                f"cannot open trace file {args.trace_jsonl!r}: {exc}"
            ) from exc
        config.tracer = Tracer(sinks=[sink])
    if getattr(args, "metrics_prom", None) and not config.tracer.enabled:
        from repro.obs import Tracer

        # The counters live on the tracer; --metrics-prom alone still
        # needs a live one (spans just go nowhere).
        config.tracer = Tracer()
    if getattr(args, "events_jsonl", None):
        from repro.obs import EventLog, JsonlSink

        try:
            sink = JsonlSink(args.events_jsonl)
        except OSError as exc:
            raise SystemExit(
                f"cannot open event file {args.events_jsonl!r}: {exc}"
            ) from exc
        config.event_log = EventLog(sinks=[sink])
    if getattr(args, "static_cache", None):
        from repro.static.cache import StaticCache

        config.static_cache = StaticCache(directory=args.static_cache)
    return config


def _add_explore_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="corpus package or demo:* name")
    parser.add_argument("--no-reflection", action="store_true")
    parser.add_argument("--no-forced-start", action="store_true")
    parser.add_argument("--no-click-sweep", action="store_true")
    parser.add_argument("--heuristic-inputs", action="store_true")
    parser.add_argument("--max-events", type=int, default=20000)
    parser.add_argument("--faults", metavar="PROFILE",
                        choices=sorted(FAULT_PROFILES), default="none",
                        help="fault-injection profile (none | mild | "
                             "hostile); the run retries, quarantines "
                             "and reports a degradation section")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault stream")
    parser.add_argument("--json", action="store_true",
                        help="emit the structured JSON report")
    parser.add_argument("--trace", action="store_true",
                        help="print the exploration trace")
    parser.add_argument("--trace-jsonl", metavar="FILE",
                        help="record observability spans as JSON lines "
                             "(inspect with `repro trace-summary FILE`)")
    parser.add_argument("--events-jsonl", metavar="FILE",
                        help="record the flight-recorder event timeline "
                             "as JSON lines (feeds `repro dashboard`)")
    parser.add_argument("--metrics-prom", metavar="FILE",
                        help="write the run's metrics in Prometheus "
                             "text exposition format")
    parser.add_argument("--save", metavar="DIR",
                        help="persist all run artifacts under DIR")
    parser.add_argument("--export-replay", action="store_true",
                        help="with --save: also write each passing test "
                             "case as a testcases/*.replay.json replay "
                             "script (re-run with `repro replay`)")
    parser.add_argument("--static-cache", metavar="DIR",
                        help="content-addressed cache of the static "
                             "phase under DIR; a digest hit skips "
                             "decode + Algorithms 1-3 (inspect with "
                             "`repro cache stats --dir DIR`)")


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (default min(apps, cpus); "
                             "FRAGDROID_WORKERS overrides)")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="pool backend: thread (default) or process "
                             "(sidesteps the GIL; FRAGDROID_SWEEP_BACKEND "
                             "overrides the default)")


def cmd_list(_args: argparse.Namespace) -> int:
    print("figure demos:")
    for name in sorted(DEMOS):
        print(f"  {name}")
    print("evaluation corpus (Tables I & II):")
    for name in table1_packages():
        print(f"  {name}")
    return 0


def cmd_static(args: argparse.Namespace) -> int:
    cache = None
    if getattr(args, "static_cache", None):
        from repro.static.cache import StaticCache

        cache = StaticCache(directory=args.static_cache)
    info = extract_static_info(_resolve_apk(args.app), cache=cache)
    if args.json:
        print(aftm_to_json(info.aftm))
        return 0
    print(info.aftm.summary())
    for edge in sorted(info.aftm.edges):
        print(f"  {edge.src} -> {edge.dst}  [{edge.kind.name}]")
    if args.dot:
        print(info.aftm.to_dot())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    config = _config_from(args)
    device = make_device(config.fault_plan, scope=args.app)
    result = FragDroid(device, config).explore(_resolve_apk(args.app))
    config.tracer.close()
    config.event_log.close()
    if args.json:
        print(result_to_json(result))
    else:
        print(result.coverage_report())
    if args.trace:
        print(result.trace_text())
    if getattr(args, "export_replay", False) and not args.save:
        raise SystemExit("--export-replay needs --save DIR (replay "
                         "scripts are written next to the Robotium "
                         "sources)")
    if args.save:
        from repro.core.artifacts import save_artifacts

        written = save_artifacts(
            result, args.save,
            replay_scripts=getattr(args, "export_replay", False))
        print(f"wrote {len(written)} artifacts under {args.save}")
    if getattr(args, "trace_jsonl", None):
        print(f"wrote {len(result.spans)} spans to {args.trace_jsonl}")
    if getattr(args, "events_jsonl", None):
        print(f"wrote {len(result.events)} events to {args.events_jsonl}")
    if getattr(args, "metrics_prom", None):
        from repro.obs import prometheus_text

        try:
            with open(args.metrics_prom, "w", encoding="utf-8") as handle:
                handle.write(prometheus_text(config.tracer.metrics))
        except OSError as exc:
            raise SystemExit(
                f"cannot write metrics file {args.metrics_prom!r}: {exc}"
            ) from exc
        print(f"wrote metrics to {args.metrics_prom}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    config = _config_from(args)
    device = make_device(config.fault_plan, scope=args.app)
    result = FragDroid(device, config).explore(_resolve_apk(args.app))
    config.tracer.close()
    config.event_log.close()
    report = build_api_report([result])
    print(report.render())
    return 0


def cmd_target(args: argparse.Namespace) -> int:
    """Explore, then drive straight to a sensitive API (SmartDroid-style)."""
    from repro.core.targeted import components_invoking, drive_to_api

    apk = _resolve_apk(args.app)
    result = FragDroid(Device(), _config_from(args)).explore(apk)
    candidates = components_invoking(result, args.api)
    if not candidates:
        print(f"{args.api} was never observed in {args.app}")
        return 1
    device = Device()
    case, component = drive_to_api(result, apk, device, args.api)
    print(f"drove to {component}; {args.api} fired.")
    print()
    print(case.to_robotium_java())
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Compile an app and write it to disk as a .apk archive."""
    from repro.apk.apkfile import save_apk
    from repro.apk.lint import lint_apk

    apk = _resolve_apk(args.app)
    report = lint_apk(apk)
    if not report.ok:
        print(report.render())
        return 1
    path = save_apk(apk, args.output)
    print(f"wrote {path} ({path.stat().st_size} bytes, "
          f"{len(apk.smali_files)} classes)")
    return 0


def cmd_export_corpus(args: argparse.Namespace) -> int:
    """Write the whole evaluation corpus to .apk files."""
    import pathlib

    from repro.apk.apkfile import save_apk

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for package in table1_packages():
        path = save_apk(build_apk(build_table1_app(package)),
                        out / f"{package}.apk")
        print(f"  {path}")
    print(f"exported {len(table1_packages())} apps to {out}")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Explore every .apk in a directory; write artifacts + summary CSV."""
    import csv
    import pathlib
    from concurrent.futures import ThreadPoolExecutor

    from repro.apk.apkfile import load_apk
    from repro.core.artifacts import save_artifacts

    in_dir = pathlib.Path(args.directory)
    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    apk_paths = sorted(in_dir.glob("*.apk"))
    if not apk_paths:
        print(f"no .apk files under {in_dir}")
        return 1

    def run(path: pathlib.Path):
        apk = load_apk(path)
        result = FragDroid(Device()).explore(apk)
        save_artifacts(result, out_dir / apk.package)
        return result

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(run, apk_paths))

    summary = out_dir / "summary.csv"
    with summary.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "package", "activities_visited", "activities_sum",
            "fragments_visited", "fragments_sum", "api_relations",
            "events", "crashes",
        ])
        for result in results:
            writer.writerow([
                result.package,
                len(result.visited_activities), result.activity_total,
                len(result.visited_fragments), result.fragment_total,
                len({(i.api, i.source) for i in result.api_invocations}),
                result.stats.events, result.stats.crashes,
            ])
    print(f"explored {len(results)} apps; summary at {summary}")
    return 0


def cmd_trace_summary(args: argparse.Namespace) -> int:
    """Summarize a span JSONL file: per-phase totals + slowest spans
    (or collapsed-stack flamegraph lines with ``--flame``)."""
    import pathlib

    from repro.obs import collapsed_stacks, read_spans, render_summary

    path = pathlib.Path(args.jsonl)
    if not path.exists():
        print(f"no such trace file: {path}")
        return 1
    try:
        spans = read_spans(path)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"{path} is not a span JSONL file: {exc}")
        return 1
    if not spans:
        print(f"{path} holds no spans — was the run traced? "
              "(record with `explore --trace-jsonl`)")
        return 1
    if args.flame:
        for line in collapsed_stacks(spans):
            print(line)
        return 0
    print(render_summary(spans, top=args.top))
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard for a saved run, a
    directory of runs (the fleet view), or — with ``--journal`` — the
    service fleet-health view from a job journal."""
    import pathlib

    from repro.obs import render_dashboard_dir

    history = None
    explanations = None
    if getattr(args, "registry", None):
        from repro.obs.dashboard import load_explanations
        from repro.obs.registry import RunRegistry

        history = RunRegistry(args.registry).latest(args.trend)
        explanations = load_explanations(args.registry)
    if getattr(args, "journal", None):
        from repro.obs.dashboard import render_service_dashboard
        from repro.serve import JobJournal

        journal_dir = pathlib.Path(args.journal)
        if not journal_dir.is_dir():
            print(f"no such journal directory: {journal_dir}")
            return 1
        journal = JobJournal(journal_dir)
        html = render_service_dashboard(journal.jobs(), journal_dir,
                                        records=history, history=history,
                                        explanations=explanations)
    elif args.directory is None:
        print("dashboard needs a run directory (or --journal DIR)")
        return 1
    else:
        try:
            html = render_dashboard_dir(args.directory, history=history,
                                        explanations=explanations)
        except FileNotFoundError as exc:
            print(exc)
            return 1
        except ValueError as exc:
            print(f"cannot read run records under {args.directory}: {exc}")
            return 1
    out = pathlib.Path(args.output)
    try:
        out.write_text(html, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(
            f"cannot write dashboard file {args.output!r}: {exc}"
        ) from exc
    print(f"wrote dashboard to {out}")
    return 0


def _sweep_config(args: argparse.Namespace) -> Optional[FragDroidConfig]:
    if getattr(args, "static_cache", None):
        from repro.static.cache import StaticCache

        return FragDroidConfig(
            static_cache=StaticCache(directory=args.static_cache)
        )
    return None


def cmd_table1(args: argparse.Namespace) -> int:
    print(run_table1(config=_sweep_config(args), max_workers=args.workers,
                     backend=args.backend).render_table1())
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    print(run_table1(config=_sweep_config(args), max_workers=args.workers,
                     backend=args.backend).render_table2())
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    workers = args.workers if args.workers is not None else 1
    cache = None
    if getattr(args, "static_cache", None):
        from repro.static.cache import StaticCache

        cache = StaticCache(directory=args.static_cache)
    result = run_usage_study(max_workers=workers, backend=args.backend,
                             cache=cache)
    print(result.render())
    if cache is not None:
        stats = cache.stats()
        print(f"static cache: {stats['hits']} hits, "
              f"{stats['misses']} misses "
              f"(hit rate {stats['hit_rate']:.0%})")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed static-analysis cache."""
    from repro.static.cache import StaticCache, default_cache_dir

    directory = args.dir if args.dir else default_cache_dir()
    cache = StaticCache(directory=directory)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {directory}")
        return 0
    stats = cache.stats()
    print(f"cache directory: {stats['directory']}")
    print(f"entries: {stats['disk_entries']} "
          f"({stats['disk_bytes']} bytes)")
    print(f"lifetime hits: {stats.get('lifetime_hits', 0)}  "
          f"misses: {stats.get('lifetime_misses', 0)}  "
          f"stores: {stats.get('lifetime_stores', 0)}")
    print(f"lifetime hit rate: {stats.get('lifetime_hit_rate', 0.0):.0%}")
    return 0


def _open_registry(args: argparse.Namespace):
    from repro.obs.registry import RunRegistry

    return RunRegistry(args.dir) if getattr(args, "dir", None) \
        else RunRegistry()


def _resolve_record(registry, ref: str):
    """A run record by registry id/prefix or by record-file path.

    File paths may name either a full run record or a bench-result file
    (the ``write_result_json`` shape, ``{"bench": ..., "data": {...}}``);
    the latter is converted through the same flattening as
    ``repro runs ingest``, so committed bench baselines gate directly.
    """
    import json
    import pathlib

    from repro.obs.registry import load_record, record_from_bench

    path = pathlib.Path(ref)
    if path.is_file():
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "bench" in payload \
                and isinstance(payload.get("data"), dict):
            return record_from_bench(path)
        return load_record(path)
    return registry.load(ref)


def _print_diff_attribution(registry, baseline, candidate) -> None:
    """Append the attribution delta to a textual ``runs diff`` when
    both records have stored explanations; silent otherwise."""
    from repro.obs import ExplanationStore, newly_unreached

    store = ExplanationStore(registry.directory)
    try:
        base_exp = store.load(baseline.run_id)
        cand_exp = store.load(candidate.run_id)
    except (KeyError, ValueError, OSError):
        return
    fresh = newly_unreached(base_exp, cand_exp)
    recovered = newly_unreached(cand_exp, base_exp)
    if not fresh and not recovered:
        return
    print(f"attribution: {len(fresh)} newly unreached, "
          f"{len(recovered)} newly reached")
    for miss in fresh:
        print(f"  - now unreached ({miss.cause}): {miss.kind} {miss.name}")
    for miss in recovered:
        print(f"  + now reached: {miss.kind} {miss.name}")


def cmd_runs(args: argparse.Namespace) -> int:
    """The longitudinal run registry: list / show / diff / gc / pin /
    ingest."""
    import json

    registry = _open_registry(args)

    def need(count: int, what: str) -> bool:
        if len(args.refs) != count:
            print(f"runs {args.action} takes {what}")
            return False
        return True

    if args.action == "list":
        records = registry.list()
        for name, reason in registry.skipped:
            print(f"warning: skipped {name}: {reason}", file=sys.stderr)
        if not records:
            print(f"no run records under {registry.directory}")
            return 0
        pinned = registry.pinned()
        header = (f"{'run id':18} {'label':14} {'apps':>5} {'ok':>4} "
                  f"{'act rate':>9} {'frag rate':>10} {'apis':>6} "
                  f"{'phase s':>9}")
        print(header)
        print("-" * (len(header) + 8))
        for record in records:
            row = record.summary_row()
            act = row["mean_activity_rate"]
            frag = row["mean_fragment_rate"]
            apis = row["apis"]
            print(f"{row['run_id']:18} {str(row['label'])[:14]:14} "
                  f"{row['apps']:>5} {row['apps_ok']:>4} "
                  f"{(f'{act:.3f}' if act is not None else '-'):>9} "
                  f"{(f'{frag:.3f}' if frag is not None else '-'):>10} "
                  f"{(f'{int(apis)}' if apis is not None else '-'):>6} "
                  f"{row['phase_s']:>9.3f}"
                  f"{'  pinned' if row['run_id'] == pinned else ''}")
        return 0
    if args.action == "show":
        if not need(1, "one run id (or record file)"):
            return 2
        try:
            print(_resolve_record(registry, args.refs[0]).to_json(),
                  end="")
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot load {args.refs[0]!r}: {exc}")
            return 1
        return 0
    if args.action == "diff":
        if not need(2, "two run ids (or record files): BASELINE "
                       "CANDIDATE"):
            return 2
        from repro.obs.diff import diff_records

        try:
            baseline = _resolve_record(registry, args.refs[0])
            candidate = _resolve_record(registry, args.refs[1])
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot load records: {exc}")
            return 1
        diff = diff_records(baseline, candidate,
                            tolerance=args.tolerance)
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2))
        else:
            print(diff.render_text(changed_only=not args.all))
            _print_diff_attribution(registry, baseline, candidate)
        return 0
    if args.action == "pin":
        if not need(1, "one run id"):
            return 2
        try:
            print(f"pinned {registry.pin(args.refs[0])} as the "
                  "regression baseline")
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot pin {args.refs[0]!r}: {exc}")
            return 1
        return 0
    if args.action == "gc":
        removed = registry.gc(keep=args.keep)
        print(f"removed {len(removed)} record"
              f"{'s' if len(removed) != 1 else ''} from "
              f"{registry.directory} (keeping the newest {args.keep}"
              + (" and the pinned baseline" if registry.pinned() else "")
              + ")")
        return 0
    # ingest
    if not args.refs:
        print("runs ingest takes one or more bench result JSON files")
        return 2
    status = 0
    for path in args.refs:
        try:
            record = registry.ingest_bench(path)
        except (OSError, ValueError) as exc:
            print(f"cannot ingest {path}: {exc}")
            status = 1
            continue
        print(f"ingested {path} as {record.run_id} ({record.label})")
    return status


def cmd_profile(args: argparse.Namespace) -> int:
    """Where the time goes: top phases by p90 self time from a run
    record (default: the latest in the registry), optionally diffed
    against a baseline record."""
    registry = _open_registry(args)
    if args.record:
        try:
            record = _resolve_record(registry, args.record)
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot load record {args.record!r}: {exc}")
            return 2
    else:
        latest = registry.latest(1)
        if not latest:
            print(f"no run records in {registry.directory} — run a sweep "
                  "with a registry, or name a record file")
            return 2
        record = latest[0]
    if not record.phases:
        print(f"record {record.run_id or '<unnamed>'} has no phase data")
        return 2

    baseline = None
    if args.diff:
        try:
            baseline = _resolve_record(registry, args.diff)
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot load baseline {args.diff!r}: {exc}")
            return 2

    total = record.total_phase_time()
    ranked = sorted(record.phases.items(),
                    key=lambda item: item[1].get("self_p90_ms", 0.0),
                    reverse=True)[:args.top]
    print(f"run {record.run_id or '<unnamed>'} ({record.label}) — "
          f"top {len(ranked)} phases by p90 self time; "
          f"total self time {total:.3f}s")
    header = (f"{'phase':<32} {'count':>7} {'self_s':>8} {'share':>7} "
              f"{'p50_ms':>8} {'p90_ms':>8} {'p99_ms':>8}")
    if baseline is not None:
        header += f" {'Δp90_ms':>9}"
    print(header)
    for name, stats in ranked:
        self_s = stats.get("self_total_s", 0.0)
        share = self_s / total if total else 0.0
        line = (f"{name:<32} {int(stats.get('count', 0)):>7} "
                f"{self_s:>8.3f} {share:>6.1%} "
                f"{stats.get('self_p50_ms', 0.0):>8.2f} "
                f"{stats.get('self_p90_ms', 0.0):>8.2f} "
                f"{stats.get('self_p99_ms', 0.0):>8.2f}")
        if baseline is not None:
            base_stats = baseline.phases.get(name)
            if base_stats is None:
                line += f" {'new':>9}"
            else:
                delta = (stats.get("self_p90_ms", 0.0)
                         - base_stats.get("self_p90_ms", 0.0))
                line += f" {delta:>+9.2f}"
        print(line)
    if baseline is not None:
        gone = sorted(set(baseline.phases) - set(record.phases))
        if gone:
            print("phases only in baseline: " + ", ".join(gone))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Why every unreached target stayed unreached: a typed cause,
    witness path and blocking widget per missed activity / fragment /
    sensitive API, from a stored explanation, a saved run directory,
    or a fresh Table-I sweep."""
    import pathlib

    from repro.obs import ExplanationStore, render_explanation
    from repro.obs.attribution import explain_outcomes, explain_run_dir

    registry = _open_registry(args)
    store = ExplanationStore(registry.directory)
    if args.table1:
        from repro.bench.parallel import explore_many
        from repro.corpus import TABLE1_PLANS
        from repro.obs import EventLog, Tracer

        # The event log feeds the classifier's dynamic record (clicks,
        # quarantines, termination); without it causes degrade to the
        # static-only ladder.
        config = FragDroidConfig(tracer=Tracer(), event_log=EventLog(),
                                 run_registry=registry)
        outcomes = explore_many(TABLE1_PLANS, config=config,
                                max_workers=args.workers,
                                backend=args.backend)
        record = registry.latest(1)[0]
        explanation = explain_outcomes(outcomes, label="table1",
                                       source_run_id=record.run_id)
        store.save(explanation)
        print(f"recorded sweep as {record.run_id}; stored explanation "
              f"{explanation.explanation_id} under {store.directory}",
              file=sys.stderr)
    elif args.ref is None:
        print("explain needs a stored run id, a saved run directory, "
              "or --table1")
        return 2
    else:
        path = pathlib.Path(args.ref)
        if path.is_dir():
            try:
                explanation = explain_run_dir(path)
            except (OSError, ValueError, KeyError) as exc:
                print(f"cannot explain run directory {args.ref!r}: {exc}")
                return 2
        else:
            try:
                explanation = store.load(args.ref)
            except (KeyError, ValueError, OSError) as exc:
                print(f"cannot load explanation {args.ref!r}: {exc}")
                return 2
    if args.json:
        print(explanation.to_json(), end="")
    else:
        print(render_explanation(explanation, target=args.target,
                                 top=args.top), end="")
    return 0


def _print_newly_unreached(registry, baseline, candidate, report) -> None:
    """After a coverage violation, name the targets that regressed.

    Needs stored explanations for both records (``repro explain
    --table1`` or the live ``repro regress`` path writes them); silent
    when either side has none — the gate's verdict is unaffected.
    """
    if not any(v.kind == "coverage" for v in report.violations):
        return
    from repro.obs import ExplanationStore, newly_unreached

    store = ExplanationStore(registry.directory)
    try:
        base_exp = store.load(baseline.run_id)
        cand_exp = store.load(candidate.run_id)
    except (KeyError, ValueError, OSError):
        return
    fresh = newly_unreached(base_exp, cand_exp)
    if not fresh:
        return
    print(f"newly unreached targets ({len(fresh)}):")
    for miss in fresh:
        widget = (f" (widget {miss.blocking_widget})"
                  if miss.blocking_widget else "")
        print(f"  - {miss.cause}: {miss.kind} {miss.name}{widget}")
    print("  (drill down with `repro explain "
          f"{cand_exp.source_run_id} --target NAME`)")


def cmd_regress(args: argparse.Namespace) -> int:
    """The regression gate: candidate vs pinned baseline, exit 1 on
    regression."""
    import json
    import pathlib

    from repro.obs.regress import RegressionPolicy, check_regression

    registry = _open_registry(args)
    try:
        baseline = _resolve_record(registry, args.baseline)
    except (KeyError, ValueError, OSError) as exc:
        print(f"cannot load baseline {args.baseline!r}: {exc}")
        return 2
    if args.candidate:
        try:
            candidate = _resolve_record(registry, args.candidate)
        except (KeyError, ValueError, OSError) as exc:
            print(f"cannot load candidate {args.candidate!r}: {exc}")
            return 2
    else:
        # No candidate named: run the Table-I sweep now and gate on it.
        from repro.bench.parallel import explore_many
        from repro.corpus import TABLE1_PLANS
        from repro.obs import EventLog, ExplanationStore, Tracer
        from repro.obs.attribution import explain_outcomes

        config = FragDroidConfig(tracer=Tracer(), event_log=EventLog(),
                                 run_registry=registry)
        outcomes = explore_many(TABLE1_PLANS, config=config,
                                max_workers=args.workers,
                                backend=args.backend)
        candidate = registry.latest(1)[0]
        print(f"recorded candidate sweep as {candidate.run_id}")
        # Attribution rides along: store the candidate's explanation so
        # a coverage drop below names the newly unreached targets.
        ExplanationStore(registry.directory).save(explain_outcomes(
            outcomes, label="table1", source_run_id=candidate.run_id))
    policy_kwargs = dict(
        max_coverage_drop=args.max_coverage_drop,
        max_phase_time_increase=args.max_phase_time_increase,
        require_same_config=not args.ignore_comparability,
        require_same_corpus=not args.ignore_comparability,
        max_replay_divergences=args.max_replay_divergences,
    )
    if getattr(args, "coverage_key", None):
        policy_kwargs["coverage_keys"] = tuple(args.coverage_key)
    policy = RegressionPolicy(**policy_kwargs)
    report = check_regression(baseline, candidate, policy)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
        _print_newly_unreached(registry, baseline, candidate, report)
    if args.record_out:
        out = pathlib.Path(args.record_out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(candidate.to_json(), encoding="utf-8")
        except OSError as exc:
            raise SystemExit(
                f"cannot write candidate record {args.record_out!r}: "
                f"{exc}"
            ) from exc
        print(f"wrote candidate record to {out}")
    return report.exit_code


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a recorded replay script against a fresh device.

    Exit codes: 0 applied divergence-free, 1 diverged, 2 the script
    (or the app) could not be loaded.
    """
    import json
    import pathlib

    from repro.errors import ReproError
    from repro.rnr import ReplayScript, replay_script

    path = pathlib.Path(args.script)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read replay script {args.script!r}: {exc}")
        return 2
    try:
        script = ReplayScript.from_json(text)
    except ReproError as exc:
        print(f"{path} is not a usable replay script: {exc}")
        return 2
    apk = _resolve_apk(args.apk or script.package)
    name = path.name
    for suffix in (".json", ".replay"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    outcome = replay_script(script, Device(), apk=apk, name=name)
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2))
    else:
        print(outcome.render())
    if args.record:
        from repro.obs.registry import RunRegistry
        from repro.rnr.replay import SuiteReplayReport, replay_run_record

        suite = SuiteReplayReport(package=script.package,
                                  outcomes=[outcome])
        record = replay_run_record(suite)
        RunRegistry(args.record).record(record)
        print(f"recorded replay as {record.run_id}")
    return 0 if outcome.ok else 1


def cmd_fragility(args: argparse.Namespace) -> int:
    """The R&R fragility study: replay a recorded suite against
    mutated app versions; exit 1 when even the unchanged app diverges
    (a harness regression, not UI drift)."""
    import json

    from repro.rnr import run_fragility

    spec = _resolve_spec(args.app)
    config = FragDroidConfig(max_events=args.max_events)
    report = run_fragility(spec, seed=args.seed, config=config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.control_ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis service until SIGINT/SIGTERM (clean shutdown:
    running jobs stay journaled and resume on the next start)."""
    import signal
    import threading

    from repro.errors import ReproError
    from repro.serve import JobLimits, ReproServer, WallClock

    try:
        limits = JobLimits(
            queue_depth=args.queue_depth,
            max_apps=args.max_apps,
            max_events_cap=args.max_events_cap,
            max_time_budget_s=args.max_time_budget,
        )
        server = ReproServer(
            journal_dir=args.journal,
            registry_dir=args.runs_dir,
            host=args.host,
            port=args.port,
            limits=limits,
            max_restarts=args.max_restarts,
            backoff_clock=WallClock(),
            default_backend=args.backend or "thread",
            default_workers=args.workers,
            heartbeat_s=args.sse_heartbeat,
            sse_buffer=args.sse_buffer,
        )
        host, port = server.start()
    except (ReproError, ValueError, OSError) as exc:
        raise SystemExit(f"cannot start the service: {exc}") from exc
    stop = threading.Event()

    def handle(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, handle)
    signal.signal(signal.SIGTERM, handle)
    print(f"serving on http://{host}:{port} "
          f"(journal: {server.journal.directory}, "
          f"runs: {server.registry.directory})", flush=True)
    if server.resumed:
        print(f"resumed {server.resumed} in-flight job"
              f"{'s' if server.resumed != 1 else ''} from the journal",
              flush=True)
    while not stop.is_set():
        stop.wait(0.2)
    print("shutting down (running jobs stay journaled)", flush=True)
    server.stop()
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """Drive a running service: submit / status / logs / cancel."""
    import json
    import os

    from repro.serve import DEFAULT_URL, ServeClient, ServeClientError

    url = args.url or os.environ.get("FRAGDROID_SERVE_URL") or DEFAULT_URL
    client = ServeClient(url)

    def show(job: dict) -> None:
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
            return
        print(f"{job['job_id']}  {job['state']:10} "
              f"{len(job.get('completed', {}))}/{len(job['apps'])} apps"
              + (f"  error: {job['error']}" if job.get("error") else ""))

    try:
        if args.action == "submit":
            if not args.refs:
                print("jobs submit takes one or more app names")
                return 2
            job = client.submit(
                args.refs,
                max_events=args.max_events,
                time_budget_s=args.time_budget,
                backend=args.backend,
                workers=args.workers,
                fault_profile=(args.faults
                               if args.faults != "none" else None),
                fault_seed=args.fault_seed or None,
            )
            if args.wait:
                job = client.wait(job["job_id"],
                                  timeout_s=args.wait_timeout)
                show(job)
                return 0 if job["state"] == "done" else 1
            show(job)
            return 0
        if args.action == "status":
            if args.refs:
                show(client.job(args.refs[0]))
            else:
                rows = client.jobs()
                if not rows:
                    print("no jobs")
                for row in rows:
                    print(f"{row['job_id']}  {row['state']:10} "
                          f"{row['completed']}/{row['apps']} apps"
                          + (f"  error: {row['error']}"
                             if row.get("error") else ""))
            return 0
        if args.action == "logs":
            if not args.refs:
                print("jobs logs takes a JOB_ID")
                return 2

            def show_event(event: dict) -> None:
                if args.json:
                    print(json.dumps(event, sort_keys=True), flush=True)
                else:
                    extras = " ".join(
                        f"{key}={value}" for key, value in
                        sorted(event.get("attributes", {}).items()))
                    print(f"{event['seq']:>6}  {event['kind']:18} "
                          f"{event.get('app', ''):24} {extras}",
                          flush=True)

            if args.follow:
                # Live SSE tail: backlog first, then pushed events,
                # until the job finishes (or Ctrl-C).  A stream the
                # service drops for lagging resumes where it left off.
                try:
                    for event in client.stream_events(args.refs[0]):
                        show_event(event)
                except KeyboardInterrupt:
                    return 130
                return 0
            for event in client.logs(args.refs[0]):
                show_event(event)
            return 0
        # cancel
        if not args.refs:
            print("jobs cancel takes a JOB_ID")
            return 2
        show(client.cancel(args.refs[0]))
        return 0
    except ServeClientError as exc:
        print(f"error: {exc}"
              + (f" [{exc.kind}, HTTP {exc.status}]" if exc.status else ""),
              file=sys.stderr)
        return 1


def cmd_compare(_args: argparse.Namespace) -> int:
    print(run_baseline_comparison().render())
    return 0


def cmd_ablate(_args: argparse.Namespace) -> int:
    print(run_ablation().render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FragDroid (DSN 2018) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available apps").set_defaults(func=cmd_list)

    static = sub.add_parser("static", help="static information extraction")
    static.add_argument("app")
    static.add_argument("--dot", action="store_true")
    static.add_argument("--json", action="store_true")
    static.add_argument("--static-cache", metavar="DIR",
                        help="content-addressed cache of the static "
                             "phase under DIR")
    static.set_defaults(func=cmd_static)

    explore = sub.add_parser("explore", help="run the full pipeline")
    _add_explore_flags(explore)
    explore.set_defaults(func=cmd_explore)

    audit = sub.add_parser("audit", help="sensitive-API audit")
    _add_explore_flags(audit)
    audit.set_defaults(func=cmd_audit)

    target = sub.add_parser(
        "target", help="drive straight to a sensitive API"
    )
    _add_explore_flags(target)
    target.add_argument("api", help='e.g. "phone/getDeviceId"')
    target.set_defaults(func=cmd_target)

    build = sub.add_parser("build", help="write an app to a .apk file")
    build.add_argument("app")
    build.add_argument("-o", "--output", required=True,
                       help="output .apk path")
    build.set_defaults(func=cmd_build)

    export = sub.add_parser("export-corpus",
                            help="write all 15 evaluation apps as .apk")
    export.add_argument("-o", "--output", required=True,
                        help="output directory")
    export.set_defaults(func=cmd_export_corpus)

    trace_summary = sub.add_parser(
        "trace-summary",
        help="per-phase timing of a traced run (JSONL from --trace-jsonl)",
    )
    trace_summary.add_argument("jsonl", help="span JSONL file")
    trace_summary.add_argument("--top", type=int, default=10,
                               help="how many slowest spans to list")
    trace_summary.add_argument("--flame", action="store_true",
                               help="emit collapsed-stack flamegraph "
                                    "lines (name;name <self-time µs>)")
    trace_summary.set_defaults(func=cmd_trace_summary)

    dashboard = sub.add_parser(
        "dashboard",
        help="render the HTML dashboard of a saved run (or run dirs)",
    )
    dashboard.add_argument("directory", nargs="?", default=None,
                           help="an `explore --save` run directory, or "
                                "a directory of them (fleet view)")
    dashboard.add_argument("--journal", metavar="DIR", default=None,
                           help="render the service fleet-health view "
                                "from a job journal instead (the "
                                "`repro serve` --journal directory)")
    dashboard.add_argument("-o", "--output", default="dashboard.html",
                           help="output HTML path (default "
                                "dashboard.html)")
    dashboard.add_argument("--registry", metavar="DIR", default=None,
                           help="run-registry directory: adds the "
                                "run-over-run trend section")
    dashboard.add_argument("--trend", type=int, default=20,
                           help="how many registry records the trend "
                                "section covers (default 20)")
    dashboard.set_defaults(func=cmd_dashboard)

    batch = sub.add_parser("batch",
                           help="explore every .apk in a directory")
    batch.add_argument("directory")
    batch.add_argument("-o", "--output", required=True,
                       help="artifacts directory")
    batch.add_argument("--workers", type=int, default=4)
    batch.set_defaults(func=cmd_batch)

    for name, func, help_text in (
        ("table1", cmd_table1, "regenerate Table I"),
        ("table2", cmd_table2, "regenerate Table II"),
        ("study", cmd_study, "the 217-app usage study"),
    ):
        sweep = sub.add_parser(name, help=help_text)
        _add_sweep_flags(sweep)
        sweep.add_argument("--static-cache", metavar="DIR",
                           help="content-addressed cache of the "
                                "static phase under DIR")
        sweep.set_defaults(func=func)

    cache = sub.add_parser(
        "cache", help="inspect or clear the static-analysis cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--dir", metavar="DIR", default=None,
                       help="cache directory (default $FRAGDROID_CACHE_DIR "
                            "or ~/.cache/fragdroid)")
    cache.set_defaults(func=cmd_cache)

    runs = sub.add_parser(
        "runs", help="the longitudinal run registry"
    )
    runs.add_argument("action",
                      choices=("list", "show", "diff", "gc", "pin",
                               "ingest"))
    runs.add_argument("refs", nargs="*",
                      help="run ids / record files (show: ID; diff: "
                           "BASELINE CANDIDATE; pin: ID; ingest: "
                           "bench JSON files)")
    runs.add_argument("--dir", metavar="DIR", default=None,
                      help="registry directory (default "
                           "$FRAGDROID_RUNS_DIR or "
                           "~/.cache/fragdroid/runs)")
    runs.add_argument("--keep", type=int, default=10,
                      help="gc: how many newest records to keep "
                           "(default 10; the pinned baseline always "
                           "survives)")
    runs.add_argument("--tolerance", type=float, default=0.01,
                      help="diff: relative band within which counters "
                           "read as steady (default 0.01)")
    runs.add_argument("--all", action="store_true",
                      help="diff: show steady entries too")
    runs.add_argument("--json", action="store_true",
                      help="diff: emit the structured JSON diff")
    runs.set_defaults(func=cmd_runs)

    profile = sub.add_parser(
        "profile",
        help="top phases by p90 self time from a run record",
    )
    profile.add_argument("record", nargs="?", default=None,
                         help="run id (in the registry) or record JSON "
                              "file; omitted: the latest registry record")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="phases to show (default 10)")
    profile.add_argument("--diff", metavar="BASELINE", default=None,
                         help="also show per-phase p90 deltas against "
                              "this run id or record file")
    profile.add_argument("--dir", metavar="DIR", default=None,
                         help="registry directory (default "
                              "$FRAGDROID_RUNS_DIR or "
                              "~/.cache/fragdroid/runs)")
    profile.set_defaults(func=cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="why every unreached target stayed unreached",
    )
    explain.add_argument("ref", nargs="?", default=None,
                         help="run id with a stored explanation, or a "
                              "saved run directory (`explore --save`)")
    explain.add_argument("--table1", action="store_true",
                         help="run the Table-I sweep now, record it, and "
                              "store + print its explanation")
    explain.add_argument("--target", metavar="NAME", default=None,
                         help="drill into one unreached target (full "
                              "name, simple name, or API name)")
    explain.add_argument("--top", type=int, default=0, metavar="N",
                         help="miss-table rows to show (default 0: all)")
    explain.add_argument("--json", action="store_true",
                         help="emit the explanation artifact JSON")
    explain.add_argument("--dir", metavar="DIR", default=None,
                         help="registry directory (default "
                              "$FRAGDROID_RUNS_DIR or "
                              "~/.cache/fragdroid/runs)")
    _add_sweep_flags(explain)
    explain.set_defaults(func=cmd_explain)

    regress = sub.add_parser(
        "regress",
        help="gate a candidate run against a baseline record",
    )
    regress.add_argument("--baseline", required=True, metavar="REF",
                         help="baseline run id (in the registry) or "
                              "record JSON file")
    regress.add_argument("--candidate", metavar="REF", default=None,
                         help="candidate run id or record file; "
                              "omitted: run the Table-I sweep now and "
                              "record it")
    regress.add_argument("--dir", metavar="DIR", default=None,
                         help="registry directory (default "
                              "$FRAGDROID_RUNS_DIR or "
                              "~/.cache/fragdroid/runs)")
    regress.add_argument("--max-coverage-drop", type=float, default=0.10,
                         help="relative coverage drop allowed "
                              "(default 0.10)")
    regress.add_argument("--max-phase-time-increase", type=float,
                         default=0.25,
                         help="relative increase allowed in a phase's "
                              "share of total self time (default 0.25)")
    regress.add_argument("--coverage-key", metavar="KEY",
                         action="append", default=None,
                         help="gate this coverage key instead of the "
                              "default sweep keys (repeatable; e.g. "
                              "apps_per_second for bench records)")
    regress.add_argument("--max-replay-divergences", type=int, default=0,
                         help="replayed scripts allowed to diverge in a "
                              "replay candidate record (default 0: any "
                              "divergence on an unchanged app fails)")
    regress.add_argument("--ignore-comparability", action="store_true",
                         help="compare despite differing config "
                              "fingerprints / corpus digests")
    regress.add_argument("--json", action="store_true",
                         help="emit the structured JSON report")
    regress.add_argument("--record-out", metavar="FILE", default=None,
                         help="also write the candidate record JSON "
                              "to FILE (CI artifact)")
    _add_sweep_flags(regress)
    regress.set_defaults(func=cmd_regress)

    replay = sub.add_parser(
        "replay",
        help="re-run a recorded replay script on a fresh device",
    )
    replay.add_argument("script",
                        help="a *.replay.json script (written by "
                             "`explore --save DIR --export-replay`)")
    replay.add_argument("--apk", metavar="APP", default=None,
                        help="app to replay against (corpus/demo name "
                             "or .apk path; default: the script's own "
                             "package)")
    replay.add_argument("--json", action="store_true",
                        help="emit the structured JSON outcome")
    replay.add_argument("--record", metavar="DIR", default=None,
                        help="also record the replay outcome in the run "
                             "registry under DIR (feeds `repro regress`)")
    replay.set_defaults(func=cmd_replay)

    fragility = sub.add_parser(
        "fragility",
        help="replay a recorded suite against mutated app versions",
    )
    fragility.add_argument("app", help="corpus package or demo:* name "
                                       "(.apk files cannot be mutated)")
    fragility.add_argument("--seed", type=int, default=0,
                           help="mutation-plan seed (same seed: "
                                "byte-identical table)")
    fragility.add_argument("--max-events", type=int, default=20000,
                           help="exploration event budget for the "
                                "recording run")
    fragility.add_argument("--json", action="store_true",
                           help="emit the structured JSON report")
    fragility.set_defaults(func=cmd_fragility)

    serve = sub.add_parser(
        "serve",
        help="run the exploration fleet as a local HTTP/JSON service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7340,
                       help="bind port (default 7340; 0 for ephemeral)")
    serve.add_argument("--journal", metavar="DIR", default=None,
                       help="job-journal directory (default "
                            "$FRAGDROID_SERVE_DIR or "
                            "~/.cache/fragdroid/serve); restart resumes "
                            "in-flight jobs from here")
    serve.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="run-registry directory finished jobs land "
                            "in (default $FRAGDROID_RUNS_DIR or "
                            "~/.cache/fragdroid/runs)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admission bound: pending jobs beyond this "
                            "are rejected with HTTP 429 (default 16)")
    serve.add_argument("--max-apps", type=int, default=500,
                       help="admission bound: apps per job (default 500)")
    serve.add_argument("--max-events-cap", type=int, default=20000,
                       help="admission bound: per-job max_events "
                            "(default 20000)")
    serve.add_argument("--max-time-budget", type=float, default=3600.0,
                       help="admission bound: per-job time budget in "
                            "seconds (default 3600)")
    serve.add_argument("--max-restarts", type=int, default=2,
                       help="worker-death re-admissions per app before "
                            "it is quarantined (default 2)")
    serve.add_argument("--sse-buffer", type=int, default=256,
                       help="per-subscriber event buffer for "
                            "/jobs/<id>/events; a client further "
                            "behind is disconnected and resumes from "
                            "its last event (default 256)")
    serve.add_argument("--sse-heartbeat", type=float, default=15.0,
                       help="seconds between SSE heartbeat comments "
                            "on a quiet stream (default 15)")
    _add_sweep_flags(serve)
    serve.set_defaults(func=cmd_serve)

    jobs = sub.add_parser(
        "jobs", help="drive a running `repro serve`"
    )
    jobs.add_argument("action",
                      choices=("submit", "status", "logs", "cancel"))
    jobs.add_argument("refs", nargs="*",
                      help="submit: APP...; status: [JOB_ID]; "
                           "logs/cancel: JOB_ID")
    jobs.add_argument("--url", default=None,
                      help="service URL (default $FRAGDROID_SERVE_URL "
                           "or http://127.0.0.1:7340)")
    jobs.add_argument("--max-events", type=int, default=None,
                      help="submit: per-app event budget")
    jobs.add_argument("--time-budget", type=float, default=None,
                      help="submit: job wall-clock budget in seconds")
    jobs.add_argument("--faults", metavar="PROFILE",
                      choices=sorted(FAULT_PROFILES), default="none",
                      help="submit: fault-injection profile")
    jobs.add_argument("--fault-seed", type=int, default=0,
                      help="submit: fault-stream seed")
    jobs.add_argument("--follow", action="store_true",
                      help="logs: stream the job's events live over "
                           "SSE until it finishes (Ctrl-C to stop)")
    jobs.add_argument("--wait", action="store_true",
                      help="submit: poll until the job is terminal; "
                           "exit 1 unless it is done")
    jobs.add_argument("--wait-timeout", type=float, default=600.0,
                      help="submit --wait: give up "
                           "waiting for the job after this many seconds "
                           "(default 600)")
    jobs.add_argument("--json", action="store_true",
                      help="emit raw JSON instead of the summary line")
    _add_sweep_flags(jobs)
    jobs.set_defaults(func=cmd_jobs)

    for name, func, help_text in (
        ("compare", cmd_compare, "baseline comparison"),
        ("ablate", cmd_ablate, "mechanism ablations"),
    ):
        sub.add_parser(name, help=help_text).set_defaults(func=func)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
