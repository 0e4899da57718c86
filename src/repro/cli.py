"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the corpus apps and figure demos available by name;
* ``static <app>`` — run Static Information Extraction, print the AFTM
  summary (``--dot`` for Graphviz, ``--json`` for the model);
* ``explore <app>`` — run the full FragDroid pipeline, print the
  coverage report (``--json`` for the structured run report);
* ``audit <app>`` — explore and print the sensitive-API relations;
* ``show <run>`` — one view of a saved run (``explore --save``) or a
  run-registry record: where the time went, what the explorer did, and
  why each missed target was missed; ``--flame`` emits a traced run's
  collapsed-stack flamegraph lines instead;
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
import json
import pathlib
import sys
from typing import Callable, Dict, List, Optional

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.apk.appspec import AppSpec
from repro.bench import (
    run_ablation,
    run_baseline_comparison,
    run_table1,
    run_usage_study,
)
from repro.bench.parallel import BACKENDS, sweep
from repro.core.report import result_to_json
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
from repro.static.aftm import aftm_to_json

DEMOS: Dict[str, Callable[[], AppSpec]] = {
    "demo:tabs": demo_tabbed_app,
    "demo:drawer": demo_drawer_app,
    "demo:aftm": demo_aftm_example,
}


def _resolve_spec(name: str, hint: str = "") -> AppSpec:
    """An app spec by demo name, corpus name or Android package."""
    if name in DEMOS:
        return DEMOS[name]()
    if name in table1_packages():
        return build_table1_app(name)
    # Replay scripts name the Android package, not the demo alias.
    for factory in DEMOS.values():
        spec = factory()
        if spec.package == name:
            return spec
    raise SystemExit(
        f"unknown app {name!r}; run `python -m repro list` for choices{hint}"
    )


def _resolve_apk(name: str):
    """An app by corpus name, demo name, or .apk file path."""
    if name.endswith(".apk") and pathlib.Path(name).exists():
        from repro.apk.apkfile import load_apk

        return load_apk(name)
    return build_apk(_resolve_spec(name, ", or pass a path to a saved .apk"))


def _static_cache(args: argparse.Namespace):
    """The ``--static-cache DIR`` cache, or None without the flag."""
    if not getattr(args, "static_cache", None):
        return None
    from repro.static.cache import StaticCache

    return StaticCache(directory=args.static_cache)


def _jsonl_sink(path: str, what: str):
    """A JSONL sink writing ``path``; exits with a message if it cannot
    be opened.  When ``path`` is a file the commit marker of its run
    directory lists, the marker goes first, as in ``save_artifacts``:
    the sink rewrites a committed file, so the directory stops being a
    committed run until a ``--save`` commits it again."""
    from repro.errors import StoreError
    from repro.obs import JsonlSink
    from repro.obs.dashboard import MANIFEST, manifest_files

    target = pathlib.Path(path)
    try:
        if target.name in manifest_files(target.parent):
            (target.parent / MANIFEST).unlink(missing_ok=True)
    except StoreError:
        pass  # no readable marker: nothing there is committed
    except OSError as exc:
        raise SystemExit(f"cannot uncommit the run holding {what} file "
                         f"{path!r}: {exc}") from exc
    try:
        return JsonlSink(path)
    except OSError as exc:
        raise SystemExit(f"cannot open {what} file {path!r}: {exc}") from exc


def _write_file(path: str, text: str, what: str) -> pathlib.Path:
    """Write ``text`` to ``path``, making its directory; exits with a
    message if it cannot."""
    out = pathlib.Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot write {what} {path!r}: {exc}") from exc
    return out


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
        from repro.obs import Tracer

        config.tracer = Tracer(sinks=[_jsonl_sink(args.trace_jsonl, "trace")])
    if getattr(args, "metrics_prom", None) and not config.tracer.enabled:
        from repro.obs import Tracer

        # The counters live on the tracer; --metrics-prom alone still
        # needs a live one (spans just go nowhere).
        config.tracer = Tracer()
    if getattr(args, "events_jsonl", None):
        from repro.obs import EventLog

        config.event_log = EventLog(
            sinks=[_jsonl_sink(args.events_jsonl, "event")])
    config.static_cache = _static_cache(args)
    return config


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", metavar="PROFILE",
                        choices=sorted(FAULT_PROFILES), default="none",
                        help="fault-injection profile (none | mild | "
                             "hostile); a faulted run retries, "
                             "quarantines and reports a degradation "
                             "section")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault stream")


def _add_explore_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="corpus package or demo:* name")
    parser.add_argument("--no-reflection", action="store_true")
    parser.add_argument("--no-forced-start", action="store_true")
    parser.add_argument("--no-click-sweep", action="store_true")
    parser.add_argument("--heuristic-inputs", action="store_true")
    parser.add_argument("--max-events", type=int, default=20000)
    _add_fault_flags(parser)
    parser.add_argument("--json", action="store_true",
                        help="emit the structured JSON report")
    parser.add_argument("--trace", action="store_true",
                        help="print the exploration trace")
    parser.add_argument("--trace-jsonl", metavar="FILE",
                        help="record observability spans as JSON lines "
                             "(with --save, inspect with `repro show DIR`)")
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
                        help="pool backend: thread or process (sidesteps "
                             "the GIL); default thread, or process for a "
                             "multi-worker study; FRAGDROID_SWEEP_BACKEND "
                             "overrides the default")


def cmd_list(_args: argparse.Namespace) -> int:
    print("figure demos:")
    for name in sorted(DEMOS):
        print(f"  {name}")
    print("evaluation corpus (Tables I & II):")
    for name in table1_packages():
        print(f"  {name}")
    return 0


def cmd_static(args: argparse.Namespace) -> int:
    info = extract_static_info(_resolve_apk(args.app),
                               cache=_static_cache(args))
    if args.json:
        print(aftm_to_json(info.aftm))
        return 0
    print(info.aftm.summary())
    for edge in sorted(info.aftm.edges):
        print(f"  {edge.src} -> {edge.dst}  [{edge.kind.name}]")
    if args.dot:
        print(info.aftm.to_dot())
    return 0


def _explore(args: argparse.Namespace):
    """Explore ``args.app`` on a device built from the flags' fault plan,
    then close the tracer and the event log; ``(config, apk, result)``."""
    config = _config_from(args)
    device = make_device(config.fault_plan, scope=args.app)
    apk = _resolve_apk(args.app)
    result = FragDroid(device, config).explore(apk)
    config.tracer.close()
    config.event_log.close()
    return config, apk, result


def cmd_explore(args: argparse.Namespace) -> int:
    config, _, result = _explore(args)
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

        _write_file(args.metrics_prom, prometheus_text(config.tracer.metrics),
                    "metrics file")
        print(f"wrote metrics to {args.metrics_prom}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    print(build_api_report([_explore(args)[2]]).render())
    return 0


def cmd_target(args: argparse.Namespace) -> int:
    """Explore, then drive straight to a sensitive API (SmartDroid-style)."""
    from repro.core.targeted import components_invoking, drive_to_api

    _, apk, result = _explore(args)
    if not components_invoking(result, args.api):
        print(f"{args.api} was never observed in {args.app}")
        return 1
    case, component = drive_to_api(result, apk, Device(), args.api)
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
    from repro.apk.apkfile import save_apk

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for package in table1_packages():
        path = save_apk(build_apk(build_table1_app(package)),
                        out / f"{package}.apk")
        print(f"  {path}")
    print(f"exported {len(table1_packages())} apps to {out}")
    return 0


def _batch_one(out_dir, path) -> list:
    """Load, explore and save one ``batch`` file; its summary row."""
    from repro.apk.apkfile import load_apk
    from repro.core.artifacts import save_artifacts

    result = FragDroid(Device()).explore(load_apk(path))
    save_artifacts(result, out_dir / result.package)
    return [
        result.package,
        len(result.visited_activities), result.activity_total,
        len(result.visited_fragments), result.fragment_total,
        len({(i.api, i.source) for i in result.api_invocations}),
        result.stats.events, result.stats.crashes, "",
    ]


def cmd_batch(args: argparse.Namespace) -> int:
    """Explore every .apk in a directory; write artifacts + summary CSV.

    A file that fails to load or explore gets a failed row, keyed by its
    file name, instead of stopping the others; the command then exits 1.
    """
    import csv
    from functools import partial

    in_dir = pathlib.Path(args.directory)
    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    apk_paths = sorted(in_dir.glob("*.apk"))
    if not apk_paths:
        print(f"no .apk files under {in_dir}")
        return 1

    outcomes = sweep(apk_paths, partial(_batch_one, out_dir),
                     key=lambda path: path.name,
                     max_workers=args.workers).outcomes
    header = [
        "package", "activities_visited", "activities_sum",
        "fragments_visited", "fragments_sum", "api_relations",
        "events", "crashes", "error",
    ]
    failed = 0
    summary = out_dir / "summary.csv"
    with summary.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for path in apk_paths:
            outcome = outcomes[path.name]
            if outcome.ok:
                writer.writerow(outcome.result)
                continue
            failed += 1
            error = f"{type(outcome.error).__name__}: {outcome.error}"
            print(f"failed: {path.name}: {error}")
            writer.writerow([path.name, *[""] * (len(header) - 2), error])
    print(f"explored {len(apk_paths) - failed} of {len(apk_paths)} apps; "
          f"summary at {summary}")
    return 1 if failed else 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard for a saved run, a
    directory of runs (the fleet view), or — with ``--journal`` — the
    service fleet-health view from a job journal."""
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
    out = _write_file(args.output, html, "dashboard file")
    print(f"wrote dashboard to {out}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """``table1`` / ``table2``: one Table-I sweep, rendered as the
    table the command names."""
    cache = _static_cache(args)
    config = None if cache is None else FragDroidConfig(static_cache=cache)
    result = run_table1(config=config, max_workers=args.workers,
                        backend=args.backend)
    print(getattr(result, f"render_{args.command}")())
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    cache = _static_cache(args)
    result = run_usage_study(max_workers=args.workers, backend=args.backend,
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


def _add_registry_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dir", metavar="DIR", default=None,
                        help="registry directory (default "
                             "$FRAGDROID_RUNS_DIR or "
                             "~/.cache/fragdroid/runs)")


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
    from repro.obs.registry import load_record, record_from_bench

    path = pathlib.Path(ref)
    if path.is_file():
        payload = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(payload, dict) and "bench" in payload \
                and isinstance(payload.get("data"), dict):
            return record_from_bench(path)
        return load_record(path)
    return registry.load(ref)


def _attribution_delta(registry, baseline, candidate):
    """``(newly unreached, newly reached, candidate explanation)`` from
    both records' stored explanations; ``([], [], None)`` when either
    has none."""
    from repro.obs import ExplanationStore, newly_unreached

    store = ExplanationStore(registry.directory)
    try:
        base_exp = store.load(baseline.run_id)
        cand_exp = store.load(candidate.run_id)
    except (KeyError, ValueError, OSError):
        return [], [], None
    return (newly_unreached(base_exp, cand_exp),
            newly_unreached(cand_exp, base_exp), cand_exp)


def _print_diff_attribution(registry, baseline, candidate) -> None:
    """Append the attribution delta to a textual ``runs diff`` when
    both records have stored explanations; silent otherwise."""
    fresh, recovered, _ = _attribution_delta(registry, baseline, candidate)
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


def _print_self_times(phases: Dict[str, Dict], top: int, unit: str) -> None:
    """The ``top`` entries of ``phases`` (the ``RunRecord.phases``
    shape) by p90 self time."""
    from repro.obs.flame import ranked_phases

    total = sum(stats.get("self_total_s", 0.0) for stats in phases.values())
    ranked = ranked_phases(phases)[:top]
    print(f"top {len(ranked)} {unit}s by p90 self time; "
          f"total self time {total:.3f}s")
    print(f"{'count':>7} {'self_s':>8} {'share':>7} {'p50_ms':>8} "
          f"{'p90_ms':>8} {'p99_ms':>8}  {unit}")
    for name, stats in ranked:
        self_s = stats.get("self_total_s", 0.0)
        share = self_s / total if total else 0.0
        print(f"{int(stats.get('count', 0)):>7} {self_s:>8.3f} "
              f"{share:>6.1%} {stats.get('self_p50_ms', 0.0):>8.2f} "
              f"{stats.get('self_p90_ms', 0.0):>8.2f} "
              f"{stats.get('self_p99_ms', 0.0):>8.2f}  {name}")


def _item_self_times(events) -> Dict[str, Dict[str, float]]:
    """Self-time stats per queue item of a run record.  An item's time
    is the gap between its ``item.start`` wall and the next one; the
    last is closed by ``run.end``."""
    from repro.obs.events import ITEM_START, RUN_END
    from repro.obs.flame import self_time_stats

    marks = [e for e in events if e.kind in (ITEM_START, RUN_END)]
    times: Dict[str, List[float]] = {}
    for mark, following in zip(marks, marks[1:]):
        if mark.kind == ITEM_START:
            times.setdefault(str(mark.attributes.get("item")), []).append(
                following.wall - mark.wall)
    return {item: self_time_stats(values) for item, values in times.items()}


def _explorer_lines(run, top: int) -> List[str]:
    """What the explorer did in a saved run, from its report and run
    record."""
    from repro.obs import discovery_stats, event_census, stalls
    from repro.obs.dashboard import fleet_rows
    from repro.obs.events import RUN_END

    ends = [e.attributes.get("termination") for e in run.events
            if e.kind == RUN_END]
    row = fleet_rows([run])[0]
    census = event_census(run.events)
    found = stalls(run.events)
    steps = discovery_stats(run.events, run.api_steps)
    lines = [
        f"termination: {ends[-1] if ends else 'unknown (no run record)'}",
        f"coverage: activities {row['activities_visited']}/"
        f"{row['activities_sum']}, fragments {row['fragments_visited']}/"
        f"{row['fragments_sum']}, sensitive-API invocations {row['apis']}, "
        f"events {row['events']}, crashes {row['crashes']}",
        "event census:",
        *(f"  {kind:24} {census[kind]}" for kind in sorted(census)),
        f"stalls of 50+ events without a discovery: {len(found)}",
        *(f"  steps {stall.start_step}-{stall.end_step}: {stall.events} "
          "events" for stall in found[:top]),
        "device steps to 50% / 90% of each series:",
    ]
    for series in ("activities", "fragments", "fivas", "apis"):
        t50, t90 = steps[f"{series}_t50"], steps[f"{series}_t90"]
        lines.append(f"  {series:24} {'-' if t50 is None else t50} / "
                     f"{'-' if t90 is None else t90}")
    degradation = run.report.get("degradation")
    if degradation:
        lines.append("degradation:")
        lines += [f"  {key}: {json.dumps(degradation[key], sort_keys=True)}"
                  for key in sorted(degradation)]
    return lines


def cmd_show(args: argparse.Namespace) -> int:
    """One view of a saved run: where the time went, what the explorer
    did, and why each missed target was missed.  REF is a run directory
    (``explore --save``), a registry run id or a record file (default:
    the registry's latest record)."""
    from repro.obs import (
        ExplanationStore,
        collapsed_stacks,
        load_run,
        render_explanation,
    )
    from repro.obs.attribution import explain_run_dir
    from repro.obs.flame import phase_stats

    if args.ref and pathlib.Path(args.ref).is_dir():
        try:
            run = load_run(args.ref)
            misses = render_explanation(explain_run_dir(run))
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read run directory {args.ref!r}: {exc}")
            return 2
        spans = run.spans
        title = f"run {run.package} ({run.path})"
        phases = phase_stats(spans) if spans else _item_self_times(run.events)
        unit = "phase" if spans else "item"
        explorer = _explorer_lines(run, args.top)
    else:
        registry = _open_registry(args)
        if args.ref:
            try:
                record = _resolve_record(registry, args.ref)
            except (KeyError, ValueError, OSError) as exc:
                print(f"cannot load {args.ref!r}: {exc}")
                return 2
        else:
            latest = registry.latest(1)
            if not latest:
                print(f"no run records in {registry.directory} — name a "
                      "saved run directory or a record file")
                return 2
            record = latest[0]
        row = record.summary_row()
        spans, phases, unit = [], record.phases, "phase"
        title = f"run {row['run_id']} ({record.label})"
        explorer = [f"{key}: {value}" for key, value in row.items()]
        try:
            misses = render_explanation(
                ExplanationStore(registry.directory).load(row["run_id"]))
        except (KeyError, ValueError, OSError):
            misses = (f"no stored explanation for run {row['run_id']} "
                      "(`repro explain --table1` stores one)\n")
    if args.flame:
        if not spans:
            print(f"{args.ref or title} holds no spans — record the run "
                  "with `explore --trace-jsonl FILE --save DIR`")
            return 1
        print("\n".join(collapsed_stacks(spans)))
        return 0
    print(title)
    print("\n== time ==")
    if phases:
        _print_self_times(phases, args.top, unit)
    else:
        print("no spans, queue items or phase data recorded")
    print("\n== explorer ==")
    print("\n".join(explorer))
    print("\n== misses ==")
    print(misses, end="")
    return 0


def _record_table1(registry, args: argparse.Namespace):
    """Run the Table-I sweep, record it in ``registry`` and store its
    explanation there; ``(record, explanation)``."""
    from repro.bench.parallel import explore_many
    from repro.corpus import TABLE1_PLANS
    from repro.obs import EventLog, ExplanationStore, Tracer
    from repro.obs.attribution import explain_outcomes

    # The classifier reads each result's own run record; the event log
    # gathers the sweep's records for the run registry's per-app
    # discovery statistics.
    config = FragDroidConfig(tracer=Tracer(), event_log=EventLog(),
                             run_registry=registry)
    outcomes = explore_many(TABLE1_PLANS, config=config,
                            max_workers=args.workers, backend=args.backend)
    record = registry.latest(1)[0]
    explanation = explain_outcomes(outcomes, label="table1",
                                   source_run_id=record.run_id)
    ExplanationStore(registry.directory).save(explanation)
    return record, explanation


def cmd_explain(args: argparse.Namespace) -> int:
    """Why every unreached target stayed unreached: a typed cause,
    witness path and blocking widget per missed activity / fragment /
    sensitive API, from a stored explanation, a saved run directory,
    or a fresh Table-I sweep."""
    from repro.obs import ExplanationStore, render_explanation
    from repro.obs.attribution import explain_run_dir

    registry = _open_registry(args)
    store = ExplanationStore(registry.directory)
    if args.table1:
        record, explanation = _record_table1(registry, args)
        print(f"recorded sweep as {record.run_id}; stored explanation "
              f"{explanation.explanation_id} under {store.directory}",
              file=sys.stderr)
    elif args.ref is None:
        print("explain needs a stored run id, a saved run directory, "
              "or --table1")
        return 2
    else:
        run_dir = pathlib.Path(args.ref).is_dir()
        try:
            explanation = (explain_run_dir(args.ref) if run_dir
                           else store.load(args.ref))
        except (OSError, ValueError, KeyError) as exc:
            what = "explain run directory" if run_dir else "load explanation"
            print(f"cannot {what} {args.ref!r}: {exc}")
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
    fresh, _, cand_exp = _attribution_delta(registry, baseline, candidate)
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
        # Its stored explanation lets a coverage drop below name the
        # newly unreached targets.
        candidate, _ = _record_table1(registry, args)
        print(f"recorded candidate sweep as {candidate.run_id}")
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
        out = _write_file(args.record_out, candidate.to_json(),
                          "candidate record")
        print(f"wrote candidate record to {out}")
    return report.exit_code


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a recorded replay script against a fresh device.

    Exit codes: 0 applied divergence-free, 1 diverged, 2 the script
    (or the app) could not be loaded.
    """
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
    from repro.rnr import run_fragility

    if args.app.endswith(".apk"):
        raise SystemExit(
            "the fragility study mutates the app spec; .apk files are "
            "not supported — pass a demo:* or corpus name"
        )
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
            return 1 if args.wait and job["state"] != "done" else 0
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


def cmd_experiment(args: argparse.Namespace) -> int:
    """``compare`` / ``ablate``: run the experiment and print its table."""
    run = {"compare": run_baseline_comparison, "ablate": run_ablation}
    print(run[args.command]().render())
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
        ("table1", cmd_table, "regenerate Table I"),
        ("table2", cmd_table, "regenerate Table II"),
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
    _add_registry_dir(runs)
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

    show = sub.add_parser(
        "show",
        help="where a saved run's time went, what the explorer did, and "
             "why targets were missed",
    )
    show.add_argument("ref", nargs="?", default=None,
                      help="an `explore --save` run directory, a run id "
                           "or a record file; omitted: the latest "
                           "registry record")
    show.add_argument("--top", type=int, default=10, metavar="N",
                      help="rows per table (default 10)")
    show.add_argument("--flame", action="store_true",
                      help="emit a traced run's collapsed-stack "
                           "flamegraph lines (name;name <self-time µs>) "
                           "instead")
    _add_registry_dir(show)
    show.set_defaults(func=cmd_show)

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
    _add_registry_dir(explain)
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
    _add_registry_dir(regress)
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
    _add_fault_flags(jobs)
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

    for name, help_text in (("compare", "baseline comparison"),
                            ("ablate", "mechanism ablations")):
        sub.add_parser(name, help=help_text).set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
