"""Market-scale static throughput (Section VII-A: 217 apps analyzed).

Times the usage-study sweep — decode + fragment scan over the whole
market — and a single exploration run, the two phases whose cost governs
a large-scale deployment.  Two gates keep the lexer-rewrite win pinned:

* ``test_lexer_speedup_vs_legacy`` races the dispatch-table lexer
  against the frozen pre-optimization parser (``_legacy_smali``) in the
  same process — a machine-independent ratio assertion;
* the ``static_perf_market`` result JSON feeds ``repro regress
  --coverage-key apps_per_second`` against the committed baseline in
  ``benchmarks/baselines/static_perf_baseline.json`` (CI fails on a
  >25% throughput drop).
"""

import importlib.util
import pathlib
from time import perf_counter

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.bench import run_usage_study
from repro.corpus import build_table1_app
from repro.corpus.market import generate_market

#: Cold best-of; the sweep is deterministic, the clock is not.
_SWEEP_ROUNDS = 3

#: The dispatch-table lexer must stay at least this much faster than the
#: frozen legacy parser on a warmed market-scale corpus.
_MIN_LEXER_SPEEDUP = 2.0


def _load_legacy_parser():
    path = pathlib.Path(__file__).parent / "_legacy_smali.py"
    spec = importlib.util.spec_from_file_location("_legacy_smali", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_market_sweep_throughput(benchmark, save_result_json):
    # Cold path: no StaticCache, fresh builds, on one worker: the
    # committed baseline is a one-core figure, so the gate measures the
    # per-app code, not how many cores the runner has.
    start = perf_counter()
    study = benchmark.pedantic(run_usage_study, kwargs={"max_workers": 1},
                               rounds=1, iterations=1)
    first = perf_counter() - start
    best = first
    for _ in range(_SWEEP_ROUNDS - 1):
        start = perf_counter()
        run_usage_study(max_workers=1)
        best = min(best, perf_counter() - start)
    assert study.total == 217
    save_result_json("static_perf_market", {
        "apps": study.total,
        "packed": study.packed,
        "with_fragments": study.with_fragments,
        "fragment_share": round(study.share, 6),
        "seconds": round(first, 3),
        "seconds_best": round(best, 3),
        "apps_per_second": round(study.total / best, 2),
    })


def test_lexer_speedup_vs_legacy(save_result_json):
    """The single-pass lexer vs the frozen pre-rewrite parser.

    Both arms run in this process over the same market-scale smali
    corpus and share ``repro.smali.model`` (interned refs, cached type
    converters), so the ratio isolates the lexing strategy and holds on
    any machine.  Warm passes are the sweep steady state: the
    process-wide line cache is warm, and, as ``Apktool.decode`` does on
    every decode, each pass gives each app fresh ``ParseTables``, so the
    lines that name the app are parsed cold every time.  The new arm is
    the decoder's entry, which parses method bodies on first read, so
    every pass reads ``.methods`` of each class it parses.
    """
    import repro.smali.assemble as new_asm
    import repro.smali.model as model

    legacy = _load_legacy_parser()
    apps = [list(app.build().smali_files.values())
            for app in generate_market(count=217, seed=2018)]

    def run_legacy():
        start = perf_counter()
        for texts in apps:
            for text in texts:
                legacy.parse_class(text).methods
        return perf_counter() - start

    def run_new():
        start = perf_counter()
        for texts in apps:
            tables = new_asm.ParseTables()  # one per decode
            for text in texts:
                new_asm.parse_class_header(text, tables).methods
        return perf_counter() - start

    run_legacy()  # warm the shared converter caches
    legacy_best = min(run_legacy() for _ in range(3))
    new_asm._INSTRUCTION_CACHE.clear()
    model._PARSED_REFS.clear()
    new_cold = run_new()
    new_best = min(run_new() for _ in range(3))

    ratio_warm = legacy_best / new_best
    ratio_cold = legacy_best / new_cold
    save_result_json("static_perf_lexer", {
        "smali_units": sum(map(len, apps)),
        "legacy_seconds_best": round(legacy_best, 4),
        "new_seconds_cold": round(new_cold, 4),
        "new_seconds_best": round(new_best, 4),
        "speedup_cold": round(ratio_cold, 2),
        "speedup_warm": round(ratio_warm, 2),
    })
    assert ratio_warm >= _MIN_LEXER_SPEEDUP, (
        f"lexer speedup {ratio_warm:.2f}x fell below "
        f"{_MIN_LEXER_SPEEDUP}x vs the legacy parser"
    )


def test_single_app_exploration(benchmark, save_result_json):
    def explore():
        return FragDroid(Device()).explore(
            build_apk(build_table1_app("com.inditex.zara"))
        )

    start = perf_counter()
    result = benchmark.pedantic(explore, rounds=3, iterations=1)
    elapsed = perf_counter() - start
    assert len(result.visited_activities) == 7
    save_result_json("static_perf_single_app", {
        "activities_visited": len(result.visited_activities),
        "fragments_visited": len(result.visited_fragments),
        "events": result.stats.events,
        "rounds": 3,
        "seconds_3_rounds": round(elapsed, 3),
    })
