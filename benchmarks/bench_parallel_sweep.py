"""Parallel sweep + static cache benchmark.

Times the two market-scale levers this repo has for wall-clock:

* the sweep backends — the usage study and the Table-I sweep at 1/2/4/8
  workers on both the thread and the process pool.  The work is
  pure-Python CPU, so the thread pool serializes on the GIL; on a
  multi-core box the process pool is expected >=2x faster at 4+ workers
  (the assertion is gated on ``os.cpu_count()`` — a single-core runner
  can only record the numbers, not the speedup);
* the content-addressed static cache — cold vs warm extraction over the
  Table-I corpus; a warm pass skips decode + Algorithms 1-3 and must be
  >=5x faster.

Every timed variant is also checked for *equivalence*: identical study
tallies and identical sweep rows regardless of worker count or backend.
Raw numbers land in ``benchmarks/results/parallel_sweep.json``.
"""

import json
import os
import pathlib
from time import perf_counter

from repro.apk import build_apk
from repro.bench.parallel import explore_many, sweep_rows
from repro.bench.runner import run_usage_study
from repro.corpus import TABLE1_PLANS, build_app
from repro.static import extract_static_info
from repro.static.cache import StaticCache

RESULTS_PATH = (pathlib.Path(__file__).parent / "results"
                / "parallel_sweep.json")
WORKER_COUNTS = (1, 2, 4, 8)
STUDY_COUNT = 217
SEED = 2018


def _timed(fn):
    started = perf_counter()
    value = fn()
    return perf_counter() - started, value


def _strip_durations(rows):
    return [{k: v for k, v in row.items() if k != "duration_s"}
            for row in rows]


def _run_all():
    record = {
        "cpu_count": os.cpu_count(),
        "usage_study": {"count": STUDY_COUNT, "seed": SEED,
                        "thread": {}, "process": {}},
        "table1_sweep": {"apps": len(TABLE1_PLANS),
                         "thread": {}, "process": {}},
        "static_cache": {},
    }

    serial_s, study_baseline = _timed(lambda: run_usage_study(
        count=STUDY_COUNT, seed=SEED, max_workers=1))
    record["usage_study"]["serial_s"] = serial_s
    for backend in ("thread", "process"):
        for workers in WORKER_COUNTS:
            duration, study = _timed(lambda: run_usage_study(
                count=STUDY_COUNT, seed=SEED, max_workers=workers,
                backend=backend))
            assert study == study_baseline, (backend, workers)
            record["usage_study"][backend][str(workers)] = duration

    rows_baseline = None
    for backend in ("thread", "process"):
        for workers in WORKER_COUNTS:
            duration, outcomes = _timed(lambda: explore_many(
                TABLE1_PLANS, max_workers=workers, backend=backend))
            rows = _strip_durations(sweep_rows(outcomes))
            if rows_baseline is None:
                rows_baseline = rows
            assert rows == rows_baseline, (backend, workers)
            record["table1_sweep"][backend][str(workers)] = duration

    apks = [build_apk(build_app(plan)) for plan in TABLE1_PLANS]
    cache = StaticCache()
    cold_s, _ = _timed(lambda: [extract_static_info(apk, cache=cache)
                                for apk in apks])
    warm_s, _ = _timed(lambda: [extract_static_info(apk, cache=cache)
                                for apk in apks])
    assert cache.misses == len(apks) and cache.hits == len(apks)
    record["static_cache"] = {
        "apps": len(apks),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
    }
    return record


def test_parallel_sweep(benchmark, save_result):
    record = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")

    study = record["usage_study"]
    lines = [f"parallel sweep (cpus: {record['cpu_count']})", "",
             f"usage study ({STUDY_COUNT} apps), serial: "
             f"{study['serial_s']:.2f}s"]
    for backend in ("thread", "process"):
        timings = "  ".join(
            f"{w}w={study[backend][str(w)]:.2f}s" for w in WORKER_COUNTS)
        lines.append(f"  {backend:>8}: {timings}")
    table1 = record["table1_sweep"]
    lines.append(f"Table-I sweep ({table1['apps']} apps)")
    for backend in ("thread", "process"):
        timings = "  ".join(
            f"{w}w={table1[backend][str(w)]:.2f}s" for w in WORKER_COUNTS)
        lines.append(f"  {backend:>8}: {timings}")
    cache = record["static_cache"]
    lines.append(f"static cache: cold {cache['cold_s']:.2f}s, "
                 f"warm {cache['warm_s']:.3f}s "
                 f"({cache['speedup']:.0f}x)")
    save_result("parallel_sweep", "\n".join(lines))
    print(f"[saved {RESULTS_PATH}]")

    # The cache bar holds everywhere: a warm pass skips decode and
    # Algorithms 1-3, leaving only JSON rehydration.
    assert cache["speedup"] >= 5, cache

    # The backend bar needs actual cores: the GIL comparison is
    # meaningless on a single-core runner.
    cpus = record["cpu_count"] or 1
    if cpus >= 4:
        thread_4w = study["thread"]["4"]
        process_4w = study["process"]["4"]
        assert process_4w * 2 <= thread_4w, (
            f"process backend at 4 workers ({process_4w:.2f}s) is not "
            f">=2x faster than thread ({thread_4w:.2f}s)"
        )
