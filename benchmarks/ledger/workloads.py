"""The ledger's worker: set up and measure one workload in this process.

``ledger.py`` starts one fresh interpreter per workload (and one per
extra set-up sample) running::

    python3 benchmarks/ledger/workloads.py --workload NAME --seed N \\
        --seconds S [--trace 0|1] [--setup-only] [--spans FILE] \\
        --tmp DIR --spawned-at EPOCH

and reads one ``LEDGER-RESULT <json>`` line from its standard output.
Set-up runs from interpreter start (``--spawned-at``) to the first timed
operation: imports, input generation, server start plus ``/health``, and
one untimed warm-up pass.  ``--seconds`` fixes the number of timed
passes, so both sides of a comparison do the same work.  A pass is timed
alone; its outputs are checked against ``expected.json`` after the clock
stops.

The timed run (``--trace 0``) uses each workload's real configuration.
The traced run (``--trace 1``) runs it in-process (``table1`` on one
thread, ``serve`` as an in-process ``ReproServer``), first untraced and
then with every call site of ``spans.LAYERS`` wrapped, and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional

import spans
from ledger import EXPECTED_PATH, percentile

from repro.bench import parallel, runner
from repro.core.coverage import CoverageReport, CoverageRow
from repro.core.sensitive_analysis import build_api_report
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import AppPlan
from repro.obs.events import JOB_STATE
from repro.serve import ReproServer, ServeClient, ServeClientError, WallClock
from repro.serve.jobs import TERMINAL_STATES

#: The sweep-row fields an output check compares (the
#: ``bench.parallel.sweep_rows`` shape, which serve jobs also carry).
ROW_KEYS = ("ok", "activities_visited", "activities_sum",
            "fragments_visited", "fragments_sum", "apis", "events",
            "crashes")

LARGE_APP = AppPlan("com.scale.a200f150", visited_activities=200,
                    visited_fragments=150)
MARKET_APPS = 217

#: The speed gauge.  Shared machines drift in speed by tens of percent
#: within a minute, and CPU time drifts with wall time, so a fixed
#: pure-Python loop is timed GAUGE_SAMPLES times before the first pass
#: and after every pass (and, where a workload allows, every
#: GAUGE_INTERVAL_S during it), and each pass's times are scaled by
#: REFERENCE_S / (the loop's median time around it): every time is
#: reported at the speed where the loop takes REFERENCE_S.  The loop
#: allocates nothing the garbage collector tracks, so its reading does
#: not depend on the heap the code under test leaves behind.
REFERENCE_LOOPS = 2000
REFERENCE_S = 0.0007
GAUGE_SAMPLES = 5
GAUGE_INTERVAL_S = 0.025


def reference_s() -> float:
    """Seconds the gauge loop takes right now."""
    started = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        key = f"k{i}"
        total += hash(key + key) % 7 + i * i % 7
    return perf_counter() - started


def gauge_burst() -> List[float]:
    return [reference_s() for _ in range(GAUGE_SAMPLES)]


@contextlib.contextmanager
def gauge_sampling(readings: List[float]) -> Iterator[None]:
    """Append a gauge reading to ``readings`` every GAUGE_INTERVAL_S.

    The loop runs in a SIGALRM handler, so on this thread: it pauses a
    workload running here instead of competing with it for a CPU.
    """
    previous = signal.signal(signal.SIGALRM,
                             lambda signum, frame:
                             readings.append(reference_s()))
    signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def row_subset(row: Dict) -> Dict:
    return {key: row.get(key) for key in ROW_KEYS}


@dataclass
class JobRecord:
    """One serve job as its client saw it."""

    app: str
    latency: float
    ok: bool
    truncated: bool  # the SSE stream ended before the job did
    job: Optional[Dict]  # the confirmed GET /jobs/<id> body


@dataclass
class Phase:
    """What one measured stretch of a workload produced.  Times are in
    seconds, scaled by the speed gauge."""

    apps: int = 0
    pass_walls: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # per app
    references: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Σ per-app durations: the work a pool's workers were busy with.
    busy: float = 0.0
    jobs: List[JobRecord] = field(default_factory=list)  # serve only

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def apps_per_s(self) -> float:
        return self.apps / sum(self.pass_walls)


class PassWorkload:
    """A workload measured as repeated, identical-sized passes."""

    name = ""
    apps_per_pass = 0
    #: Seconds one pass takes at the gauge's reference speed: a run of
    #: S seconds measures round(S / nominal_pass_s) passes, the same
    #: work on every commit.
    nominal_pass_s = 1.0
    #: Fixed per workload: the highest of p99/p98/p95/p90 that leaves
    #: at least ten samples above it at BENCHMARK.json's run length,
    #: else p75.
    tail_pct = 75
    #: Whether the gauge also samples during a pass.  Only for a
    #: workload that runs on the measuring thread alone; one with other
    #: busy processes or threads would be timing its own contention.
    gauge_in_pass = False
    #: Whether every pass does the same work, so throughput is apps per
    #: pass ÷ the median pass time; otherwise it is all apps ÷ all pass
    #: time.
    identical_passes = True

    def __init__(self, seed: int, expected: Dict, tmp: Path,
                 in_process: bool) -> None:
        self.seed = seed
        self.expected = expected
        self.tmp = tmp
        self.in_process = in_process

    def start(self) -> None:
        """Acquire what the passes need (serve: the server)."""

    def close(self) -> None:
        """Release what :meth:`start` acquired."""

    def run_pass(self, index: int) -> object:
        raise NotImplementedError

    def check(self, index: int, output: object, wall: float, scale: float,
              phase: Phase) -> None:
        """Count the pass's ops and failures and record its per-app
        latencies; ``wall`` is already scaled, raw durations take
        ``scale``."""
        raise NotImplementedError

    def measure(self, passes: int, first: int = 0) -> Phase:
        """Passes ``first`` .. ``first + passes - 1``, each checked."""
        phase = Phase()
        before = gauge_burst()
        for index in range(first, first + passes):
            during: List[float] = []
            with (gauge_sampling(during) if self.gauge_in_pass
                  else contextlib.nullcontext()):
                started = perf_counter()
                output = self.run_pass(index)
                wall = perf_counter() - started - sum(during)
            after = gauge_burst()
            speed = percentile(before + during + after, 50)
            scale = REFERENCE_S / speed
            phase.references.append(speed)
            phase.pass_walls.append(wall * scale)
            phase.apps += self.apps_per_pass
            self.check(index, output, wall * scale, scale, phase)
            before = after
        return phase


class Table1(PassWorkload):
    """The 15 Table-I apps; the process pool unless in-process."""

    name = "table1"
    apps_per_pass = len(TABLE1_PLANS)
    nominal_pass_s = 0.5
    tail_pct = 95

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.workers = 1 if self.in_process else min(nproc(), 4)
        self.backend = "thread" if self.in_process else "process"

    def run_pass(self, index: int) -> object:
        # run_table1's body, inlined so each SweepOutcome.duration is
        # visible; failures are checked below instead of re-raised.
        outcomes = parallel.explore_many(TABLE1_PLANS,
                                         max_workers=self.workers,
                                         backend=self.backend)
        results = parallel.successful_results(outcomes)
        report = CoverageReport([
            CoverageRow.from_result(results[plan.package],
                                    downloads=plan.downloads)
            for plan in TABLE1_PLANS if plan.package in results])
        build_api_report(results.values())
        return outcomes, report.mean_activity_rate

    def check(self, index, output, wall, scale, phase) -> None:
        outcomes, mean = output
        expected = self.expected["table1"]
        failed = sum(
            1 for row in parallel.sweep_rows(outcomes)
            if row_subset(row) != expected["apps"].get(row["package"]))
        if len(outcomes) != self.apps_per_pass or \
                mean != expected["mean_activity_rate"]:
            failed = self.apps_per_pass
        phase.count(self.apps_per_pass, failed)
        durations = [o.duration * scale for o in outcomes.values()]
        phase.latencies.extend(durations)
        phase.busy += sum(durations)


class Market(PassWorkload):
    """The §VII-A usage study: a fresh 217-app market every pass."""

    name = "market"
    apps_per_pass = MARKET_APPS
    nominal_pass_s = 0.28
    gauge_in_pass = True

    def run_pass(self, index: int) -> object:
        # The warm-up (index -1) analyzes the seed's own market.
        return runner.run_usage_study(count=MARKET_APPS,
                                      seed=self.seed + 1 + index)

    def check(self, index, output, wall, scale, phase) -> None:
        tally = {"total": output.total, "packed": output.packed,
                 "analyzable": output.analyzable,
                 "with_fragments": output.with_fragments}
        known = self.expected["market"].get(str(self.seed + 1 + index))
        if known is not None:
            ok = tally == known
        else:
            ok = (tally["total"] == MARKET_APPS and
                  tally["packed"] + tally["analyzable"] == tally["total"])
        phase.count(MARKET_APPS, 0 if ok else MARKET_APPS)
        # The study reports no per-app timing, so an app's latency is
        # the mean over its pass.
        phase.latencies.append(wall / MARKET_APPS)


class LargeApp(PassWorkload):
    """One 200-activity app, far beyond Table I's working set."""

    name = "large-app"
    apps_per_pass = 1
    nominal_pass_s = 2.5
    gauge_in_pass = True

    def run_pass(self, index: int) -> object:
        return parallel.explore_one(LARGE_APP)

    def check(self, index, output, wall, scale, phase) -> None:
        rows = parallel.sweep_rows({output.package: output})
        ok = row_subset(rows[0]) == self.expected["large-app"]
        phase.count(1, 0 if ok else 1)
        phase.latencies.append(output.duration * scale)


class Serve(PassWorkload):
    """``repro serve`` under closed-loop clients, one app per job.

    A pass is :data:`JOBS_PER_PASS` jobs from each client thread.  A
    client submits a job, follows its SSE stream, then confirms the
    terminal state with ``GET /jobs/<id>``: the server drops a
    subscriber that falls behind its event buffer, so the end of a
    stream is never taken as completion.  The server lives across
    passes, so what it retains per job is part of the numbers.
    """

    name = "serve"
    nominal_pass_s = 0.9
    tail_pct = 90
    identical_passes = False  # each pass serves a different app mix
    JOBS_PER_PASS = 5

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clients = min(2, nproc())
        self.apps_per_pass = self.clients * self.JOBS_PER_PASS
        self.orders = [self._app_order(i) for i in range(self.clients)]
        self.proc: Optional[subprocess.Popen] = None
        self.server: Optional[ReproServer] = None
        self.starts = 0

    def _app_order(self, client: int) -> Iterator[str]:
        rng = random.Random(f"{self.seed}/{client}")
        apps = [plan.package for plan in TABLE1_PLANS]
        while True:
            rng.shuffle(apps)
            yield from list(apps)

    def start(self) -> None:
        self.starts += 1
        journal = self.tmp / f"journal{self.starts}"
        runs = self.tmp / f"runs{self.starts}"
        if self.in_process:
            self.server = ReproServer(journal_dir=journal, registry_dir=runs,
                                      backoff_clock=WallClock())
            self.server.start()
            url = self.server.url
        else:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--journal", str(journal), "--runs-dir", str(runs)],
                stdout=subprocess.PIPE, text=True)
            banner = self.proc.stdout.readline()
            match = re.search(r"serving on (http://\S+)", banner)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            url = match.group(1)
        self.client = ServeClient(url)
        deadline = perf_counter() + 30.0
        while True:
            try:
                if self.client.health().get("ok"):
                    return
            except ServeClientError:
                pass  # not listening yet
            if perf_counter() > deadline:
                raise RuntimeError(f"no /health from {url} within 30 s")
            time.sleep(0.01)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    def run_pass(self, index: int) -> object:
        records: List[List[JobRecord]] = [[] for _ in range(self.clients)]
        threads = [threading.Thread(target=self._client, args=(i, out))
                   for i, out in enumerate(records)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for out in records for record in out]

    def _client(self, index: int, out: List[JobRecord]) -> None:
        for _ in range(self.JOBS_PER_PASS):
            out.append(self._one_job(next(self.orders[index])))

    def _one_job(self, app: str) -> JobRecord:
        started = perf_counter()
        terminal_seen = False
        job: Optional[Dict] = None
        try:
            job_id = self.client.submit([app])["job_id"]
            for event in self.client.stream_events(job_id):
                terminal_seen = terminal_seen or (
                    event.get("kind") == JOB_STATE and
                    event.get("attributes", {}).get("state")
                    in TERMINAL_STATES)
            job = self.client.job(job_id)
            while job["state"] not in TERMINAL_STATES:
                time.sleep(0.005)
                job = self.client.job(job_id)
        except (ServeClientError, KeyError) as exc:
            print(f"serve job for {app} failed: {exc!r}", file=sys.stderr)
        row = (job or {}).get("completed", {}).get(app)
        ok = (job is not None and job["state"] == "done" and row is not None
              and row_subset(row) == self.expected["serve"].get(app))
        return JobRecord(app, perf_counter() - started, ok,
                         not terminal_seen, job)

    def check(self, index, output, wall, scale, phase) -> None:
        # A client thread that died left its jobs out: they count failed.
        phase.count(self.apps_per_pass,
                    self.apps_per_pass - sum(1 for r in output if r.ok))
        phase.jobs.extend(output)
        phase.latencies.extend(r.latency * scale for r in output)


WORKLOADS = {cls.name: cls for cls in (Table1, Market, LargeApp, Serve)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """max(ru_maxrss of this process, of its waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload: PassWorkload, phase: Phase) -> Dict[str, Dict]:
    """The timed run's metrics with their sample counts, and quartiles
    where they mean something (peak_rss_mb is added once the workload
    is closed)."""
    walls = phase.pass_walls
    apps = workload.apps_per_pass
    latencies = [seconds * 1000.0 for seconds in phase.latencies]
    return {
        "apps_per_s": {"value": (apps / percentile(walls, 50)
                                 if workload.identical_passes
                                 else phase.apps_per_s),
                       "q1": apps / percentile(walls, 75),
                       "q3": apps / percentile(walls, 25), "n": len(walls)},
        "app_p50_ms": {"value": percentile(latencies, 50),
                       "q1": percentile(latencies, 25),
                       "q3": percentile(latencies, 75), "n": len(latencies)},
        "app_tail_ms": {"value": percentile(latencies, workload.tail_pct),
                        "n": len(latencies), "pct": workload.tail_pct},
    }


@dataclass
class ExploreTally:
    """What the traced run observes of explorer results and lookups."""

    steps: int = 0
    test_cases: int = 0
    passing: int = 0
    identify_calls: int = 0
    identify_distinct: set = field(default_factory=set)

    def observers(self) -> Dict:
        def on_explore(args, result) -> None:
            self.steps += result.stats.events
            self.test_cases += len(result.test_cases)
            self.passing += len(result.passing_test_cases)

        def on_identify(args, result) -> None:
            self.identify_calls += 1
            self.identify_distinct.add(tuple(args[1]))

        return {"core.explore": on_explore,
                "static.identify_fragments": on_identify}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(recorder: spans.SpanRecorder, traced: Phase, untraced: Phase,
              tally: ExploreTally, pool_busy_frac: float,
              server: Optional[ReproServer]) -> Dict[str, float]:
    """Every per-layer metric; a layer that did no work reports 0.

    Span times are raw (the gauge scales pass times, not spans), so
    unattributed time compares them with raw pass times.
    """
    calls, self_s = recorder.totals()
    apps = traced.apps
    metrics: Dict[str, float] = {}
    for layer, (_, kinds) in spans.LAYERS.items():
        if "calls" in kinds:
            metrics[f"{layer}.calls"] = _ratio(calls.get(layer, 0), apps)
        if "self" in kinds:
            metrics[f"{layer}.self_ms"] = _ratio(
                self_s.get(layer, 0.0) * 1000.0, apps)
    metrics["core.queue.pops"] = _ratio(calls.get("core.queue", 0), apps)
    metrics["static.identify_fragments.distinct_frac"] = _ratio(
        len(tally.identify_distinct), tally.identify_calls)
    metrics["android.steps"] = _ratio(tally.steps, apps)
    metrics["robotium.views_per_step"] = _ratio(
        calls.get("robotium.get_current_views", 0), tally.steps)
    metrics["core.testcase.pass_frac"] = _ratio(tally.passing,
                                                tally.test_cases)
    metrics["bench.pool_busy_frac"] = pool_busy_frac
    metrics.update(_serve_metrics(traced, server))
    metrics["trace.overhead_frac"] = 1.0 - _ratio(traced.apps_per_s,
                                                  untraced.apps_per_s)
    raw_walls = sum(wall * ref / REFERENCE_S for wall, ref
                    in zip(traced.pass_walls, traced.references))
    metrics["trace.unattributed_frac"] = max(
        0.0, 1.0 - _ratio(recorder.root_seconds(), raw_walls))
    return metrics


def _serve_metrics(traced: Phase,
                   server: Optional[ReproServer]) -> Dict[str, float]:
    names = ("obs.spans_retained", "obs.events_retained",
             "serve.queue_wait_p50_ms", "serve.run_p50_ms",
             "serve.client_overhead_p50_ms", "serve.sse_truncated_frac",
             "serve.slowdown")
    jobs = [record for record in traced.jobs if record.job is not None]
    if server is None or not jobs:
        return dict.fromkeys(names, 0.0)
    waits = [(r.job["started"] - r.job["created"]) * 1000.0 for r in jobs]
    runs = [(r.job["finished"] - r.job["started"]) * 1000.0 for r in jobs]
    overheads = [(r.latency - (r.job["finished"] - r.job["created"]))
                 * 1000.0 for r in jobs]
    window = max(1, min(40, len(traced.latencies) // 2))
    server_jobs = len(server.queue.jobs())
    return {
        "obs.spans_retained": _ratio(len(server.tracer.finished_spans()),
                                     server_jobs),
        "obs.events_retained": _ratio(len(server.event_log.events()),
                                      server_jobs),
        "serve.queue_wait_p50_ms": percentile(waits, 50),
        "serve.run_p50_ms": percentile(runs, 50),
        "serve.client_overhead_p50_ms": percentile(overheads, 50),
        "serve.sse_truncated_frac": _ratio(
            sum(1 for r in traced.jobs if r.truncated), len(traced.jobs)),
        "serve.slowdown": _ratio(
            percentile(traced.latencies[-window:], 50),
            percentile(traced.latencies[:window], 50)),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool,
        setup_only: bool, spawned_at: float, tmp: Path,
        spans_path: Optional[str] = None) -> Dict:
    """Set up, warm up and measure one workload; the result dict."""
    early = percentile(gauge_burst(), 50)
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    workload = WORKLOADS[name](seed, expected, tmp, in_process=trace)
    passes = max(1, round(seconds / workload.nominal_pass_s))
    try:
        workload.start()
        checked = workload.measure(1, first=-1)  # the warm-up pass
        setup_s = time.time() - spawned_at
        # Scaled by the gauge's readings once imports are done and over
        # the warm-up pass.
        speed = (early + checked.references[0]) / 2
        result: Dict = {"setup_s": setup_s * REFERENCE_S / speed,
                        "reference_s": speed}
        if not setup_only:
            if trace:
                result["metrics"], measured = _traced(workload, passes,
                                                      spans_path)
            else:
                measured = workload.measure(passes)
                result["metrics"] = end_to_end(workload, measured)
                result["reference_s"] = percentile(measured.references, 50)
            checked.count(measured.attempted, measured.failed)
    finally:
        workload.close()
    if "metrics" in result and not trace:
        # After close(), so a server child has been waited for.
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb()}
    result.update(attempted=checked.attempted, failed=checked.failed)
    return result


def _traced(workload: PassWorkload, passes: int,
            spans_path: Optional[str]) -> tuple:
    """The in-process phases of a traced run: (per-layer metrics, a
    phase carrying their op counts)."""
    pool_busy_frac = 0.0
    phases = 3 if isinstance(workload, Table1) else 2
    each = math.ceil(passes / phases)
    checked = Phase()
    if isinstance(workload, Table1):
        # Pool occupancy comes from the timed configuration.
        timed = Table1(workload.seed, workload.expected, workload.tmp,
                       in_process=False)
        pool = timed.measure(each)
        checked.count(pool.attempted, pool.failed)
        pool_busy_frac = _ratio(pool.busy,
                                sum(pool.pass_walls) * timed.workers)
    untraced = workload.measure(each)
    checked.count(untraced.attempted, untraced.failed)
    if isinstance(workload, Serve):
        # A fresh server, so the traced phase does not inherit the
        # untraced phase's retained jobs.
        workload.close()
        workload.start()
        warm = workload.measure(1, first=-1)
        checked.count(warm.attempted, warm.failed)
    recorder = spans.SpanRecorder()
    tally = ExploreTally()
    # In-pass gauge samples would land inside whatever span they
    # interrupt; the traced phase reads the gauge between passes only.
    workload.gauge_in_pass = False
    with spans.patched(recorder, tally.observers()):
        traced = workload.measure(each)
    checked.count(traced.attempted, traced.failed)
    metrics = per_layer(recorder, traced, untraced, tally, pool_busy_frac,
                        getattr(workload, "server", None))
    if spans_path:
        recorder.write_jsonl(spans_path)
    return metrics, checked


def expected_outputs(tmp: Path, market_seeds: int = 81) -> Dict:
    """The outputs every check compares against, from the code at hand.

    ``market`` holds the tallies of seeds 2018 onwards, which cover the
    default seed's warm-up and timed passes; other seeds are checked
    against the study's invariants instead.
    """
    outcomes, mean = Table1(0, {}, tmp, in_process=True).run_pass(0)
    large = parallel.explore_one(LARGE_APP)
    serve = Serve(0, {"serve": {}}, tmp, in_process=True)
    serve.start()
    try:
        jobs = [serve._one_job(plan.package) for plan in TABLE1_PLANS]
    finally:
        serve.close()
    market = {}
    for seed in range(2018, 2018 + market_seeds):
        study = runner.run_usage_study(count=MARKET_APPS, seed=seed)
        market[str(seed)] = {"total": study.total, "packed": study.packed,
                             "analyzable": study.analyzable,
                             "with_fragments": study.with_fragments}
    return {
        "table1": {"mean_activity_rate": mean,
                   "apps": {row["package"]: row_subset(row)
                            for row in parallel.sweep_rows(outcomes)}},
        "market": market,
        "large-app": row_subset(
            parallel.sweep_rows({large.package: large})[0]),
        "serve": {record.app: row_subset(record.job["completed"][record.app])
                  for record in jobs},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal measuring time; fixes the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.setup_only, args.spawned_at, Path(args.tmp),
                 args.spans)
    print("LEDGER-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
