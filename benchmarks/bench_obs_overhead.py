"""Observability opt-in contract (repro.obs).

Guarantees behind ``FragDroidConfig.tracer`` / ``event_log``:

* results are tracer- and event-log-independent — an instrumented
  Table-I sweep renders a table byte-identical to the no-op run's;
* the no-op path is ~free: the per-call cost of the null span/counter
  (and the null event emit), multiplied by the number of observability
  call sites a traced sweep actually exercises, stays under 5% of the
  sweep's wall time;
* the *enabled* flight recorder stays cheap too: a real ``emit`` per
  recorded event accounts for under 5% of the sweep's wall time.
"""

from time import perf_counter

from repro import FragDroidConfig
from repro.bench import run_table1
from repro.core.explorer import RECORD_COUNTERS
from repro.obs import NULL_EVENT_LOG, NULL_TRACER, EventLog, Tracer

#: Counters added once per exploration rather than once per occurrence.
PER_APP_COUNTERS = {"events.injected", "apis.observed", *RECORD_COUNTERS}


def _null_call_cost(calls: int = 100_000) -> float:
    """Seconds per (span + counter + histogram) no-op round."""
    start = perf_counter()
    for _ in range(calls):
        with NULL_TRACER.span("x", app="y"):
            NULL_TRACER.inc("c")
            NULL_TRACER.observe("h", 1)
    return (perf_counter() - start) / calls


def _observability_call_sites(tracer: Tracer) -> int:
    """How many tracer operations one traced sweep performed."""
    spans = len(tracer.finished_spans())
    counter_calls = sum(
        stats["count"] for stats in
        tracer.metrics.snapshot()["histograms"].values()
    )
    # Counters that add a whole run's tally at once are one call per
    # app: events.injected, apis.observed and the ones counted off the
    # run record.  The rest increment by 1 per call.
    apps = int(tracer.metrics.counter("sweep.apps"))
    for name, value in tracer.metrics.counters().items():
        if name in PER_APP_COUNTERS:
            counter_calls += apps
        else:
            counter_calls += int(value)
    return spans + counter_calls


def _null_emit_cost(calls: int = 100_000) -> float:
    """Seconds per no-op flight-recorder emit."""
    start = perf_counter()
    for _ in range(calls):
        NULL_EVENT_LOG.emit("widget.clicked", step=1, app="y", widget="w")
    return (perf_counter() - start) / calls


def _real_emit_cost(calls: int = 100_000) -> float:
    """Seconds per enabled (in-memory) flight-recorder emit."""
    log = EventLog()
    start = perf_counter()
    for _ in range(calls):
        log.emit("widget.clicked", step=1, app="y", widget="w")
    return (perf_counter() - start) / calls


def test_tracing_does_not_change_results(save_result, save_result_json):
    noop = run_table1(max_workers=1)
    tracer = Tracer()
    traced = run_table1(FragDroidConfig(tracer=tracer), max_workers=1)
    assert traced.render_table1() == noop.render_table1()
    assert traced.render_table2() == noop.render_table2()
    save_result("obs_traced_counters", tracer.metrics.render())
    save_result_json("obs_traced_counters",
                     {"counters": tracer.metrics.counters()})


def test_event_log_does_not_change_results():
    noop = run_table1(max_workers=1)
    recorded = run_table1(FragDroidConfig(event_log=EventLog()),
                          max_workers=1)
    assert recorded.render_table1() == noop.render_table1()
    assert recorded.render_table2() == noop.render_table2()


def test_noop_tracer_overhead(benchmark, save_result, save_result_json):
    run_table1(max_workers=1)  # warm caches before timing

    start = perf_counter()
    benchmark.pedantic(run_table1, kwargs={"max_workers": 1},
                       rounds=1, iterations=1)
    noop_seconds = perf_counter() - start

    tracer = Tracer()
    start = perf_counter()
    run_table1(FragDroidConfig(tracer=tracer), max_workers=1)
    traced_seconds = perf_counter() - start

    call_sites = _observability_call_sites(tracer)
    per_call = _null_call_cost()
    noop_cost = per_call * call_sites
    share = noop_cost / noop_seconds

    lines = [
        f"table-I sweep, no-op tracer:   {noop_seconds:8.3f} s",
        f"table-I sweep, tracing on:     {traced_seconds:8.3f} s "
        f"({traced_seconds / noop_seconds - 1:+.1%})",
        f"observability call sites:      {call_sites:8d}",
        f"null-path cost per call:       {per_call * 1e9:8.1f} ns",
        f"null-path share of the sweep:  {share:8.2%} (budget: 5%)",
    ]
    save_result("obs_overhead", "\n".join(lines))
    save_result_json("obs_overhead", {
        "noop_sweep_seconds": round(noop_seconds, 4),
        "traced_sweep_seconds": round(traced_seconds, 4),
        "call_sites": call_sites,
        "null_call_ns": round(per_call * 1e9, 2),
        "null_share": round(share, 6),
    })
    assert share < 0.05, (
        f"no-op observability path costs {share:.2%} of a Table-I sweep"
    )


def _real_span_cost(calls: int = 50_000) -> float:
    """Seconds per enabled trace-bound span (enter + exit + record)."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(calls):
        with tracer.trace_span("x", 1, app="y"):
            pass
    return (perf_counter() - start) / calls


def _real_observe_cost(calls: int = 100_000) -> float:
    """Seconds per enabled histogram observation."""
    from repro.obs import Metrics

    metrics = Metrics()
    start = perf_counter()
    for _ in range(calls):
        metrics.observe("h", 1.0)
    return (perf_counter() - start) / calls


def test_serve_telemetry_overhead(tmp_path, save_result,
                                  save_result_json):
    """Service-mode telemetry — the queue-wait/latency histograms, the
    trace-bound job/round spans and the broker-hooked flight recorder —
    stays under 5% of a job's wall time even *enabled*.

    Same stable methodology as the other pins: per-operation cost
    measured in isolation, multiplied by the operations real jobs
    perform, compared against the untelemetered jobs' wall time.  One
    demo job takes a few milliseconds, so the share is taken over
    ``jobs`` of them rather than one."""
    from repro.obs import NULL_EVENT_LOG, NULL_TRACER
    from repro.obs.registry import RunRegistry
    from repro.serve import EventBroker, Job, JobJournal, JobQueue, Scheduler

    apps = ["com.serve.demo.alpha", "com.serve.demo.beta"]
    jobs = 20

    def run_jobs(tracer, event_log, tag, count=jobs):
        """Wall time of ``count`` demo jobs, run one after another."""
        scheduler = Scheduler(
            queue=JobQueue(metrics=tracer.metrics),
            journal=JobJournal(tmp_path / tag / "journal"),
            registry=RunRegistry(tmp_path / tag / "runs"),
            tracer=tracer,
            event_log=event_log,
        )
        seconds = 0.0
        for trace_id in range(1, count + 1):
            scheduler.queue.submit(
                Job(apps=apps, max_events=200, trace_id=trace_id))
            job = scheduler.queue.next_job()
            start = perf_counter()
            scheduler.run_job(job)
            seconds += perf_counter() - start
            assert job.state == "done"
        return seconds

    run_jobs(NULL_TRACER, NULL_EVENT_LOG, "warm", count=2)  # warm caches
    noop_seconds = run_jobs(NULL_TRACER, NULL_EVENT_LOG, "noop")

    tracer = Tracer()
    log = EventLog(sinks=[EventBroker(tmp_path / "spill",
                                       metrics=tracer.metrics)])
    run_jobs(tracer, log, "telemetry")

    spans = len(tracer.finished_spans())
    observations = sum(stats["count"] for stats in
                       tracer.metrics.snapshot()["histograms"].values())
    emits = len(log.events())
    assert spans > 0 and observations > 0 and emits > 0

    cost = (_real_span_cost() * spans
            + _real_observe_cost() * observations
            + _real_emit_cost() * emits)
    share = cost / noop_seconds

    lines = [
        f"{jobs} demo jobs, telemetry off:  {noop_seconds:8.3f} s",
        f"spans / observations / events: {spans:5d} / {observations:5d}"
        f" / {emits:5d}",
        f"enabled-telemetry cost:        {cost * 1e3:8.3f} ms",
        f"share of the jobs' wall time: {share:8.2%} (budget: 5%)",
    ]
    save_result("serve_telemetry_overhead", "\n".join(lines))
    save_result_json("serve_telemetry_overhead", {
        "jobs": jobs,
        "noop_jobs_seconds": round(noop_seconds, 4),
        "spans": spans,
        "observations": observations,
        "events": emits,
        "telemetry_share": round(share, 6),
    })
    assert share < 0.05, (
        f"serve telemetry costs {share:.2%} of untelemetered jobs"
    )


def test_event_log_overhead(save_result, save_result_json):
    """The flight recorder — even *enabled* — stays under 5%.

    Same stable methodology as the tracer test: measure the per-emit
    cost in isolation, multiply by the number of events one recorded
    sweep actually emits, and compare against the sweep's wall time
    (avoiding flaky wall-clock-vs-wall-clock diffs)."""
    run_table1(max_workers=1)  # warm caches before timing

    start = perf_counter()
    run_table1(max_workers=1)
    noop_seconds = perf_counter() - start

    log = EventLog()
    run_table1(FragDroidConfig(event_log=log), max_workers=1)
    emits = len(log.events())
    assert emits > 0, "an enabled event log must record the sweep"

    null_share = _null_emit_cost() * emits / noop_seconds
    real_share = _real_emit_cost() * emits / noop_seconds

    lines = [
        f"table-I sweep wall time:       {noop_seconds:8.3f} s",
        f"flight-recorder events:        {emits:8d}",
        f"no-op emit share of the sweep: {null_share:8.2%} (budget: 5%)",
        f"enabled emit share:            {real_share:8.2%} (budget: 5%)",
    ]
    save_result("obs_event_log_overhead", "\n".join(lines))
    save_result_json("obs_event_log_overhead", {
        "noop_sweep_seconds": round(noop_seconds, 4),
        "events": emits,
        "null_share": round(null_share, 6),
        "real_share": round(real_share, 6),
    })
    assert null_share < 0.05, (
        f"no-op event-log path costs {null_share:.2%} of a Table-I sweep"
    )
    assert real_share < 0.05, (
        f"enabled event log costs {real_share:.2%} of a Table-I sweep"
    )
