"""Discovery curves: coverage as a function of the event budget.

FragDroid's model-guided exploration front-loads discovery; Monkey's
random walk accumulates slowly and plateaus below.  Sampled at budget
checkpoints on a fragment-heavy corpus app, with scipy-backed binomial
intervals for the Monkey side.
"""

import numpy as np
from scipy import stats

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.baselines import Monkey
from repro.corpus import build_table1_app
from repro.obs.timeline import coverage_timeline

PACKAGE = "com.advancedprocessmanager"
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
MONKEY_SEEDS = range(8)


def _measure():
    result = FragDroid(Device()).explore(build_apk(build_table1_app(PACKAGE)))
    budget = result.stats.events
    curve = coverage_timeline(result.events)

    def fragdroid_at(step_limit):
        best = (0, 0)
        for point in curve:
            if point.step <= step_limit:
                best = (point.activities, point.fragments)
        return best

    rows = []
    for fraction in CHECKPOINTS:
        limit = int(budget * fraction)
        frag_a, frag_f = fragdroid_at(limit)
        monkey_f = []
        for seed in MONKEY_SEEDS:
            monkey = Monkey(Device(), seed=seed).run(
                build_apk(build_table1_app(PACKAGE)), event_count=limit
            )
            monkey_f.append(len(monkey.visited_fragment_classes))
        rows.append({
            "fraction": fraction,
            "events": limit,
            "fragdroid_activities": frag_a,
            "fragdroid_fragments": frag_f,
            "monkey_fragments_mean": float(np.mean(monkey_f)),
            "monkey_fragments_sem": float(stats.sem(monkey_f))
            if len(monkey_f) > 1 else 0.0,
        })
    return result, rows


def test_discovery_curve(benchmark, save_result):
    result, rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    header = (f"{'budget':>7} {'events':>7} {'FragDroid A':>12} "
              f"{'FragDroid F':>12} {'Monkey F (mean±sem)':>22}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['fraction']:>6.0%} {row['events']:>7} "
            f"{row['fragdroid_activities']:>12} "
            f"{row['fragdroid_fragments']:>12} "
            f"{row['monkey_fragments_mean']:>15.1f}"
            f" ± {row['monkey_fragments_sem']:.1f}"
        )
    save_result("discovery_curve", "\n".join(lines))

    final = rows[-1]
    # At full budget FragDroid identifies every fragment; Monkey's
    # random walk averages below (it lacks reflection and a model).
    assert final["fragdroid_fragments"] == len(result.visited_fragments)
    assert final["monkey_fragments_mean"] <= final["fragdroid_fragments"]
    # The curve is monotone.
    frags = [row["fragdroid_fragments"] for row in rows]
    assert frags == sorted(frags)