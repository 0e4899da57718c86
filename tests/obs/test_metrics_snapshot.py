"""``Metrics.snapshot`` keeps sorted samples between reads.

A snapshot sorts only the observations made since the previous one and
merges them into the sorted samples it kept.  These properties pin that
every snapshot still equals the naive computation, which sorts each
histogram's whole history for every percentile, under any interleaving
of ``observe``, ``merge``, ``snapshot`` and ``clear``.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.obs import Metrics, percentile
from repro.obs.metrics import HistogramStats

_NAMES = st.sampled_from(["queue.depth", "app.duration", "h"])
# Ties between equal values that print differently (0.0 and -0.0, 1 and
# 1.0), infinities and NaN, which sorts nowhere.
_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, width=16),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf"), float("-inf"),
                     float("nan")]),
)
_OBSERVE = st.tuples(st.just("observe"), _NAMES, _VALUES)
_OPS = st.lists(
    st.one_of(
        _OBSERVE,
        _OBSERVE,
        st.tuples(st.just("merge"),
                  st.dictionaries(_NAMES, st.lists(_VALUES, max_size=6),
                                  max_size=2)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _naive_stats(values):
    if not values:
        return HistogramStats(count=0, total=0.0, minimum=0.0, maximum=0.0)
    return HistogramStats(
        count=len(values),
        total=float(sum(values)),
        minimum=float(min(values)),
        maximum=float(max(values)),
        p50=percentile(values, 0.50),
        p90=percentile(values, 0.90),
        p99=percentile(values, 0.99),
    )


def _naive_snapshot(metrics):
    return {
        "counters": metrics.counters(),
        "histograms": {name: _naive_stats(values).to_dict()
                       for name, values in metrics.raw_histograms().items()},
    }


def _text(payload):
    # JSON text tells -0.0 from 0.0 and reads NaN equal to itself.
    return json.dumps(payload, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_snapshot_equals_the_naive_computation(ops):
    metrics = Metrics()
    for op in ops + [("snapshot",)]:
        if op[0] == "observe":
            metrics.observe(op[1], op[2])
        elif op[0] == "merge":
            metrics.merge({"merged": 1}, op[1])
        elif op[0] == "clear":
            metrics.clear()
        else:
            assert _text(metrics.snapshot()) == _text(_naive_snapshot(metrics))
            for name in metrics.raw_histograms():
                assert _text(metrics.histogram_stats(name).to_dict()) == \
                    _text(_naive_stats(metrics.histogram(name)).to_dict())


def test_a_snapshot_sorts_only_what_was_observed_since(monkeypatch):
    metrics = Metrics()
    for value in range(1000, 0, -1):
        metrics.observe("h", float(value))
    first = metrics.snapshot()["histograms"]["h"]
    sorted_lengths = []
    real_sorted = sorted

    def counting_sorted(values, *args, **kwargs):
        sorted_lengths.append(len(values))
        return real_sorted(values, *args, **kwargs)

    monkeypatch.setattr("builtins.sorted", counting_sorted)
    metrics.observe("h", 0.5)
    metrics.observe("h", 2000.0)
    second = metrics.snapshot()["histograms"]["h"]
    assert sorted_lengths == [2]
    assert (first["p50"], second["p50"]) == (500.0, 500.0)
    assert (second["min"], second["max"], second["count"]) == \
        (0.5, 2000.0, 1002)
