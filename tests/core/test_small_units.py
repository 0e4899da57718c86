"""Small unit behaviours not covered elsewhere."""

from repro.core.queue import UIQueue, UIQueueItem, click_op, launch_op
from repro.core.ui_driver import UiSnapshot
from repro.static.aftm import activity_node


def item(widget: str) -> UIQueueItem:
    return UIQueueItem("click", None, activity_node("com.u.A"),
                       (launch_op(), click_op(widget)))


def test_queue_push_all_counts_new_items():
    queue = UIQueue()
    added = queue.push_all([item("a"), item("b"), item("a")])
    assert added == 2
    assert len(queue) == 2


def test_depth_order_pops_newest_first():
    queue = UIQueue(order="depth")
    queue.push(item("first"))
    queue.push(item("second"))
    assert queue.pop().operations[-1].target == "second"


def test_snapshot_signature_semantics():
    base = dict(activity="com.u.A", fragments=frozenset({"com.u.F"}),
                widget_ids=("a", "b"), overlay=None, drawer_open=False)
    first = UiSnapshot(**base)
    same_widgets_reordered = UiSnapshot(**{**base, "widget_ids": ("b", "a")})
    # Widget *set* identity, not order: restarts may rebuild in any order.
    assert first.signature == same_widgets_reordered.signature
    with_overlay = UiSnapshot(**{**base, "overlay": "dialog"})
    assert first.signature != with_overlay.signature
    different_fragment = UiSnapshot(**{**base, "fragments": frozenset()})
    assert first.signature != different_fragment.signature


def test_snapshot_dead_is_not_alive():
    dead = UiSnapshot(activity=None, fragments=frozenset(), widget_ids=(),
                      overlay=None, drawer_open=False)
    assert not dead.alive


def test_coverage_curve_no_visits():
    from repro.core.explorer import ExplorationResult, ExplorationStats
    from repro.obs.timeline import CoveragePoint, coverage_timeline

    empty = ExplorationResult(
        package="com.u", info=None, aftm=None,  # type: ignore[arg-type]
        visited_activities=set(), visited_fragments=set(),
        api_invocations=[], test_cases=[], stats=ExplorationStats(),
    )
    assert coverage_timeline(empty.events) == [CoveragePoint(0, 0, 0, 0, 0)]