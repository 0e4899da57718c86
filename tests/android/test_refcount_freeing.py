"""The runtime frees by refcount: nothing it builds is left to the
cyclic collector.

FragDroid restarts the app before every UI-queue item, so one
exploration builds and drops thousands of activities, fragments and
widgets.  Each runtime object is owned by one parent and points only
downward, so dropping the parent frees the subtree at once.  These
tests run with the cyclic collector switched off: an object reachable
only through a reference cycle would survive them.
"""

import gc
import weakref
from contextlib import contextmanager

from repro.adb import Adb
from repro.android import Device
from repro.android.activity import ActivityInstance
from repro.android.app_runtime import AppProcess
from repro.android.fragment import FragmentInstance
from repro.android.fragment_manager import FragmentManager
from repro.android.views import RuntimeWidget
from repro.apk import build_apk
from repro.bench.parallel import explore_one
from repro.corpus import TABLE1_PLANS
from repro.robotium import Solo

RUNTIME_TYPES = (Device, AppProcess, ActivityInstance, FragmentInstance,
                 FragmentManager, RuntimeWidget, Adb, Solo)


@contextmanager
def collector_off(debug: int = 0):
    """The cyclic collector disabled (and its debug flags set) for the
    block; both restored, and any saved garbage dropped, afterwards."""
    was_enabled = gc.isenabled()
    old_debug = gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(debug)
    try:
        yield
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_force_stop_frees_process_activity_and_fragment(demo_spec):
    with collector_off():
        device = Device()
        adb = Adb(device)
        adb.install(build_apk(demo_spec))
        assert adb.am_start_launcher(demo_spec.package)
        process = device.foreground
        activity = process.top_activity
        fragment = activity.all_fragments()[0]
        refs = [weakref.ref(process), weakref.ref(activity),
                weakref.ref(fragment)]
        del process, activity, fragment
        assert all(ref() is not None for ref in refs)
        device.force_stop(demo_spec.package)
        assert [ref() for ref in refs] == [None, None, None]


def test_exploration_leaves_no_runtime_object_to_the_collector():
    with collector_off(gc.DEBUG_SAVEALL):
        outcome = explore_one(TABLE1_PLANS[0])
        assert outcome.error is None
        del outcome
        gc.collect()
        cyclic = sorted({type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, RUNTIME_TYPES)})
        assert cyclic == []
