"""What a process sweep ships home is compact and reads back unchanged.

The value records a result holds are slotted and pickle by position,
and an :class:`ApkPackage` pickles its four text artifacts as one
deflated blob that is inflated on the first read of any of them.
"""

import pickle
from dataclasses import fields, replace

import pytest

from repro.android.api_monitor import ApiMonitor
from repro.apk import build_apk
from repro.core.queue import Operation, text_op
from repro.corpus import TABLE1_PLANS, build_app
from repro.errors import ReproError
from repro.obs.events import Event
from repro.static.aftm import EdgeKind, Transition, activity_node, fragment_node
from repro.static.resource_dep import ResourceBinding
from repro.types import ApiInvocation, ComponentName, InvocationSource

TEXT_FIELDS = ("manifest_xml", "smali_files", "layout_files", "public_xml")

MAIN = activity_node("com.app.MainActivity")
HOME = fragment_node("com.app.HomeFragment")

RECORDS = [
    ComponentName("com.app", ".MainActivity"),
    ApiInvocation("internet/connect", ComponentName("com.app", ".Home"),
                  InvocationSource.FRAGMENT, 7),
    MAIN,
    Transition(MAIN, HOME, EdgeKind.E2, host=MAIN.name, trigger="tab_home"),
    ResourceBinding("tab_home", 0x7F000001, "com.app.MainActivity", None),
    text_op("user_name", "alice"),
]


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda record: type(record).__name__)
def test_a_record_round_trips_by_position(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert hash(copy) == hash(record)
    assert not hasattr(copy, "__dict__")
    assert not hasattr(record, "__dict__")
    # Positional state: the constructor's arguments, no field names.
    assert record.__reduce__() == (type(record), tuple(
        getattr(record, field.name) for field in fields(record)))


def test_ordered_records_keep_their_order():
    names = [ComponentName("com.b", ".A"), ComponentName("com.a", ".Z"),
             ComponentName("com.a", ".B")]
    nodes = [HOME, MAIN, activity_node("com.app.About")]
    for values in (names, nodes):
        copies = pickle.loads(pickle.dumps(values))
        assert copies == values
        assert sorted(copies) == sorted(values)


def test_a_transition_is_validated_again_on_unpickle():
    edge = Transition(MAIN, HOME, EdgeKind.E2, host=MAIN.name)
    object.__setattr__(edge, "kind", EdgeKind.E3)  # kind and nodes disagree
    data = pickle.dumps(edge)
    with pytest.raises(ReproError):
        pickle.loads(data)


def test_the_monitor_shares_one_component_and_it_pickles_once():
    monitor = ApiMonitor()
    for step in range(50):
        # An equal name built afresh at every call, as the runtime does.
        monitor.record(f"api/{step}", ComponentName("com.app", ".Main"),
                       InvocationSource.ACTIVITY, step)
    invocations = monitor.invocations
    assert len({id(invocation.component) for invocation in invocations}) == 1
    copies = pickle.loads(pickle.dumps(invocations))
    assert len({id(copy.component) for copy in copies}) == 1
    assert copies == invocations


def test_an_event_round_trips_by_position():
    event = Event(3, "item.start", step=2, app="com.app", wall=0.5,
                  attributes={"target": "A:Main"})
    copy = pickle.loads(pickle.dumps(event))
    assert copy.to_dict() == event.to_dict()
    assert not hasattr(copy, "__dict__")
    assert Event.__reduce__ is Operation.__reduce__


@pytest.fixture(scope="module")
def package():
    """A text-only package, as a result's ``StaticInfo.source`` holds."""
    return replace(build_apk(build_app(TABLE1_PLANS[0])), _spec=None)


def test_an_unpickled_package_holds_only_the_deflated_text(package):
    copy = pickle.loads(pickle.dumps(package))
    assert not set(TEXT_FIELDS) & set(copy.__dict__)
    # One read inflates all four fields.
    assert copy.public_xml == package.public_xml
    assert set(TEXT_FIELDS) <= set(copy.__dict__)
    assert copy.manifest_xml == package.manifest_xml
    assert list(copy.smali_files) == list(package.smali_files)
    assert copy.layout_files == package.layout_files


def test_an_unpickled_package_reads_like_the_original(package):
    def copy():
        return pickle.loads(pickle.dumps(package))

    assert copy().digest() == package.digest()
    assert copy() == package
    assert replace(copy(), version_name="2.0") == replace(
        package, version_name="2.0")
    assert copy().size_estimate() == package.size_estimate()


def test_an_untouched_copy_ships_the_same_blob(package):
    data = pickle.dumps(package)
    copy = pickle.loads(data)
    assert pickle.dumps(copy) == data
    # A copy that was read ships its text again, equal to the original.
    assert copy.smali_files == package.smali_files
    assert pickle.loads(pickle.dumps(copy)) == package


def test_a_field_set_before_the_first_read_survives_it(package):
    copy = pickle.loads(pickle.dumps(package))
    copy.manifest_xml = "<manifest/>"
    assert copy.smali_files == package.smali_files
    assert copy.manifest_xml == "<manifest/>"
    again = pickle.loads(pickle.dumps(copy))
    assert again.manifest_xml == "<manifest/>"
    assert again.public_xml == package.public_xml


def test_a_package_pickles_deflated(package):
    assert len(pickle.dumps(package)) < package.size_estimate() / 4
