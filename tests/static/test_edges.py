"""Algorithm 1: transition-edge extraction from decompiled units."""

import pytest

from repro.apk import (
    ActivitySpec,
    AppSpec,
    FragmentSpec,
    ShowFragment,
    StartActivity,
    StartActivityByAction,
    WidgetSpec,
    build_apk,
)
from repro.smali.apktool import Apktool
from repro.smali.model import SmaliMethod
from repro.static import extract_static_info
from repro.static.aftm import EdgeKind, activity_node, fragment_node
from repro.static.edges import build_aftm
from repro.static.effective import (
    declared_activities,
    effective_fragments,
    fragment_hosts,
)


def aftm_for(spec):
    return extract_static_info(build_apk(spec)).aftm


def test_demo_edges(demo_apk):
    info = extract_static_info(demo_apk)
    aftm = info.aftm
    e1 = {(e.src.simple_name, e.dst.simple_name)
          for e in aftm.edges_of_kind(EdgeKind.E1)}
    assert ("MainActivity", "SecondActivity") in e1
    assert ("MainActivity", "SettingsActivity") in e1   # drawer listener
    assert ("MainActivity", "AboutActivity") in e1      # action resolution
    assert ("MainActivity", "VaultActivity") in e1      # login success branch
    assert ("MainActivity", "HiddenActivity") in e1     # popup item listener
    e2 = {(e.src.simple_name, e.dst.simple_name)
          for e in aftm.edges_of_kind(EdgeKind.E2)}
    assert ("MainActivity", "HomeFragment") in e2
    assert ("MainActivity", "NewsFragment") in e2
    e3 = {(e.src.simple_name, e.dst.simple_name)
          for e in aftm.edges_of_kind(EdgeKind.E3)}
    assert ("HomeFragment", "DetailFragment") in e3


def test_entry_is_launcher(demo_apk):
    aftm = extract_static_info(demo_apk).aftm
    assert aftm.entry == activity_node("com.example.demo.MainActivity")


def test_dynamic_intent_edge_missing():
    spec = AppSpec(
        package="com.dyn",
        activities=[
            ActivitySpec(name="MainActivity", launcher=True, widgets=[
                WidgetSpec(id="a", on_click=StartActivity("StaticActivity")),
                WidgetSpec(id="b", on_click=StartActivity("DynActivity",
                                                          dynamic=True)),
            ]),
            ActivitySpec(name="StaticActivity", widgets=[
                WidgetSpec(id="c", on_click=StartActivity("DynActivity",
                                                          dynamic=True)),
            ]),
            ActivitySpec(name="DynActivity", widgets=[
                WidgetSpec(id="d", on_click=StartActivity("MainActivity")),
            ]),
        ],
    )
    aftm = aftm_for(spec)
    e1 = {(e.src.simple_name, e.dst.simple_name)
          for e in aftm.edges_of_kind(EdgeKind.E1)}
    assert ("MainActivity", "StaticActivity") in e1
    assert ("MainActivity", "DynActivity") not in e1
    assert ("StaticActivity", "DynActivity") not in e1
    # DynActivity keeps its outgoing edge, so it is not isolated.
    assert ("DynActivity", "MainActivity") in e1


def test_unresolvable_action_produces_no_edge():
    spec = AppSpec(
        package="com.act",
        activities=[
            ActivitySpec(name="MainActivity", launcher=True, widgets=[
                WidgetSpec(id="a", on_click=StartActivityByAction(
                    "com.act.KNOWN")),
                WidgetSpec(id="b", on_click=StartActivityByAction(
                    "com.external.UNKNOWN")),
            ]),
            ActivitySpec(name="KnownActivity",
                         intent_actions=["com.act.KNOWN"],
                         widgets=[WidgetSpec(
                             id="c", on_click=StartActivity("MainActivity"))]),
        ],
    )
    aftm = aftm_for(spec)
    e1 = {(e.src.simple_name, e.dst.simple_name)
          for e in aftm.edges_of_kind(EdgeKind.E1)}
    assert ("MainActivity", "KnownActivity") in e1
    assert len(e1) == 2  # and the back edge


def test_isolated_activity_pruned():
    spec = AppSpec(
        package="com.iso",
        activities=[
            ActivitySpec(name="MainActivity", launcher=True, widgets=[
                WidgetSpec(id="a", on_click=StartActivity("LinkedActivity")),
            ]),
            ActivitySpec(name="LinkedActivity"),
            ActivitySpec(name="OrphanActivity"),
        ],
    )
    info = extract_static_info(build_apk(spec))
    assert "com.iso.OrphanActivity" not in info.activities
    assert len(info.activities) == 2


def test_f_to_f_requires_shared_host():
    spec = AppSpec(
        package="com.hosts",
        activities=[
            ActivitySpec(name="MainActivity", launcher=True,
                         initial_fragment="LeftFragment",
                         hosted_fragments=["RightFragment"]),
        ],
        fragments=[
            FragmentSpec(name="LeftFragment", widgets=[
                WidgetSpec(id="go", on_click=ShowFragment(
                    "RightFragment", "fragment_container")),
            ]),
            FragmentSpec(name="RightFragment"),
        ],
    )
    aftm = aftm_for(spec)
    e3 = aftm.edges_of_kind(EdgeKind.E3)
    assert len(e3) == 1
    assert e3[0].host == "com.hosts.MainActivity"


def test_self_edges_never_added(demo_apk):
    aftm = extract_static_info(demo_apk).aftm
    assert all(e.src != e.dst for e in aftm.edges)


def test_an_instanceof_only_reference_yields_the_edge():
    """A fragment its activity only type-tests counts as created there
    (effective, hosted), so Algorithm 1 must see its ``instanceof`` line
    too: ``boolean local = p1 instanceof F1;`` gives ``A0 → F1``."""
    spec = AppSpec(
        package="com.typed",
        activities=[ActivitySpec(name="MainActivity", launcher=True)],
        fragments=[FragmentSpec(name="TypedFragment")],
    )
    decoded = Apktool().decode(build_apk(spec))
    check = decoded.class_by_name("com.typed.MainActivity").add_method(
        SmaliMethod(name="isTyped", params=["android.app.Fragment"],
                    ret="boolean"))
    check.emit("instance-of", "v0", "p1", "com.typed.TypedFragment")
    check.emit("return-object", "v0")
    activities = declared_activities(decoded)
    fragments = effective_fragments(decoded, activities)
    assert fragments == ["com.typed.TypedFragment"]
    hosts = fragment_hosts(decoded, activities, fragments)
    aftm = build_aftm(decoded, activities, fragments, hosts)
    assert [(e.src, e.dst, e.kind) for e in aftm.edges] == [
        (activity_node("com.typed.MainActivity"),
         fragment_node("com.typed.TypedFragment"), EdgeKind.E2)]
