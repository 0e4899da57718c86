"""The linear Algorithm 1 and 3 loops against the quadratic ones they
replaced.

Each reference below is the earlier implementation, kept verbatim in
logic: the anchored ``newInstance`` pattern must give the same
``finditer`` matches as the unanchored one, and the inverted
``fragment_hosts`` and layout-indexed Algorithm 3 must return exactly
what the per-pair and per-widget scans did, in the same order.
"""

import re
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.apk import build_apk
from repro.corpus.synth import AppPlan, build_app
from repro.smali.apktool import Apktool, DecodedApk
from repro.smali.model import Instruction, SmaliMethod
from repro.static.edges import _RE_NEW_INSTANCE
from repro.static.effective import (
    declared_activities,
    effective_fragments,
    fragment_hosts,
    fragment_subclasses,
)
from repro.static.resource_dep import (
    ResourceBinding,
    _ids_referenced_by,
    _layouts_referenced_by,
    extract_resource_dependency,
)

_REFERENCE_NEW_INSTANCE = re.compile(r"([\w.$]+)\.newInstance\(")


def reference_fragment_hosts(decoded: DecodedApk, activities: List[str],
                             fragments: List[str]) -> Dict[str, List[str]]:
    hosts: Dict[str, List[str]] = {fragment: [] for fragment in fragments}
    for fragment in fragments:
        for activity in activities:
            if decoded.instantiates(activity, fragment):
                hosts[fragment].append(activity)
    changed = True
    while changed:
        changed = False
        for fragment in fragments:
            if hosts[fragment]:
                continue
            for other in fragments:
                if other == fragment or not hosts[other]:
                    continue
                if decoded.instantiates(other, fragment):
                    hosts[fragment] = list(hosts[other])
                    changed = True
                    break
    return hosts


def reference_resource_bindings(decoded: DecodedApk, activities: List[str],
                                fragments: List[str]
                                ) -> List[ResourceBinding]:
    bindings: List[ResourceBinding] = []
    activity_layouts = {a: _layouts_referenced_by(decoded, a)
                        for a in activities}
    fragment_layouts = {f: _layouts_referenced_by(decoded, f)
                        for f in fragments}
    activity_ids = {a: _ids_referenced_by(decoded, a) for a in activities}
    fragment_ids = {f: _ids_referenced_by(decoded, f) for f in fragments}
    for layout_name, layout in sorted(decoded.layouts.items()):
        for widget_id in layout.widget_ids():
            rid = decoded.resources.get("id", widget_id)
            if rid is None:
                continue
            is_find = False
            for activity in activities:
                if (rid.value in activity_ids[activity]
                        and layout_name in activity_layouts[activity]):
                    bindings.append(ResourceBinding(widget_id, rid.value,
                                                    activity, None))
                    is_find = True
                    break
            if is_find:
                continue
            for fragment in fragments:
                if (rid.value in fragment_ids[fragment]
                        and layout_name in fragment_layouts[fragment]):
                    bindings.append(ResourceBinding(widget_id, rid.value,
                                                    None, fragment))
                    is_find = True
                    break
            if is_find:
                continue
            for activity in activities:
                if layout_name in activity_layouts[activity]:
                    bindings.append(ResourceBinding(widget_id, rid.value,
                                                    activity, None))
                    is_find = True
                    break
            if is_find:
                continue
            for fragment in fragments:
                if layout_name in fragment_layouts[fragment]:
                    bindings.append(ResourceBinding(widget_id, rid.value,
                                                    None, fragment))
                    break
    return bindings


# -- the newInstance pattern ---------------------------------------------------

_name_char = st.sampled_from("aZ_$.09")
_tokens = st.one_of(
    st.text(_name_char, min_size=1, max_size=12),
    st.sampled_from([
        ".newInstance(", "newInstance(", ".newInstance", "com.a.F1",
        "F$1", "new ", "(", ")", " ", "=", ";", ", ", "..", "$",
    ]),
    st.text(max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_tokens, max_size=16).map("".join))
def test_anchored_new_instance_matches_like_the_unanchored_one(line):
    def matches(pattern):
        return [(m.span(), m.group(1)) for m in pattern.finditer(line)]

    assert matches(_RE_NEW_INSTANCE) == matches(_REFERENCE_NEW_INSTANCE)


# -- fragment_hosts and Algorithm 3 over generated apps ------------------------

@st.composite
def decoded_apps(draw):
    """A generated app, decoded, with extra cross-wiring drawn into its
    code: a component may also create other fragments and reference
    other layouts and widget ids.  Generated apps give each fragment one
    host and each layout one inflater, which would leave the order the
    loops scan in untested."""
    locked = draw(st.integers(0, 2))
    plan = AppPlan(
        package=f"com.equiv.app{draw(st.integers(0, 10**6))}",
        visited_activities=draw(st.integers(1, 6)),
        login_locked=locked,
        navdrawer_forced=draw(st.integers(0, 2)),
        visited_fragments=draw(st.integers(0, 6)),
        args_fragments=draw(st.integers(0, 2)),
        unmanaged_fragments=draw(st.integers(0, 2)),
        hidden_fragments=draw(st.integers(0, 2)) if locked else 0,
        use_support=draw(st.booleans()),
    )
    decoded = Apktool().decode(build_apk(build_app(plan)))
    fragments = fragment_subclasses(decoded)
    resources = decoded.resources
    layout_values = {
        name: [resources.lookup("layout", name).value] + [
            resources.lookup("id", widget_id).value
            for widget_id in layout.widget_ids()
            if resources.get("id", widget_id) is not None]
        for name, layout in decoded.layouts.items()
    }
    for component in declared_activities(decoded) + fragments:
        if not decoded.has_class(component):
            continue
        wiring = SmaliMethod(name="crossWired")
        for name in draw(st.lists(st.sampled_from(sorted(layout_values)),
                                  max_size=3)):
            values = layout_values[name]
            for value in draw(st.lists(st.sampled_from(values),
                                       max_size=len(values))):
                wiring.instructions.append(
                    Instruction("const", ("v0", value)))
        for created in draw(st.lists(st.sampled_from(fragments),
                                     max_size=3) if fragments
                            else st.just([])):
            wiring.instructions.append(
                Instruction("new-instance", ("v0", created)))
        decoded.class_by_name(component).add_method(wiring)
    return decoded


@settings(max_examples=60, deadline=None)
@given(decoded_apps(), st.data())
def test_fragment_hosts_match_the_pairwise_scan(decoded, data):
    activities = declared_activities(decoded)
    for fragments in (effective_fragments(decoded, activities),
                      fragment_subclasses(decoded)):
        order = data.draw(st.permutations(activities))
        assert fragment_hosts(decoded, order, fragments) == \
            reference_fragment_hosts(decoded, order, fragments)


@settings(max_examples=60, deadline=None)
@given(decoded_apps(), st.data())
def test_algorithm3_matches_the_per_widget_scan(decoded, data):
    activities = data.draw(st.permutations(declared_activities(decoded)))
    fragments = data.draw(st.permutations(fragment_subclasses(decoded)))
    model = extract_resource_dependency(decoded, activities, fragments)
    assert model.bindings == \
        reference_resource_bindings(decoded, activities, fragments)
