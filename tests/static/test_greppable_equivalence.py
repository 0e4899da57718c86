"""The greppable unit against the full render and the per-line scan it
replaced.

``decompiled_unit`` keeps each class header and only the lines holding a
``NEEDLES`` needle; Algorithm 1 and the trigger pass then scan every
line it keeps.  The reference below is the earlier pipeline, kept in the
test: the full ``JavaDecompiler().decompile_unit`` render scanned line by
line behind the substring prefilter.  Over the Table-I apps, the large
app, 60 market apps and Hypothesis classes, every pattern must find the
same matches in the same order, Algorithm 1 and the trigger map must
come out the same, and the unit must be exactly the full render's class
headers plus its needle-bearing lines.
"""

from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import build_apk
from repro.corpus import TABLE1_PLANS, build_app, generate_market
from repro.corpus.synth import AppPlan
from repro.errors import PackedApkError
from repro.smali.apktool import Apktool, DecodedApk
from repro.smali.javagen import NEEDLES, JavaDecompiler
from repro.static import edges
from repro.static.edges import (
    _RE_INSTANCEOF,
    _RE_INTENT_ACTION,
    _RE_INTENT_CLASS,
    _RE_NEW_FRAGMENT,
    _RE_NEW_INSTANCE,
    _RE_SET_ACTION,
    _RE_SET_CLASS,
    build_aftm,
    decompiled_unit,
)
from repro.static.effective import (
    declared_activities,
    effective_fragments,
    fragment_hosts,
)
from repro.static.triggers import (
    _RE_LISTENER_BINDING,
    _RE_LISTENER_NEW,
    TriggerMap,
    _scan_unit,
    extract_trigger_map,
)
from tests.properties.test_javagen_properties import (
    arbitrary_classes,
    needle_literals,
)

#: Patterns Algorithm 1 and ``_targets_in`` run on each line.
LINE_PATTERNS = (_RE_INTENT_CLASS, _RE_SET_CLASS, _RE_INTENT_ACTION,
                 _RE_SET_ACTION, _RE_NEW_FRAGMENT, _RE_NEW_INSTANCE,
                 _RE_INSTANCEOF)
#: Patterns the trigger pass runs on the whole unit.
UNIT_PATTERNS = (_RE_LISTENER_BINDING, _RE_LISTENER_NEW)

LARGE_APP = AppPlan("com.scale.a200f150", visited_activities=200,
                    visited_fragments=150)


# A literal the assembler round-trips holds no line break: the smali
# lexer splits its text on the characters str.splitlines does.  Each
# statement is then one line, which the line-for-line comparison needs.
one_line_literals = st.one_of(
    st.text(st.characters(blacklist_characters="\n\r\x0b\x0c\x1c\x1d"
                                               "\x1e\x85\u2028\u2029"),
            max_size=12),
    needle_literals,
)


def _may_match(line: str) -> bool:
    return any(needle in line for needle in NEEDLES)


def full_unit(decoded: DecodedApk, class_name: str) -> str:
    return JavaDecompiler().decompile_unit(
        decoded.class_by_name(class_name),
        decoded.inner_classes_of(class_name))


def reference_lines(full: str) -> List[str]:
    return [line for line in full.splitlines()
            if line.startswith("public class ") or _may_match(line)]


def line_matches(lines: List[str]) -> Dict[str, List[Tuple]]:
    return {pattern.pattern: [(m.group(0), m.groups()) for line in lines
                              for m in pattern.finditer(line)]
            for pattern in LINE_PATTERNS}


def unit_matches(unit: str) -> Dict[str, List[Tuple]]:
    return {pattern.pattern: [(m.group(0), m.groups())
                              for m in pattern.finditer(unit)]
            for pattern in UNIT_PATTERNS}


def assert_unit_equivalent(full: str, unit: str) -> None:
    lines = unit.splitlines()
    assert lines == reference_lines(full)
    assert line_matches(lines) == line_matches(
        [line for line in full.splitlines() if _may_match(line)])
    assert unit_matches(unit) == unit_matches(full)


def _decoded_corpus() -> List[DecodedApk]:
    plans = list(TABLE1_PLANS) + [LARGE_APP]
    apks = [build_apk(build_app(plan)) for plan in plans]
    apks += [app.build() for app in generate_market(count=60)]
    decoded = []
    for apk in apks:
        try:
            decoded.append(Apktool().decode(apk))
        except PackedApkError:
            continue
    return decoded


@pytest.fixture(scope="module")
def corpus() -> List[DecodedApk]:
    return _decoded_corpus()


def test_every_corpus_unit_keeps_exactly_the_needle_lines(corpus):
    units = 0
    for decoded in corpus:
        for cls in decoded.classes:
            if cls.is_inner:
                continue
            assert_unit_equivalent(full_unit(decoded, cls.name),
                                   decompiled_unit(decoded, cls.name))
            units += 1
    assert units > 1000


def _static_phase(decoded: DecodedApk):
    activities = declared_activities(decoded)
    fragments = effective_fragments(decoded, activities)
    hosts = fragment_hosts(decoded, activities, fragments)
    return activities, fragments, hosts


def _aftm_facts(aftm):
    return aftm.entry, list(aftm.iter_nodes()), list(aftm.iter_edges())


def test_algorithm1_and_triggers_match_the_full_render(corpus):
    for decoded in corpus:
        activities, fragments, hosts = _static_phase(decoded)
        aftm = build_aftm(decoded, activities, fragments, hosts)
        trigger_map = extract_trigger_map(decoded, activities, fragments)
        with mock.patch.object(edges, "decompiled_unit", full_unit):
            reference_aftm = build_aftm(decoded, activities, fragments,
                                        hosts)
        assert _aftm_facts(aftm) == _aftm_facts(reference_aftm), \
            decoded.package
        activity_set, fragment_set = set(activities), set(fragments)
        reference_bindings = []
        for component in sorted(activity_set | fragment_set):
            if decoded.has_class(component):
                reference_bindings += _scan_unit(
                    decoded, component, full_unit(decoded, component),
                    activity_set, fragment_set)
        assert trigger_map.bindings == \
            TriggerMap(reference_bindings).bindings, decoded.package


@settings(max_examples=200, deadline=None)
@given(arbitrary_classes(one_line_literals),
       st.lists(arbitrary_classes(one_line_literals), max_size=2))
def test_hypothesis_units_keep_exactly_the_needle_lines(outer, others):
    inners = []
    for index, other in enumerate(others):
        other.name = f"{outer.name}${index + 1}"
        inners.append(other)
    decompiler = JavaDecompiler()
    assert_unit_equivalent(decompiler.decompile_unit(outer, inners),
                           decompiler.greppable_unit(outer, inners))


def test_triggers_read_the_unit_algorithm1_memoized(corpus):
    decoded = corpus[0]
    activities, fragments, hosts = _static_phase(decoded)
    build_aftm(decoded, activities, fragments, hosts)
    with mock.patch.object(JavaDecompiler, "greppable_unit",
                           side_effect=AssertionError("re-rendered")):
        assert extract_trigger_map(decoded, activities, fragments).bindings
