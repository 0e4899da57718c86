"""Algorithm 3 (resource dependency) and the input-dependency file."""

import json

import pytest

from repro.errors import StoreError
from repro.smali.apktool import Apktool
from repro.static.extractor import extract_static_info
from repro.static.input_dep import (
    DEFAULT_TEXT,
    InputDependency,
    extract_input_dependency,
)


@pytest.fixture
def info(demo_apk):
    return extract_static_info(demo_apk)


def test_widget_bound_to_activity(info):
    activity, fragment = info.resource_dep.owner_of("btn_next")
    assert activity == "com.example.demo.MainActivity"
    assert fragment is None


def test_widget_bound_to_fragment(info):
    activity, fragment = info.resource_dep.owner_of("home_list")
    assert activity is None
    assert fragment == "com.example.demo.HomeFragment"


def test_passive_fragment_widget_bound_by_layout_membership(info):
    _, fragment = info.resource_dep.owner_of("news_row")
    assert fragment == "com.example.demo.NewsFragment"


def test_unknown_widget_unbound(info):
    assert info.resource_dep.owner_of("anon:Raw:raw_row") == (None, None)


def test_unmanaged_fragment_has_no_bindings(info):
    assert info.resource_dep.widgets_of_fragment(
        "com.example.demo.RawFragment"
    ) == []


def test_identify_fragments_from_visible_ids(info):
    found = info.resource_dep.identify_fragments(
        ["btn_next", "home_list", "nonexistent"]
    )
    assert found == {"com.example.demo.HomeFragment"}


def test_bindings_unique_per_owner(info):
    # A widget id may legitimately recur across layouts (e.g. the shared
    # "fragment_container"); per owner it must be unique.
    triples = [(b.widget_id, b.activity, b.fragment)
               for b in info.resource_dep.bindings]
    assert len(triples) == len(set(triples))
    # Identification uses the first binding and stays deterministic.
    assert info.resource_dep.owner_of("fragment_container")[0] is not None


# -- input dependency ---------------------------------------------------------------

def test_input_template_lists_edit_texts(demo_apk):
    decoded = Apktool().decode(demo_apk)
    dep = extract_input_dependency(decoded)
    assert "password" in dep.known_widgets


def test_value_preference_and_default():
    dep = InputDependency(package="com.x")
    assert dep.value_for("field") == DEFAULT_TEXT
    dep.provide("field", "Boston")
    assert dep.value_for("field") == "Boston"
    assert dep.has_value("field")


def test_json_round_trip():
    dep = InputDependency(package="com.x")
    dep.known_widgets = ["a", "b"]
    dep.provide("a", "val")
    parsed = InputDependency.from_json(dep.to_json())
    assert parsed.package == "com.x"
    assert parsed.known_widgets == ["a", "b"]
    assert parsed.value_for("a") == "val"


@pytest.mark.parametrize("text, reason", [
    ("{}", "input file lacks 'package'"),
    ("nope", "input file is not valid JSON"),
    ('{"package": "com.x", "values": {"a": 1}}',
     r"input file\.values\.a: expected str"),
])
def test_a_damaged_input_file_is_a_store_error(text, reason):
    with pytest.raises(StoreError, match=reason):
        InputDependency.from_json(text)


def test_view_components_json(info):
    records = json.loads(info.view_components_json)
    widgets = {r["widget"] for r in records}
    assert "btn_next" in widgets
    assert all("layout" in r and "resource_id" in r for r in records)
