"""The builder and the printer write one smali format.

The builder writes each class's lines as text, through the line
formatters of :mod:`repro.smali.assemble`, without making the model's
objects; ``print_class`` renders a model class through the same
formatters.  So every ``.smali`` file a build writes must read back and
print to the same text, byte for byte.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.apk import (
    ActivitySpec,
    AppSpec,
    FragmentSpec,
    ShowFragment,
    StartActivity,
    WidgetSpec,
    build_apk,
)
from repro.apk.appspec import FragmentFactory
from repro.corpus import TABLE1_PLANS, build_table1_app
from repro.corpus.synth import AppPlan, build_app
from repro.smali.assemble import parse_class, print_class

# Routed navigation: the build adds its FragmentRouter class.
ROUTED = AppSpec(
    package="com.roundtrip.routed",
    activities=[
        ActivitySpec(
            name="MainActivity", launcher=True,
            hosted_fragments=["NewsFragment"],
            widgets=[
                WidgetSpec(id="go", on_click=StartActivity(
                    "SecondActivity", dynamic=True)),
                WidgetSpec(id="news", on_click=ShowFragment(
                    "NewsFragment", "fragment_container")),
            ],
        ),
        ActivitySpec(name="SecondActivity"),
    ],
    fragments=[FragmentSpec(name="NewsFragment",
                            factory=FragmentFactory.CUSTOM)],
)

LARGE_APP = AppPlan("com.scale.a200f150", visited_activities=200,
                    visited_fragments=150)


def assert_printer_reproduces(spec: AppSpec) -> None:
    apk = build_apk(spec)
    assert apk.smali_files
    for path, text in apk.smali_files.items():
        assert print_class(parse_class(text)) == text, path


def test_table1_builds_print_back_unchanged():
    for plan in TABLE1_PLANS:
        assert_printer_reproduces(build_table1_app(plan.package))


def test_routed_build_prints_back_unchanged():
    apk = build_apk(ROUTED)
    assert "com/roundtrip/routed/FragmentRouter.smali" in apk.smali_files
    assert_printer_reproduces(ROUTED)


def test_large_app_prints_back_unchanged():
    assert_printer_reproduces(build_app(LARGE_APP))


@st.composite
def app_plans(draw):
    shape = dict(
        visited_activities=draw(st.integers(1, 4)),
        login_locked=draw(st.integers(0, 2)),
        input_gated=draw(st.integers(0, 1)),
        popup_locked=draw(st.integers(0, 2)),
        navdrawer_locked=draw(st.integers(0, 1)),
        navdrawer_forced=draw(st.integers(0, 1)),
        visited_fragments=draw(st.integers(0, 3)),
        args_fragments=draw(st.integers(0, 2)),
        unmanaged_fragments=draw(st.integers(0, 2)),
        hidden_fragments=draw(st.integers(0, 2)),
        use_support=draw(st.booleans()),
    )
    # A hidden fragment needs a locked host (AppPlan's own rule).
    assume(not shape["hidden_fragments"] or shape["login_locked"]
           + shape["input_gated"] + shape["popup_locked"]
           + shape["navdrawer_locked"])
    return AppPlan(package=f"com.roundtrip.app{draw(st.integers(0, 999))}",
                   **shape)


@settings(max_examples=60, deadline=None)
@given(app_plans())
def test_drawn_builds_print_back_unchanged(plan):
    assert_printer_reproduces(build_app(plan))
