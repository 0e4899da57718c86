"""jd-core equivalent: the decompiled Java must contain exactly the
line shapes Algorithm 1 greps — and must NOT leak statically-invisible
targets, neither in the full render nor in the unit Algorithm 1 greps."""

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
from repro.apk.appspec import FragmentFactory
from repro.smali.apktool import Apktool
from repro.smali.javagen import JavaDecompiler
from repro.static.edges import decompiled_unit


def decoded_for(spec):
    return Apktool().decode(build_apk(spec))


def unit_for(spec, class_name):
    """The full render: every statement, needle-bearing or not."""
    decoded = decoded_for(spec)
    return JavaDecompiler().decompile_unit(
        decoded.class_by_name(class_name),
        decoded.inner_classes_of(class_name))


def two_activity_spec(action):
    return AppSpec(
        package="com.jd",
        activities=[
            ActivitySpec(name="MainActivity", launcher=True,
                         widgets=[WidgetSpec(id="btn", on_click=action)]),
            ActivitySpec(name="SecondActivity",
                         intent_actions=["com.jd.action.GO"]),
        ],
        fragments=[],
    )


def test_explicit_intent_line_shape():
    unit = unit_for(two_activity_spec(StartActivity("SecondActivity")),
                    "com.jd.MainActivity")
    assert "new android.content.Intent(this$0, com.jd.SecondActivity.class)" in unit
    assert "startActivity(localIntent);" in unit


def test_action_intent_line_shape():
    unit = unit_for(
        two_activity_spec(StartActivityByAction("com.jd.action.GO")),
        "com.jd.MainActivity",
    )
    assert 'new android.content.Intent("com.jd.action.GO")' in unit


def test_dynamic_target_does_not_leak_class_name():
    spec = two_activity_spec(StartActivity("SecondActivity", dynamic=True))
    unit = unit_for(spec, "com.jd.MainActivity")
    assert "SecondActivity.class" not in unit
    assert "resolveTarget" in unit
    greppable = decompiled_unit(decoded_for(spec), "com.jd.MainActivity")
    assert "SecondActivity.class" not in greppable
    assert "resolveTarget" in greppable  # inside `new Intent(this$0, …)`


def test_dynamic_action_does_not_leak_action_string():
    spec = two_activity_spec(
        StartActivityByAction("com.jd.action.GO", dynamic=True))
    unit = unit_for(spec, "com.jd.MainActivity")
    assert '"com.jd.action.GO"' not in unit
    assert "ActionCodec.decode" in unit
    greppable = decompiled_unit(decoded_for(spec), "com.jd.MainActivity")
    assert '"com.jd.action.GO"' not in greppable
    assert "new android.content.Intent(" in greppable


def fragment_spec(factory, managed=True):
    return AppSpec(
        package="com.jd",
        activities=[
            ActivitySpec(
                name="MainActivity", launcher=True,
                hosted_fragments=["NewsFragment"],
                widgets=[WidgetSpec(
                    id="btn",
                    on_click=ShowFragment("NewsFragment",
                                          "fragment_container"),
                )],
            ),
        ],
        fragments=[FragmentSpec(name="NewsFragment", factory=factory,
                                managed=managed)],
    )


def test_fragment_transaction_lines():
    unit = unit_for(fragment_spec(FragmentFactory.NEW),
                    "com.jd.MainActivity")
    assert "FragmentManager localManager = getFragmentManager();" in unit
    assert ("FragmentTransaction localTransaction = "
            "localManager.beginTransaction();") in unit
    assert "new com.jd.NewsFragment()" in unit
    assert "localTransaction.commit();" in unit


def test_new_instance_factory_line():
    unit = unit_for(fragment_spec(FragmentFactory.NEW_INSTANCE),
                    "com.jd.MainActivity")
    assert "com.jd.NewsFragment.newInstance(" in unit


def test_custom_factory_hides_fragment():
    unit = unit_for(fragment_spec(FragmentFactory.CUSTOM),
                    "com.jd.MainActivity")
    assert "new com.jd.NewsFragment()" not in unit
    assert "NewsFragment.newInstance" not in unit
    assert "FragmentRouter.route" in unit


def test_unmanaged_fragment_keeps_new_but_no_transaction():
    unit = unit_for(fragment_spec(FragmentFactory.NEW, managed=False),
                    "com.jd.MainActivity")
    assert "new com.jd.NewsFragment()" in unit
    assert "beginTransaction" not in unit


def test_unit_merges_inner_classes():
    unit = unit_for(two_activity_spec(StartActivity("SecondActivity")),
                    "com.jd.MainActivity")
    assert "class MainActivity " in unit
    assert "class MainActivity_1 " in unit  # $ rendered as _
