"""Click dispatch, navigation, text entry, back semantics."""

import pytest

from repro.android.views import RuntimeWidget
from repro.errors import WidgetNotFoundError
from repro.types import WidgetKind


def test_click_starts_activity(launched):
    launched.click_widget("btn_next")
    assert launched.current_activity_name() == "com.example.demo.SecondActivity"


def test_back_pops_activity(launched):
    launched.click_widget("btn_next")
    launched.press_back()
    assert launched.current_activity_name() == "com.example.demo.MainActivity"


def test_back_at_root_exits_app(launched):
    launched.press_back()
    assert not launched.app_alive


def test_click_unknown_widget_raises(launched):
    with pytest.raises(WidgetNotFoundError):
        launched.click_widget("no_such_widget")


def test_tab_click_replaces_fragment(launched):
    launched.click_widget("btn_tab")
    assert launched.current_fragment_classes() == [
        "com.example.demo.NewsFragment"
    ]


def test_fragment_widget_click_switches_fragment(launched):
    # home_list chains an API call then shows DetailFragment (E3-style).
    launched.click_widget("home_list")
    assert launched.current_fragment_classes() == [
        "com.example.demo.DetailFragment"
    ]


def test_implicit_intent_navigation(launched):
    launched.click_widget("btn_about")
    assert launched.current_activity_name() == "com.example.demo.AboutActivity"


def test_enter_text_sets_value(launched):
    launched.enter_text("password", "hunter2")
    widget = next(w for w in launched.ui_dump()
                  if w.widget_id == "password")
    assert widget.entered_text == "hunter2"


def test_enter_text_requires_edittext(launched):
    with pytest.raises(WidgetNotFoundError):
        launched.enter_text("btn_next", "x")


def test_login_gate_wrong_value_shows_dialog(launched):
    launched.enter_text("password", "wrong")
    launched.click_widget("btn_login")
    assert launched.current_activity_name() == "com.example.demo.MainActivity"
    layers = {w.layer for w in launched.ui_dump()}
    assert layers == {"dialog"}


def test_login_gate_correct_value_navigates(launched):
    launched.enter_text("password", "hunter2")
    launched.click_widget("btn_login")
    assert launched.current_activity_name() == "com.example.demo.VaultActivity"


def test_tap_on_blank_space_is_noop(launched):
    before = launched.current_activity_name()
    launched.tap(1070, 1910)
    assert launched.current_activity_name() == before


def test_checkbox_toggles_without_handler(device, adb):
    from repro.apk import ActivitySpec, AppSpec, WidgetSpec, build_apk
    from repro.types import WidgetKind

    spec = AppSpec(
        package="com.toggle",
        activities=[ActivitySpec(
            name="MainActivity", launcher=True,
            widgets=[WidgetSpec(id="chk", kind=WidgetKind.CHECK_BOX)],
        )],
    )
    adb.install(build_apk(spec))
    adb.am_start_launcher("com.toggle")
    device.click_widget("chk")
    widget = next(w for w in device.ui_dump() if w.widget_id == "chk")
    assert widget.checked




def _screen_state(device):
    return (device.current_activity_name(),
            device.current_fragment_classes(),
            len(device.api_monitor.invocations),
            [(w.widget_id, w.checked) for w in device.ui_dump()])


def test_a_widget_without_a_handler_dispatches_nothing_across_restarts(
        device, adb, demo_apk):
    # Handlers live on the widgets, so a widget built without one never
    # picks up the handler of a widget that died earlier in the same
    # process (a dismissed dialog's buttons), even when it reuses that
    # widget's object id.  A check box would show a stale handler: a
    # handler without an action toggles it.
    adb.install(demo_apk)
    package = demo_apk.package
    assert adb.am_start_launcher(package)
    targets = [w.widget_id for w in device.ui_dump()
               if w.clickable and w.layer == "content"]
    for target in targets:
        device.force_stop(package)
        assert adb.am_start_launcher(package)
        device.click_widget(target)
        device.press_back()
        if not device.app_alive:
            continue
        process = device.foreground
        before = _screen_state(device)
        # Enough live widgets at once to take up every freed slot.
        bare = [RuntimeWidget(f"bare_{index}", WidgetKind.CHECK_BOX, "",
                              "com.example.demo.MainActivity", False,
                              clickable=False)
                for index in range(2000)]
        for widget in bare:
            process.dispatch_click(widget)
        assert not any(widget.checked for widget in bare)
        assert _screen_state(device) == before
