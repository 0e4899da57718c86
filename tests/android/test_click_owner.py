"""Whose code a click runs as: the owner rule for click handlers.

A widget in a fragment's own layout runs its handler as that fragment.
Every other widget runs as the host activity: its own content, drawer
rows, and the buttons of dialogs and popup menus — also when a fragment
showed the dialog, since the AlertDialog is built on the activity's
window.  The host is the activity on top when the click is dispatched,
for the whole of a chained handler.
"""

from repro.apk import (
    ActivitySpec,
    AppSpec,
    Chain,
    FragmentSpec,
    InvokeApi,
    ShowDialog,
    ShowPopupMenu,
    StartActivity,
    WidgetSpec,
    build_apk,
)
from repro.types import ComponentName, InvocationSource

PACKAGE = "com.owner.rule"
HOST = f"{PACKAGE}.MainActivity"
FRAGMENT = f"{PACKAGE}.HomeFragment"
SECOND = f"{PACKAGE}.SecondActivity"


def owner_spec() -> AppSpec:
    dialog_button = WidgetSpec(
        id="btn_confirm", text="Confirm",
        on_click=Chain([InvokeApi("phone/getDeviceId"),
                        StartActivity("SecondActivity"),
                        InvokeApi("phone/getNetworkOperatorName")]),
    )
    popup_item = WidgetSpec(id="item_share", text="Share",
                            on_click=InvokeApi("location/getProviders"))
    return AppSpec(
        package=PACKAGE,
        activities=[
            ActivitySpec(name="MainActivity", launcher=True,
                         initial_fragment="HomeFragment",
                         container_id="fragment_container"),
            ActivitySpec(name="SecondActivity"),
        ],
        fragments=[FragmentSpec(
            name="HomeFragment",
            widgets=[
                WidgetSpec(id="btn_dialog", text="Ask",
                           on_click=ShowDialog("Sure?", [dialog_button])),
                WidgetSpec(id="btn_menu", text="More",
                           on_click=ShowPopupMenu([popup_item])),
                WidgetSpec(id="btn_api", text="Locate",
                           on_click=Chain([
                               InvokeApi("location/getProviders"),
                               StartActivity("SecondActivity"),
                               InvokeApi("phone/getNetworkCountryIso"),
                           ])),
            ],
        )],
    )


def launch(device, adb) -> None:
    adb.install(build_apk(owner_spec()))
    assert adb.am_start_launcher(PACKAGE)
    device.api_monitor.clear()


def recorded(device):
    return [(i.api, i.component, i.source)
            for i in device.api_monitor.invocations]


def click_dialog_button(device) -> None:
    device.click_widget("btn_dialog")
    button = next(w for w in device.ui_dump() if w.text == "Confirm")
    # The button is built for the fragment that showed the dialog ...
    assert button.layer == "dialog" and button.owner_class == FRAGMENT
    device.click_widget(button.widget_id)


def test_dialog_button_shown_by_fragment_runs_as_host(device, adb):
    launch(device, adb)
    click_dialog_button(device)
    # ... but its handler runs as the host activity, through the chain,
    # even after the chain started another activity.
    host = ComponentName(PACKAGE, HOST)
    assert recorded(device) == [
        ("phone/getDeviceId", host, InvocationSource.ACTIVITY),
        ("phone/getNetworkOperatorName", host, InvocationSource.ACTIVITY),
    ]
    assert device.current_activity_name() == SECOND
    top = device.foreground.top_activity
    assert top.intent.extras["origin"] == HOST


def test_popup_item_shown_by_fragment_runs_as_host(device, adb):
    launch(device, adb)
    device.click_widget("btn_menu")
    item = next(w for w in device.ui_dump() if w.text == "Share")
    device.click_widget(item.widget_id)
    assert recorded(device) == [
        ("location/getProviders", ComponentName(PACKAGE, HOST),
         InvocationSource.ACTIVITY),
    ]


def test_fragment_content_widget_runs_as_fragment(device, adb):
    launch(device, adb)
    device.click_widget("btn_api")
    fragment = ComponentName(PACKAGE, FRAGMENT)
    assert recorded(device) == [
        ("location/getProviders", fragment,
         InvocationSource.FRAGMENT),
        ("phone/getNetworkCountryIso", fragment, InvocationSource.FRAGMENT),
    ]
    assert device.current_activity_name() == SECOND
    assert device.foreground.top_activity.intent.extras["origin"] == FRAGMENT
