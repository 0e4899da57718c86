"""Shared fixtures: a small reference app exercising every mechanism."""

from __future__ import annotations

import os
import pathlib
import time
from typing import Callable

import pytest

import repro
from repro.adb import Adb
from repro.android import Device
from repro.apk import (
    ActivitySpec,
    AppSpec,
    Chain,
    Crash,
    DrawerSpec,
    FragmentSpec,
    InvokeApi,
    ShowDialog,
    ShowFragment,
    ShowPopupMenu,
    StartActivity,
    StartActivityByAction,
    SubmitForm,
    WidgetSpec,
    build_apk,
)
from repro.apk.appspec import FragmentFactory
from repro.robotium import Solo
from repro.types import WidgetKind

#: Makes ``repro`` importable in child interpreters however the suite
#: itself found it.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(repro.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if p]),
)


def wait_until(condition: Callable[[], bool], timeout_s: float = 5.0,
               interval_s: float = 0.02) -> bool:
    """Poll ``condition`` until it holds or ``timeout_s`` passes; its
    final value.  For state another thread settles a beat after the
    call under test returns (e.g. an HTTP handler's ``finally``)."""
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() >= deadline:
            return condition()
        time.sleep(interval_s)
    return True


def make_demo_spec(package: str = "com.example.demo") -> AppSpec:
    """A compact app touching most features: fragments (managed, tab and
    drawer switched), an implicit-intent edge, a login gate, a popup, a
    crash button, and sensitive APIs in both component kinds."""
    return AppSpec(
        package=package,
        activities=[
            ActivitySpec(
                name="MainActivity",
                launcher=True,
                initial_fragment="HomeFragment",
                api_calls=["phone/getDeviceId"],
                drawer=DrawerSpec(
                    items=[
                        WidgetSpec(
                            id="nav_settings", kind=WidgetKind.DRAWER_ITEM,
                            text="Settings",
                            on_click=StartActivity("SettingsActivity"),
                        ),
                    ]
                ),
                widgets=[
                    WidgetSpec(id="btn_next", text="Next",
                               on_click=StartActivity("SecondActivity")),
                    WidgetSpec(id="btn_tab", kind=WidgetKind.TAB, text="News",
                               on_click=ShowFragment("NewsFragment",
                                                     "fragment_container")),
                    WidgetSpec(id="btn_about", text="About",
                               on_click=StartActivityByAction(
                                   "com.example.demo.action.ABOUT")),
                    WidgetSpec(id="password", kind=WidgetKind.EDIT_TEXT),
                    WidgetSpec(
                        id="btn_login", text="Sign in",
                        on_click=SubmitForm(
                            required={"password": "hunter2"},
                            on_success=StartActivity("VaultActivity"),
                            on_failure=ShowDialog("Wrong password"),
                        ),
                    ),
                    WidgetSpec(
                        id="btn_menu", text="⋮",
                        on_click=ShowPopupMenu(
                            items=(
                                WidgetSpec(
                                    id="menu_hidden", kind=WidgetKind.MENU_ITEM,
                                    text="Hidden",
                                    on_click=StartActivity("HiddenActivity"),
                                ),
                            )
                        ),
                    ),
                ],
            ),
            ActivitySpec(
                name="SecondActivity",
                widgets=[
                    WidgetSpec(id="btn_crash", text="Crash",
                               on_click=Crash("boom")),
                    WidgetSpec(id="btn_home", text="home",
                               on_click=StartActivity("MainActivity")),
                ],
            ),
            ActivitySpec(name="SettingsActivity",
                         api_calls=["storage/sdcard"]),
            ActivitySpec(name="AboutActivity",
                         intent_actions=["com.example.demo.action.ABOUT"]),
            ActivitySpec(name="VaultActivity", requires_intent_extras=True),
            ActivitySpec(name="HiddenActivity", requires_intent_extras=True),
        ],
        fragments=[
            FragmentSpec(
                name="HomeFragment",
                widgets=[
                    WidgetSpec(
                        id="home_list", kind=WidgetKind.LIST_ITEM, text="item",
                        on_click=Chain(
                            actions=(
                                InvokeApi("location/getAllProviders"),
                                ShowFragment("DetailFragment",
                                             "fragment_container"),
                            )
                        ),
                    ),
                ],
            ),
            FragmentSpec(
                name="NewsFragment",
                api_calls=["internet/connect"],
                widgets=[WidgetSpec(id="news_row", kind=WidgetKind.LIST_ITEM,
                                    text="headline")],
            ),
            FragmentSpec(
                name="DetailFragment",
                factory=FragmentFactory.NEW_INSTANCE,
                widgets=[WidgetSpec(id="detail_row",
                                    kind=WidgetKind.LIST_ITEM, text="detail")],
            ),
            FragmentSpec(
                name="RawFragment",
                managed=False,
                widgets=[WidgetSpec(id="raw_row", kind=WidgetKind.LIST_ITEM,
                                    text="raw")],
            ),
            FragmentSpec(
                name="ArgsFragment",
                factory=FragmentFactory.NEW_INSTANCE,
                requires_args=True,
                widgets=[WidgetSpec(id="args_row", kind=WidgetKind.LIST_ITEM,
                                    text="args")],
            ),
        ],
    )


def make_full_demo_spec(package: str = "com.example.demo") -> AppSpec:
    """The demo spec with the obstacle fragments wired in: RawFragment
    behind a button, ArgsFragment behind a popup item (so both are
    statically visible but dynamically problematic)."""
    spec = make_demo_spec(package)
    second = spec.activity("SecondActivity")
    second.hosted_fragments.extend(["RawFragment", "ArgsFragment"])
    second.container_id = second.container_id or "fragment_container"
    second.widgets.append(
        WidgetSpec(id="btn_raw", text="raw",
                   on_click=ShowFragment("RawFragment",
                                         "fragment_container"))
    )
    second.widgets.append(
        WidgetSpec(
            id="btn_args_menu", text="…",
            on_click=ShowPopupMenu(
                items=(
                    WidgetSpec(id="menu_args", kind=WidgetKind.MENU_ITEM,
                               text="args",
                               on_click=ShowFragment("ArgsFragment",
                                                     "fragment_container")),
                )
            ),
        )
    )
    return spec


@pytest.fixture
def demo_spec() -> AppSpec:
    return make_full_demo_spec()


@pytest.fixture
def demo_apk(demo_spec):
    return build_apk(demo_spec)


@pytest.fixture
def device() -> Device:
    return Device()


@pytest.fixture
def adb(device) -> Adb:
    return Adb(device)


@pytest.fixture
def solo(device) -> Solo:
    return Solo(device)


@pytest.fixture
def launched(device, adb, demo_apk):
    """Device with the demo app installed and launched."""
    adb.install(demo_apk)
    assert adb.am_start_launcher(demo_apk.package)
    return device
