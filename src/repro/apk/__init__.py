"""APK package model and the declarative app specification language.

This subpackage is the substitute for real Google Play APK files: a
structured package (manifest + resource table + layout XML + dalvik
classes) compiled from a high-level :class:`~repro.apk.appspec.AppSpec`.
Static analysis consumes only the compiled artifacts; the emulator executes
the behavioural spec — the tool under test never sees the spec directly.
"""

from repro.apk.appspec import (
    Action,
    ActivitySpec,
    AppSpec,
    Chain,
    Crash,
    DrawerSpec,
    FinishActivity,
    FragmentFactory,
    FragmentSpec,
    InvokeApi,
    Noop,
    OpenDrawer,
    ShowDialog,
    ShowFragment,
    ShowPopupMenu,
    StartActivity,
    StartActivityByAction,
    SubmitForm,
    ToggleWidget,
    WidgetSpec,
)
from repro.apk.builder import build_apk
from repro.apk.layout import Layout
from repro.apk.manifest import ActivityDecl, IntentFilter, Manifest
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable

__all__ = [
    "Action",
    "ActivityDecl",
    "ActivitySpec",
    "ApkPackage",
    "AppSpec",
    "Chain",
    "Crash",
    "DrawerSpec",
    "FinishActivity",
    "FragmentFactory",
    "FragmentSpec",
    "IntentFilter",
    "InvokeApi",
    "Layout",
    "Manifest",
    "Noop",
    "OpenDrawer",
    "ResourceTable",
    "ShowDialog",
    "ShowFragment",
    "ShowPopupMenu",
    "StartActivity",
    "StartActivityByAction",
    "SubmitForm",
    "ToggleWidget",
    "WidgetSpec",
    "build_apk",
]
