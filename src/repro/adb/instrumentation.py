"""Manifest instrumentation for forced starts.

Section VI-A, method 3: "During static analysis, we modify
AndroidManifest.xml by adding the attribute
``<action android:name="android.intent.action.MAIN"/>`` for every
Activity and use the ADB command ``am start -n <COMPONENT>`` to forcibly
start an Activity which FragDroid cannot visit by normal methods."

We perform the same rewrite on the package's manifest XML (and export
every Activity so shell starts pass the permission check), producing a
new package — the repackaged APK FragDroid installs on the phone.
"""

from __future__ import annotations

from dataclasses import replace

from repro.apk.manifest import ACTION_MAIN, IntentFilter, Manifest
from repro.apk.package import ApkPackage


def instrument_manifest(apk: ApkPackage) -> ApkPackage:
    """Return a repackaged APK whose every Activity is force-startable."""
    manifest = Manifest.from_xml(apk.manifest_xml)
    for decl in manifest.activities:
        decl.exported = True
        if not any(ACTION_MAIN in f.actions for f in decl.intent_filters):
            decl.intent_filters.append(IntentFilter(actions=[ACTION_MAIN]))
    # ``replace`` carries the behavioural spec over for the emulator
    # without this tool ever reading it.
    return replace(
        apk,
        manifest_xml=manifest.to_xml(),
        smali_files=dict(apk.smali_files),
        layout_files=dict(apk.layout_files),
        version_name=apk.version_name + "-instrumented",
    )
