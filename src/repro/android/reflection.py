"""Java-reflection fragment switching (paper Section VI-A, Case 2).

FragDroid reflects the FragmentManager of the current Activity,
instantiates the target Fragment class on the VM, fills it into a
FragmentTransaction and commits.  Our runtime exposes the same moves —
with the same two failure modes the paper reports:

* the Fragment's ``newInstance`` needs parameters that reflection cannot
  supply (``com.inditex.zara``): :class:`ReflectionError`;
* the Fragment is loaded directly without a FragmentManager
  (``com.mobilemotion.dubsmash``): there is no transaction to construct,
  so switching (and load confirmation) fails.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ReflectionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.device import Device
    from repro.android.fragment import FragmentInstance


def reflective_fragment_switch(
    device: "Device",
    fragment_class: str,
    container_id: Optional[str] = None,
) -> "FragmentInstance":
    """Force the foreground Activity to show ``fragment_class``.

    Mirrors the reflection template of Section VI-B: locate
    ``getFragmentManager``/``getSupportFragmentManager`` on the Activity,
    ``beginTransaction()``, instantiate the Fragment class, ``replace``
    into the container resource-ID, ``commit()``.
    """
    app = device.foreground
    if app is None or app.top_activity is None:
        raise ReflectionError("no foreground activity to reflect on")
    activity = app.top_activity
    simple = fragment_class.rsplit(".", 1)[-1]
    try:
        spec = app.blueprints.fragment(simple).spec
    except Exception as exc:
        raise ReflectionError(f"class not found: {fragment_class}") from exc
    if not spec.managed:
        raise ReflectionError(
            f"{fragment_class} is attached without a FragmentManager; "
            "no FragmentTransaction can be constructed"
        )
    if spec.requires_args:
        raise ReflectionError(
            f"{fragment_class}.newInstance requires parameters that "
            "reflection cannot transmit"
        )
    container = container_id or activity.spec.container_id
    if container is None:
        raise ReflectionError(
            f"{activity.class_name} has no fragment container to commit into"
        )
    device.steps += 1
    instance = app.attach_fragment(
        activity, simple, container, mode="replace", via="reflection"
    )
    device.logcat.log(
        "I", "FragDroid",
        f"reflective switch: {activity.spec.name} -> {simple}",
        device.steps,
    )
    return instance
