"""Activity & Fragment dependency (paper Algorithm 2).

For every Activity, walk the classes it uses — including from its inner
classes like ``ExampleActivity$1`` — and test each used class's
inheritance chain for ``android.app.Fragment`` or
``android.support.v4.app.Fragment``.  The result R = (A, F) lists which
Fragments each Activity depends on; the UI driver consults it in Case 1
to enqueue reflection switches for every dependent Fragment.
"""

from __future__ import annotations

from typing import Dict, List

from repro.smali.apktool import DecodedApk
from repro.static.effective import FRAGMENT_BASES, super_chain


def activity_fragment_dependency(
    decoded: DecodedApk, activities: List[str]
) -> Dict[str, List[str]]:
    """Algorithm 2: map each Activity to the Fragment classes it uses."""
    dependency: Dict[str, List[str]] = {}
    # Whether a used class is a Fragment depends on that class alone, so
    # each is decided once for all activities.
    is_fragment: Dict[str, bool] = {}
    for activity in activities:
        dependent: List[str] = []
        all_classes = []
        if decoded.has_class(activity):
            all_classes.append(decoded.class_by_name(activity))
        all_classes.extend(decoded.inner_classes_of(activity))
        for cls in all_classes:
            # The reference list the reference index already holds.
            for used in decoded.uses_of(cls)[0]:
                if used in dependent:
                    continue
                verdict = is_fragment.get(used)
                if verdict is None:
                    # Its inheritance chain reaches a Fragment base.
                    chain = super_chain(decoded, used)
                    verdict = is_fragment[used] = any(
                        base in chain for base in FRAGMENT_BASES)
                if verdict:
                    dependent.append(used)
        dependency[activity] = sorted(dependent)
    return dependency


def uses_fragment_manager(decoded: DecodedApk, activity: str) -> bool:
    """Does the Activity (or its inner classes) call
    ``getFragmentManager()`` / ``getSupportFragmentManager()``?

    Case 1 of Section VI-A uses this to decide whether reflection-based
    fragment switches should be enqueued for a newly reached Activity.
    """
    classes = []
    if decoded.has_class(activity):
        classes.append(decoded.class_by_name(activity))
    classes.extend(decoded.inner_classes_of(activity))
    for cls in classes:
        for method in cls.methods:
            for ref in method.invokes():
                if ref.name in ("getFragmentManager",
                                "getSupportFragmentManager"):
                    return True
    return False


def support_library_activity(decoded: DecodedApk, activity: str) -> bool:
    """True when the Activity derives from the support library — the
    reflection template then targets ``getSupportFragmentManager``."""
    chain = super_chain(decoded, activity)
    return any("support" in base for base in chain)
