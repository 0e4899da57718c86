"""Effective Activities and Fragments (paper Section IV-B.2).

* Activities come from the manifest (which already excludes intermediate
  classes); isolated ones — linked by no edge — are pruned later, once
  the transition edges are known.
* Fragments are found by scanning every decoded class's ``.super`` chain:
  direct subclasses of ``android.app.Fragment`` /
  ``android.support.v4.app.Fragment`` first, then derived classes of those
  subclasses, iterated to a fixed point.  A fragment is *effective* only
  if some effective Activity (or another effective Fragment) contains a
  statement of it.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.apk.appspec import FRAGMENT_BASE, SUPPORT_FRAGMENT_BASE
from repro.smali.apktool import DecodedApk

FRAGMENT_BASES = (FRAGMENT_BASE, SUPPORT_FRAGMENT_BASE)


def declared_activities(decoded: DecodedApk) -> List[str]:
    """Activity class names from the manifest, in declaration order."""
    return [decl.name for decl in decoded.manifest.activities]


def super_chain(decoded: DecodedApk, class_name: str) -> List[str]:
    """The superclass chain of ``class_name``, ending at the first class
    not present in the APK (framework classes terminate the walk)."""
    chain: List[str] = []
    current = class_name
    seen: Set[str] = set()
    while decoded.has_class(current) and current not in seen:
        seen.add(current)
        parent = decoded.class_by_name(current).super_name
        chain.append(parent)
        current = parent
    return chain


def fragment_subclasses(decoded: DecodedApk) -> List[str]:
    """All classes whose inheritance chain reaches a Fragment base.

    Implements the two-pass scan of Section IV-B.2: collect direct
    subclasses of the Fragment classes, then iterate to pick up derived
    classes of those subclasses.
    """
    fragments: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for cls in decoded.classes:
            if cls.name in fragments or cls.is_inner:
                continue
            if cls.super_name in FRAGMENT_BASES or cls.super_name in fragments:
                fragments.add(cls.name)
                changed = True
    return sorted(fragments)


def effective_fragments(decoded: DecodedApk,
                        activities: List[str]) -> List[str]:
    """Filter fragment subclasses down to the effective set.

    A fragment is effective when a statement of it appears in an
    effective Activity, in another effective Fragment, or in one of their
    inner (listener) classes.  Fragments that only serve as superclasses
    of other fragments ("intermediate" bases) drop out here unless they
    are themselves instantiated.
    """
    candidates = fragment_subclasses(decoded)
    activity_set = set(activities)
    effective: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for fragment in candidates:
            if fragment in effective:
                continue
            for referrer in decoded.referencing_owners(fragment):
                is_instantiation = decoded.instantiates(referrer, fragment)
                if not is_instantiation:
                    continue
                if referrer in activity_set or referrer in effective:
                    effective.add(fragment)
                    changed = True
                    break
    return sorted(effective)


def fragment_hosts(decoded: DecodedApk, activities: List[str],
                   fragments: List[str]) -> Dict[str, List[str]]:
    """For each effective fragment, the Activities that instantiate it
    (directly or through their inner classes or hosted fragments)."""
    hosts: Dict[str, List[str]] = {fragment: [] for fragment in fragments}
    # One pass over each activity's instantiations; every fragment's
    # hosts come out in activity order.
    for activity in activities:
        for created in decoded.instantiated_by(activity):
            bucket = hosts.get(created)
            if bucket is not None:
                bucket.append(activity)
    # Fragments instantiated only from other fragments inherit those
    # fragments' hosts (the transaction still targets the host activity).
    changed = True
    while changed:
        changed = False
        for fragment in fragments:
            if hosts[fragment]:
                continue
            for other in fragments:
                if other == fragment or not hosts[other]:
                    continue
                if decoded.instantiates(other, fragment):
                    hosts[fragment] = list(hosts[other])
                    changed = True
                    break
    return hosts
