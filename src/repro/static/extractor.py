"""The Static Information Extraction phase (paper Section III, left half).

Given an APK, produce everything the evolutionary phase needs:

* the initial AFTM (Algorithm 1 over effective components),
* the Activity & Fragment dependency (Algorithm 2),
* the resource dependency / AFRM (Algorithm 3),
* the input-dependency file template (Section V-C),
* the view-components JSON ("a JSON file that records all view
  components and the locations they appear", Section III),
* per-Activity FragmentManager usage and support-library flags (consumed
  by Case 1 and by the reflection template),
* a static sensitive-API scan (which component code contains which
  hooked invokes) used for cross-checking the dynamic results.

The view-components JSON and the sensitive-API scan are report-only:
they are computed from the decoded APK when first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.static.cache import StaticCache

from repro.apk.package import ApkPackage
from repro.obs import NULL_TRACER, Tracer
from repro.smali.apktool import Apktool, DecodedApk
from repro.smali.model import ParseOnRead
from repro.static.aftm import AFTM
from repro.static.dependency import (
    activity_fragment_dependency,
    support_library_activity,
    uses_fragment_manager,
)
from repro.static.edges import build_aftm
from repro.static.effective import (
    declared_activities,
    effective_fragments,
    fragment_hosts,
    fragment_subclasses,
)
from repro.static.input_dep import InputDependency, extract_input_dependency
from repro.static.resource_dep import ResourceDependency, extract_resource_dependency
from repro.static.sensitive import api_for_method


@dataclass
class StaticInfo:
    """Everything the static phase hands to the dynamic phase."""

    package: str
    aftm: AFTM
    activities: List[str]
    fragments: List[str]
    fragment_hosts: Dict[str, List[str]]
    dependency: Dict[str, List[str]]  # Algorithm 2: activity -> fragments
    resource_dep: ResourceDependency
    input_dep: InputDependency
    uses_manager: Dict[str, bool]
    support_library: Dict[str, bool]
    # The APK's text artifacts (no runtime spec); None if read from JSON.
    source: Optional[ApkPackage] = field(default=None, repr=False,
                                         compare=False)
    # Report-only fields, computed from ``decoded`` on first read (see
    # below); a model read back from a cache entry carries both.
    # static_api_map: component class -> api names.
    static_api_map: Dict[str, List[str]] = field(init=False)
    view_components_json: str = field(init=False)
    # For the call graph, lint and attribution: decoded from ``source``
    # on first read, unless the static cache's memory tier seeds it.
    decoded: Optional[DecodedApk] = field(init=False, repr=False,
                                          compare=False)

    def __getstate__(self) -> Dict[str, object]:
        # Only the text crosses a process boundary; ``decoded`` and the
        # trigger-map memo are rebuilt from it on demand.
        state = dict(self.__dict__)
        state.pop("decoded", None)
        state.pop("_trigger_map_cache", None)
        return state


# ``decoded`` decodes ``source`` on first read; the report-only fields
# scan ``decoded`` on first read, so a process sweep never ships them
# unless its worker read them.
StaticInfo.decoded = ParseOnRead(  # type: ignore[assignment]
    "decoded", lambda info: (Apktool().decode(info.source)
                             if info.source is not None else None))
StaticInfo.static_api_map = ParseOnRead(  # type: ignore[assignment]
    "static_api_map", lambda info: _scan_sensitive_invokes(info.decoded))
StaticInfo.view_components_json = ParseOnRead(  # type: ignore[assignment]
    "view_components_json",
    lambda info: _view_components_json(info.decoded))


def extract_static_info(apk: ApkPackage,
                        input_values: Optional[Dict[str, str]] = None,
                        tracer: Optional[Tracer] = None,
                        cache: Optional["StaticCache"] = None,
                        digest: Optional[str] = None) -> StaticInfo:
    """Run the full static pipeline on one APK.

    ``input_values`` plays the analyst's role for the input-dependency
    file: widget resource-IDs mapped to correct values, filled in advance
    (Section V-C).  ``tracer`` records one span per phase (decode,
    Algorithms 1–3, input dependency).  The sensitive scan and the
    view-components JSON run on first read of their fields.

    ``cache`` memoizes the whole phase by the APK's content digest
    (``repro.static.cache``): a hit skips decode and Algorithms 1–3 and
    returns a fresh model whose ``decoded`` is the APK's decoded model,
    shared from the miss or decoded from ``apk`` on first read; packed
    APKs are never cached; uncached, the decoded model dies on return.
    ``static.cache.{hit,miss,store}`` counters land on the tracer.
    ``digest``, when given, is ``apk.digest()`` computed by the caller;
    the cache keys on it without hashing again.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if cache is not None and not apk.packed:
        if digest is None:
            digest = apk.digest()
        with tracer.span("static.cache.lookup", app=apk.package):
            info = cache.lookup(digest, apk)
        if info is not None:
            tracer.inc("static.cache.hit")
            if input_values:
                for widget_id, value in input_values.items():
                    info.input_dep.provide(widget_id, value)
            return info
        tracer.inc("static.cache.miss")
    with tracer.span("static.extract", app=apk.package) as root:
        with tracer.span("static.decode", app=apk.package):
            decoded = Apktool().decode(apk)

        # Algorithm 1: effective components and the initial AFTM.
        with tracer.span("static.algorithm1.aftm", app=apk.package) as span:
            activities = declared_activities(decoded)
            fragments = effective_fragments(decoded, activities)
            hosts = fragment_hosts(decoded, activities, fragments)
            aftm = build_aftm(decoded, activities, fragments, hosts)
            span.set_attribute("activities", len(aftm.activities))
            span.set_attribute("fragments", len(aftm.fragments))

        # Effective = working: only components surviving the isolation prune.
        effective_activity_names = sorted(n.name for n in aftm.activities)
        effective_fragment_names = sorted(n.name for n in aftm.fragments)

        # Algorithm 2: the Activity & Fragment dependency.
        with tracer.span("static.algorithm2.dependency", app=apk.package):
            dependency = activity_fragment_dependency(
                decoded, effective_activity_names
            )

        # Algorithm 3: the resource dependency / AFRM.
        with tracer.span("static.algorithm3.resource_dep", app=apk.package):
            resource_dep = extract_resource_dependency(
                decoded, effective_activity_names, effective_fragment_names
            )

        with tracer.span("static.input_dep", app=apk.package):
            input_dep = extract_input_dependency(decoded)
            if input_values:
                for widget_id, value in input_values.items():
                    input_dep.provide(widget_id, value)

        uses_manager = {
            activity: uses_fragment_manager(decoded, activity)
            for activity in effective_activity_names
        }
        support = {
            activity: support_library_activity(decoded, activity)
            for activity in effective_activity_names
        }
        root.set_attribute("activities", len(effective_activity_names))
        root.set_attribute("fragments", len(effective_fragment_names))
        info = StaticInfo(
            package=apk.package,
            aftm=aftm,
            activities=effective_activity_names,
            fragments=effective_fragment_names,
            fragment_hosts=hosts,
            dependency=dependency,
            resource_dep=resource_dep,
            input_dep=input_dep,
            uses_manager=uses_manager,
            support_library=support,
            source=decoded.source,
        )
    if cache is not None and not apk.packed:
        # Serialized immediately, so later in-place AFTM mutation by the
        # dynamic phase never leaks into the stored entry; analyst
        # values are stripped by the serializer and re-applied per hit.
        cache.store(digest, info, decoded)
        tracer.inc("static.cache.store")
    return info


def _scan_sensitive_invokes(decoded: DecodedApk) -> Dict[str, List[str]]:
    """Which component code (outer class) contains which hooked invokes."""
    api_map: Dict[str, List[str]] = {}
    for cls in decoded.classes:
        owner = cls.outer_name or cls.name
        for method in cls.methods:
            for ref in method.invokes():
                api = api_for_method(ref)
                if api is None:
                    continue
                api_map.setdefault(owner, [])
                if api not in api_map[owner]:
                    api_map[owner].append(api)
    return {owner: sorted(apis) for owner, apis in sorted(api_map.items())}


def _view_components_json(decoded: DecodedApk) -> str:
    """The Section III JSON: every view component and where it appears."""
    records = []
    for layout_name, layout in sorted(decoded.layouts.items()):
        for element in layout.elements:
            rid = decoded.resources.get("id", element.widget_id)
            records.append(
                {
                    "widget": element.widget_id,
                    "kind": element.kind.name,
                    "layout": layout_name,
                    "resource_id": rid.hex if rid else None,
                    "clickable": element.clickable,
                }
            )
    return json.dumps(records, indent=2, sort_keys=True)
