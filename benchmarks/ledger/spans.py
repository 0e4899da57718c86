"""Per-layer spans for the ledger's traced run.

The traced run wraps the pipeline's public functions from outside the
program: each entry of :data:`LAYERS` names the attributes its callers
look up (``module:attribute.path``), and :func:`patched` swaps each for
a recording wrapper, restoring every original on exit so the timed run
is never patched.  Spans stay in memory, one call stack per thread; a
span's self time is its duration minus the time its child spans on the
same thread cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> (call sites, per-app metrics reported).  A call site is the
#: attribute the caller resolves at call time, so a function imported
#: by name into another module is patched there, not where it is
#: defined.  "self" reports ``<layer>.self_ms``, "calls" reports
#: ``<layer>.calls``.
LAYERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "corpus.build_app": (("repro.bench.parallel:build_app",
                          "repro.corpus.market:build_app"), ("self",)),
    "corpus.generate_market": (("repro.bench.runner:generate_market",),
                               ("self",)),
    "apk.build_apk": (("repro.bench.parallel:build_apk",
                       "repro.corpus.market:build_apk"), ("self",)),
    "apk.digest": (("repro.apk.package:ApkPackage.digest",), ("self",)),
    "apk.resources_parse": (
        ("repro.apk.resources:ResourceTable.from_public_xml",),
        ("calls", "self")),
    "smali.decode": (("repro.smali.apktool:Apktool.decode",),
                     ("calls", "self")),
    "static.extract": (("repro.core.explorer:extract_static_info",),
                       ("self",)),
    "static.algorithm1": (("repro.static.extractor:declared_activities",
                           "repro.static.extractor:effective_fragments",
                           "repro.static.extractor:fragment_hosts",
                           "repro.static.extractor:build_aftm"), ("self",)),
    "static.algorithm2": (
        ("repro.static.extractor:activity_fragment_dependency",), ("self",)),
    "static.algorithm3": (
        ("repro.static.extractor:extract_resource_dependency",), ("self",)),
    "static.fragment_subclasses": (
        ("repro.bench.runner:fragment_subclasses",
         "repro.static.effective:fragment_subclasses"), ("self",)),
    "static.identify_fragments": (
        ("repro.static.resource_dep:ResourceDependency.identify_fragments",),
        ("calls", "self")),
    "android.start_activity": (("repro.android.device:Device.start_activity",),
                               ("calls", "self")),
    "android.click_widget": (("repro.android.device:Device.click_widget",),
                             ("calls", "self")),
    "android.ui_dump": (("repro.android.device:Device.ui_dump",),
                        ("calls", "self")),
    "robotium.get_current_views": (
        ("repro.robotium.solo:Solo.get_current_views",), ("calls",)),
    "adb.am_instrument": (("repro.adb.bridge:Adb.am_instrument",),
                          ("calls", "self")),
    "adb.am_start_launcher": (("repro.adb.bridge:Adb.am_start_launcher",),
                              ("self",)),
    "core.explore": (("repro.core.explorer:FragDroid.explore",), ("self",)),
    "core.ui_driver.snapshot": (("repro.core.ui_driver:UiDriver.snapshot",),
                                ("calls", "self")),
    "core.ui_driver.fill_inputs": (
        ("repro.core.ui_driver:UiDriver.fill_inputs",), ("self",)),
    "core.testcase.run": (("repro.core.testcase:TestCase.run",), ("self",)),
    "core.queue": (("repro.core.queue:UIQueue.pop",), ()),
    "bench.explore_one": (("repro.bench.parallel:explore_one",), ("self",)),
    "obs.registry_record": (("repro.obs.registry:RunRegistry.record",),
                            ("self",)),
    "obs.explain": (("repro.obs.attribution:explain_outcomes",), ("self",)),
    "obs.explanation_save": (("repro.obs.attribution:ExplanationStore.save",),
                             ("self",)),
    "serve.journal_write": (("repro.serve.journal:JobJournal.write",),
                            ("calls", "self")),
    "serve.job_logs": (("repro.serve.api:ReproServer.job_logs",), ("self",)),
}


def resolve(site: str) -> Tuple[object, str, object]:
    """``(owner, name, raw attribute)`` of one call site.

    The raw attribute is read from the owner's own ``__dict__``, so a
    site naming an inherited or renamed attribute raises ``KeyError``
    instead of silently patching nothing.
    """
    module_name, _, path = site.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, vars(owner)[name]


def unwrap(raw: object) -> Callable:
    """The plain function behind a call site's raw attribute."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    return raw  # type: ignore[return-value]


#: One finished span: (layer, thread id, start, end, self seconds, depth).
Span = Tuple[str, int, float, float, float, int]


class SpanRecorder:
    """Records one span per wrapped call; threads keep separate stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``observe(args, result)``
        runs after each call that returns."""
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((layer, threading.get_ident(), start, end,
                              end - start - children[0], len(stack)))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def totals(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self seconds per layer."""
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        for layer, _, _, _, own, _ in self.spans:
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own
        return calls, self_s

    def root_seconds(self) -> float:
        """Wall time covered by outermost spans, summed over threads."""
        return sum(end - start for _, _, start, end, _, depth in self.spans
                   if depth == 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for layer, thread, start, end, own, depth in self.spans:
                handle.write(json.dumps({
                    "layer": layer, "thread": thread, "start": start,
                    "end": end, "self": own, "depth": depth}) + "\n")


@contextlib.contextmanager
def patched(recorder: SpanRecorder,
            observers: Optional[Dict[str, Callable]] = None) -> Iterator[None]:
    """Wrap every call site in :data:`LAYERS` for the duration."""
    observers = observers or {}
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, (sites, _) in LAYERS.items():
            for site in sites:
                owner, name, raw = resolve(site)
                wrapped = recorder.wrap(layer, unwrap(raw),
                                        observers.get(layer))
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                setattr(owner, name, wrapped)
                undo.append((owner, name, raw))
        yield
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
