"""The smali toolchain forgets each app it builds and decodes.

Process-wide interning tables keep only entries that name nothing of a
single app (platform types, registers, labels, resource-id integers);
an app's own entries live in tables owned by its decode and are freed
with it, and a build writes its text without any table.  So the memory
the toolchain retains is set by the platform's vocabulary, not by how
many apps a process has seen.

The check runs over distinct packages, through the usage study's
build-and-classify path and the full ``extract_static_info`` path:
between a checkpoint after 150 apps and one after 450 more, the traced
heap may grow by less than 2 KB per app and no process-wide table (any
module-level dict or ``lru_cache`` of the smali modules) by more than
100 entries.
"""

import gc
import tracemalloc

from repro.apk.builder import build_apk
from repro.bench.runner import _classify_market_app
from repro.corpus.synth import AppPlan, build_app
from repro.smali import apktool, assemble, model
from repro.static.extractor import extract_static_info

FIRST, MORE = 150, 450


class _Built:
    """A usage-study market entry whose APK is already built."""

    def __init__(self, apk) -> None:
        self.apk = apk

    def build(self):
        return self.apk


def _analyse(index: int) -> None:
    # Small shapes keep the test quick; every app gets its own package,
    # so every app class name is new to the process.
    apk = build_apk(build_app(AppPlan(
        package=f"com.bounded.app{index:05d}",
        visited_activities=1 + index % 3,
        login_locked=index % 2,
        visited_fragments=index % 3,
        unmanaged_fragments=int(index % 7 == 3))))
    assert _classify_market_app(_Built(apk)) in ("fragments", "plain")
    info = extract_static_info(apk)
    for cls in info.decoded.classes:
        cls.methods  # every method body parsed


def _table_sizes():
    sizes = {}
    for module in (model, assemble, apktool):
        for name, value in vars(module).items():
            if isinstance(value, dict):
                sizes[f"{module.__name__}.{name}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{module.__name__}.{name}"] = \
                    value.cache_info().currsize
    return sizes


def _checkpoint():
    gc.collect()
    return tracemalloc.get_traced_memory()[0], _table_sizes()


def test_retention_is_bounded_by_the_platform_vocabulary():
    for index in range(20):  # warm: the platform vocabulary is seen
        _analyse(index)
    tracemalloc.start()
    try:
        for index in range(1000, 1000 + FIRST):
            _analyse(index)
        heap_at_first, tables_at_first = _checkpoint()
        for index in range(1000 + FIRST, 1000 + FIRST + MORE):
            _analyse(index)
        heap_at_last, tables_at_last = _checkpoint()
    finally:
        tracemalloc.stop()
    per_app = (heap_at_last - heap_at_first) / MORE
    assert per_app < 2048, f"{per_app:.0f} bytes retained per app"
    grown = {name: size - tables_at_first.get(name, 0)
             for name, size in tables_at_last.items()
             if size - tables_at_first.get(name, 0) > 100}
    assert grown == {}
