"""The digest-keyed notes side-store and batched lookup counters.

Notes hold small per-APK facts (the usage study's packed/fragments/plain
classification) keyed by package digest, so corpus-wide sweeps answer
from one batched load instead of one full static-info entry per app.
"""

import json

import pytest

from repro.static.cache import CACHE_SCHEMA, StaticCache


@pytest.fixture
def cache(tmp_path):
    return StaticCache(directory=tmp_path / "cache")


def test_notes_round_trip(cache):
    notes = {"d" * 64: "fragments", "e" * 64: "packed"}
    cache.store_notes("usage-study", notes)
    assert cache.load_notes("usage-study") == notes


def test_notes_persist_across_instances(cache, tmp_path):
    cache.store_notes("usage-study", {"a" * 64: "plain"})
    fresh = StaticCache(directory=tmp_path / "cache")
    assert fresh.load_notes("usage-study") == {"a" * 64: "plain"}


def test_notes_merge_instead_of_clobber(cache, tmp_path):
    cache.store_notes("usage-study", {"a" * 64: "plain"})
    other = StaticCache(directory=tmp_path / "cache")
    other.store_notes("usage-study", {"b" * 64: "fragments"})
    merged = StaticCache(directory=tmp_path / "cache")
    assert merged.load_notes("usage-study") == {
        "a" * 64: "plain", "b" * 64: "fragments",
    }


def test_notes_kinds_are_independent(cache):
    cache.store_notes("usage-study", {"a" * 64: "plain"})
    assert cache.load_notes("other-kind") == {}


def test_notes_with_wrong_schema_read_as_empty(cache, tmp_path):
    path = tmp_path / "cache" / "notes-usage-study.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": CACHE_SCHEMA + 1,
                                "notes": {"a" * 64: "plain"}}))
    fresh = StaticCache(directory=tmp_path / "cache")
    assert fresh.load_notes("usage-study") == {}


def test_count_lookups_feeds_hit_rate(cache):
    cache.count_lookups(hits=3, misses=1)
    stats = cache.stats()
    assert stats["hits"] == 3
    assert stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(0.75)
    assert stats["lifetime_hit_rate"] == pytest.approx(0.75)


def test_hit_rate_zero_without_lookups(cache):
    assert cache.stats()["hit_rate"] == 0.0


def test_clear_drops_notes(cache):
    cache.store_notes("usage-study", {"a" * 64: "plain"})
    cache.clear()
    assert cache.load_notes("usage-study") == {}
