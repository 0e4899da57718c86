"""The usage study over a shared StaticCache (batched digests + notes)."""

import json

import pytest

from repro.bench.runner import run_usage_study
from repro.static.cache import StaticCache


def test_cached_study_matches_uncached(tmp_path):
    cache = StaticCache(directory=tmp_path / "cache")
    plain = run_usage_study(count=40, seed=7)
    cold = run_usage_study(count=40, seed=7, cache=cache)
    warm = run_usage_study(count=40, seed=7, cache=cache)
    assert cold == plain
    assert warm == plain


def test_cold_run_misses_then_warm_run_hits(tmp_path):
    cache = StaticCache(directory=tmp_path / "cache")
    run_usage_study(count=40, seed=7, cache=cache)
    stats = cache.stats()
    assert stats["hits"] == 0
    assert stats["misses"] == 40
    run_usage_study(count=40, seed=7, cache=cache)
    stats = cache.stats()
    assert stats["hits"] == 40
    assert stats["misses"] == 40
    assert stats["hit_rate"] == 0.5


def test_notes_survive_to_a_fresh_cache_instance(tmp_path):
    first = StaticCache(directory=tmp_path / "cache")
    expected = run_usage_study(count=40, seed=7, cache=first)
    fresh = StaticCache(directory=tmp_path / "cache")
    assert run_usage_study(count=40, seed=7, cache=fresh) == expected
    assert fresh.stats()["hits"] == 40
    assert fresh.stats()["misses"] == 0


def test_disjoint_corpora_share_nothing(tmp_path):
    cache = StaticCache(directory=tmp_path / "cache")
    run_usage_study(count=20, seed=7, cache=cache)
    run_usage_study(count=20, seed=8, cache=cache)
    stats = cache.stats()
    assert stats["misses"] == 40  # different seeds, different digests


def _damage_notes(directory, note):
    path = directory / "notes-usage-study.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["notes"] = {digest: note for digest in payload["notes"]}
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("note", [7, None, "bogus"])
def test_damaged_notes_are_misses_classified_again(tmp_path, note):
    """A notes document of the wrong shape reads as no notes, and a
    note no classification writes is a miss: either way the next run
    classifies again and tallies what a run without a cache does."""
    directory = tmp_path / "cache"
    expected = run_usage_study(count=40, seed=2018)
    assert run_usage_study(count=40, seed=2018,
                           cache=StaticCache(directory)) == expected
    _damage_notes(directory, note)
    damaged = StaticCache(directory)
    assert run_usage_study(count=40, seed=2018, cache=damaged) == expected
    assert (damaged.hits, damaged.misses) == (0, 40)
    stats = damaged.stats()
    assert (stats["lifetime_hits"], stats["lifetime_misses"]) == (0, 80)
    # The reclassified notes replaced the damaged ones.
    healed = StaticCache(directory)
    assert run_usage_study(count=40, seed=2018, cache=healed) == expected
    assert (healed.hits, healed.misses) == (40, 0)
