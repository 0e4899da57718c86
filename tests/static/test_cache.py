"""The content-addressed static-analysis cache."""

import gc
import json
import sys
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.apk.package import ApkPackage
from repro.bench.parallel import explore_many
from repro.corpus import TABLE1_PLANS, build_app
from repro.errors import PackedApkError
from repro.obs.attribution import classify_result, explain_outcomes
from repro.smali import assemble
from repro.smali.apktool import Apktool
from repro.static import extract_static_info
from repro.static.cache import (
    CACHE_SCHEMA,
    StaticCache,
    default_cache_dir,
    static_info_from_dict,
    static_info_to_dict,
)
from tests.conftest import make_demo_spec
from tests.core.test_golden_exploration import result_entry


@pytest.fixture
def cache(tmp_path):
    return StaticCache(directory=tmp_path / "cache")


def _demo_apk(package: str = "com.example.demo"):
    return build_apk(make_demo_spec(package))


@pytest.fixture
def analysis_calls(monkeypatch):
    """Calls of ``Apktool.decode`` and of the smali lexer (class headers
    and method bodies alike) made in this process."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(Apktool, "decode")
    count(assemble, "_lex")
    return calls


# ---------------------------------------------------------------------------
# The digest
# ---------------------------------------------------------------------------

def test_digest_is_stable():
    assert _demo_apk().digest() == _demo_apk().digest()


def test_digest_ignores_dict_build_order():
    apk = _demo_apk()
    shuffled = ApkPackage(
        package=apk.package,
        version_name=apk.version_name,
        manifest_xml=apk.manifest_xml,
        smali_files=dict(reversed(list(apk.smali_files.items()))),
        layout_files=dict(reversed(list(apk.layout_files.items()))),
        public_xml=apk.public_xml,
        packed=apk.packed,
    )
    assert apk.digest() == shuffled.digest()


def test_any_byte_mutation_changes_digest():
    apk = _demo_apk()
    base = apk.digest()
    name, body = next(iter(apk.smali_files.items()))
    apk.smali_files[name] = body + " "
    assert apk.digest() != base
    apk.smali_files[name] = body
    assert apk.digest() == base
    apk.manifest_xml += "\n"
    assert apk.digest() != base


@pytest.fixture
def hashed_packages(monkeypatch, tmp_path):
    """The package of every ``ApkPackage`` hashed from here on, in any
    process: worker processes fork with the patch and append to one
    file.  Idle pools are dropped before and after, so no worker runs
    unpatched code here or patched code later."""
    from repro.bench.parallel import _drop_idle_pools

    log = tmp_path / "hashed.log"
    log.touch()
    original = ApkPackage._digest_payload

    def counted(self):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(self.package + "\n")
        return original(self)

    _drop_idle_pools()
    monkeypatch.setattr(ApkPackage, "_digest_payload", counted)
    yield lambda: Counter(log.read_text(encoding="utf-8").split())
    _drop_idle_pools()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_cached_sweep_hashes_each_apk_once(tmp_path, hashed_packages,
                                             backend):
    plans = TABLE1_PLANS[:3]
    config = FragDroidConfig(static_cache=StaticCache(tmp_path / "cache"))
    outcomes = explore_many(plans, config=config, max_workers=2,
                            backend=backend)
    assert all(outcome.ok for outcome in outcomes.values())
    assert all(outcome.apk_digest for outcome in outcomes.values())
    assert hashed_packages() == {plan.package: 1 for plan in plans}


def test_a_serve_job_hashes_each_apk_once(tmp_path, hashed_packages):
    from tests.serve.test_scheduler import (
        DEMO_APPS,
        make_scheduler,
        submit_demo_job,
    )

    scheduler = make_scheduler(tmp_path)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == "done"
    assert scheduler.tracer.metrics.counter("static.cache.miss") == 3
    assert hashed_packages() == {package: 1 for package in DEMO_APPS}


def _bump_and_note(directory, tag, times):
    cache = StaticCache(directory)
    for index in range(times):
        cache.count_lookups(hits=1)
        cache.store_notes("race", {f"{tag}-{index}": "noted"})


def test_processes_sharing_a_directory_keep_every_update(tmp_path):
    """Processes bumping the tallies and merging notes through one
    directory lose none of each other's updates."""
    import multiprocessing

    times, tags = 100, ("a", "b", "c")
    context = multiprocessing.get_context("spawn")
    workers = [context.Process(target=_bump_and_note,
                               args=(tmp_path, tag, times))
               for tag in tags]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [0] * len(tags)
    total = len(tags) * times
    assert StaticCache.persistent_stats(tmp_path) == {"hits": total,
                                                      "stores": total}
    assert len(StaticCache(tmp_path).load_notes("race")) == total


def test_stats_on_an_unwritable_directory_stay_in_memory(tmp_path):
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    cache = StaticCache(blocked / "cache")
    cache.count_lookups(hits=2, misses=1)
    assert (cache.hits, cache.misses) == (2, 1)
    assert StaticCache.persistent_stats(blocked / "cache") == {}


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("FRAGDROID_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("FRAGDROID_CACHE_DIR")
    assert default_cache_dir().name == "fragdroid"


# ---------------------------------------------------------------------------
# Hit equivalence
# ---------------------------------------------------------------------------

def _assert_same_model(cold, warm):
    assert warm.package == cold.package
    assert warm.aftm.entry == cold.aftm.entry
    assert warm.aftm.nodes == cold.aftm.nodes
    assert warm.aftm.edges == cold.aftm.edges
    assert warm.aftm.visited == cold.aftm.visited
    assert warm.activities == cold.activities
    assert warm.fragments == cold.fragments
    assert warm.fragment_hosts == cold.fragment_hosts
    assert warm.dependency == cold.dependency
    assert (sorted(warm.input_dep.known_widgets)
            == sorted(cold.input_dep.known_widgets))
    assert warm.uses_manager == cold.uses_manager
    assert warm.support_library == cold.support_library
    assert warm.static_api_map == cold.static_api_map
    assert warm.view_components_json == cold.view_components_json


def test_hit_returns_equal_static_info(cache, analysis_calls):
    cold = extract_static_info(_demo_apk(), cache=cache)
    assert analysis_calls["decode"] == 1    # the miss analyzed for real
    apk = _demo_apk()
    analysis_calls.clear()
    warm = extract_static_info(apk, cache=cache)
    assert analysis_calls == Counter()      # the hit skipped decoding
    assert warm.decoded == cold.decoded
    _assert_same_model(cold, warm)
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1


def test_hits_hydrate_independent_models(cache):
    first = extract_static_info(_demo_apk(), cache=cache)
    second = extract_static_info(_demo_apk(), cache=cache)
    assert first.aftm is not second.aftm
    # Mutating one run's model (as the explorer does) must not leak
    # into the next cache-served run.
    second.aftm.mark_visited(next(iter(second.aftm.nodes)))
    third = extract_static_info(_demo_apk(), cache=cache)
    assert third.aftm.visited == first.aftm.visited


def test_input_values_reapplied_on_hit(cache):
    values = {"password": "hunter2"}
    cold = extract_static_info(_demo_apk(), input_values=values, cache=cache)
    warm = extract_static_info(_demo_apk(), input_values=values, cache=cache)
    assert warm.input_dep.value_for("password") \
        == cold.input_dep.value_for("password")
    # A hit without values gets the pristine template back.
    plain = extract_static_info(_demo_apk(), cache=cache)
    assert plain.input_dep.value_for("password") \
        != warm.input_dep.value_for("password")


def test_cache_counters_traced(cache):
    from repro.obs import Tracer

    tracer = Tracer()
    extract_static_info(_demo_apk(), tracer=tracer, cache=cache)
    extract_static_info(_demo_apk(), tracer=tracer, cache=cache)
    assert tracer.metrics.counter("static.cache.miss") == 1
    assert tracer.metrics.counter("static.cache.store") == 1
    assert tracer.metrics.counter("static.cache.hit") == 1


# ---------------------------------------------------------------------------
# Miss paths
# ---------------------------------------------------------------------------

def test_mutated_apk_misses(cache):
    extract_static_info(_demo_apk(), cache=cache)
    mutated = _demo_apk()
    name = next(iter(mutated.smali_files))
    mutated.smali_files[name] += "\n# patched"
    extract_static_info(mutated, cache=cache)
    assert cache.hits == 0 and cache.misses == 2


def test_corrupted_entry_reads_as_miss(cache):
    apk = _demo_apk()
    extract_static_info(apk, cache=cache)
    entry = cache._entry_path(apk.digest())
    assert entry.exists()
    entry.write_text("{ not json", encoding="utf-8")
    fresh = StaticCache(directory=cache.directory)
    info = extract_static_info(_demo_apk(), cache=fresh)
    assert fresh.hits == 0 and fresh.misses == 1
    assert info.decoded is not None


def test_structurally_broken_entry_reads_as_miss(cache):
    apk = _demo_apk()
    extract_static_info(apk, cache=cache)
    entry = cache._entry_path(apk.digest())
    payload = json.loads(entry.read_text(encoding="utf-8"))
    del payload["static_info"]["aftm"]
    entry.write_text(json.dumps(payload), encoding="utf-8")
    fresh = StaticCache(directory=cache.directory)
    assert fresh.lookup(apk.digest()) is None


def _set(field, value):
    def damage(payload):
        payload["static_info"][field] = value
    return damage


def _edit_first_edge(edit):
    def damage(payload):
        edges = payload["static_info"]["aftm"]["edges"]
        edges[0] = edit(edges[0])
    return damage


def _schema_1(payload):
    """Rewrite an entry in the schema-1 format: ``[kind, name]`` node
    pairs, list edges and list resource rows."""
    info = payload["static_info"]
    aftm = info["aftm"]
    kinds = {name: "activity" for name in aftm["activities"]}
    kinds.update((name, "fragment") for name in aftm["fragments"])
    info["aftm"] = {
        "package": aftm["package"],
        "entry": ["activity", aftm["entry"]],
        "nodes": sorted([kind, name] for name, kind in kinds.items()),
        "edges": [[[e["src_kind"], e["src"]], [e["dst_kind"], e["dst"]],
                   e["host"], e["trigger"]] for e in aftm["edges"]],
        "visited": sorted([kinds[name], name] for name in aftm["visited"]),
    }
    info["resource_dep"] = [[row["widget_id"], row["resource_value"],
                             row["activity"], row["fragment"]]
                            for row in info["resource_dep"]]
    payload["schema"] = 1


def _schema_1_labelled_current(payload):
    _schema_1(payload)
    payload["schema"] = CACHE_SCHEMA


@pytest.mark.parametrize("damage", [
    _set("static_api_map", []),
    _set("view_components_json", 7),
    _set("aftm", 3),
    _edit_first_edge(lambda edge: [edge["src"]]),
    _edit_first_edge(lambda edge: {**edge, "dst_kind": "service"}),
    _set("activities", 5),
    _set("uses_manager", "yes"),
    _set("resource_dep", [["btn", 1, "A", None]]),
    _set("resource_dep", [{"widget_id": "btn", "resource_value": True,
                           "activity": "A", "fragment": None}]),
    _schema_1,
    _schema_1_labelled_current,
    lambda payload: payload.update(schema=str(CACHE_SCHEMA)),
    lambda payload: payload.update(schema=CACHE_SCHEMA + 0.5),
], ids=["api-map-list", "view-components-number", "aftm-number",
        "one-element-edge", "unknown-node-kind", "activities-number",
        "uses-manager-text", "resource-row-list", "resource-value-bool",
        "schema-1", "schema-1-form-as-current", "schema-text",
        "schema-fraction"])
def test_an_entry_with_a_damaged_field_counts_as_a_miss(cache, damage):
    apk = _demo_apk()
    extract_static_info(apk, cache=cache)
    entry = cache._entry_path(apk.digest())
    payload = json.loads(entry.read_text(encoding="utf-8"))
    damage(payload)
    entry.write_text(json.dumps(payload), encoding="utf-8")
    fresh = StaticCache(directory=cache.directory)
    assert fresh.lookup(apk.digest()) is None
    assert fresh.hits == 0 and fresh.misses == 1
    assert fresh.stats()["memory_entries"] == 0  # refused, not kept
    info = extract_static_info(_demo_apk(), cache=fresh)
    assert fresh.hits == 0 and fresh.misses == 2
    assert info.decoded is not None


def test_other_schema_reads_as_miss(cache):
    apk = _demo_apk()
    extract_static_info(apk, cache=cache)
    entry = cache._entry_path(apk.digest())
    payload = json.loads(entry.read_text(encoding="utf-8"))
    payload["schema"] = CACHE_SCHEMA + 1
    entry.write_text(json.dumps(payload), encoding="utf-8")
    fresh = StaticCache(directory=cache.directory)
    assert fresh.lookup(apk.digest()) is None


def test_packed_apk_never_cached(cache):
    spec = make_demo_spec()
    spec.packed = True
    with pytest.raises(PackedApkError):
        extract_static_info(build_apk(spec), cache=cache)
    assert cache.misses == 0 and cache.stores == 0
    assert cache.stats()["disk_entries"] == 0


# ---------------------------------------------------------------------------
# Fuzz: any damage to an entry is a valid hit or a counted miss
# ---------------------------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_FIELDS = [(key,) for key in (
    "package", "aftm", "activities", "fragments", "fragment_hosts",
    "dependency", "resource_dep", "input_widgets", "uses_manager",
    "support_library", "static_api_map", "view_components_json")] + [
    ("aftm", key) for key in ("package", "entry", "activities",
                              "fragments", "visited", "edges")] + [
    ("aftm", "edges", 0), ("resource_dep", 0)]


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A directory holding the demo app's entry, and that entry."""
    directory = tmp_path_factory.mktemp("fuzzed")
    apk = _demo_apk()
    extract_static_info(apk, cache=StaticCache(directory))
    entry = StaticCache(directory)._entry_path(apk.digest())
    return directory, apk.digest(), json.loads(entry.read_text())


def _hit_or_counted_miss(stored, static_info) -> None:
    directory, digest, payload = stored
    cache = StaticCache(directory)
    cache._entry_path(digest).write_text(
        json.dumps({**payload, "static_info": static_info}))
    before = StaticCache.persistent_stats(directory)
    info = cache.lookup(digest)
    outcome = "misses" if info is None else "hits"
    assert (cache.hits + cache.misses, getattr(cache, outcome)) == (1, 1)
    after = StaticCache.persistent_stats(directory)
    assert after[outcome] == before.get(outcome, 0) + 1
    if info is not None:  # a hit is a model that round-trips
        static_info_from_dict(json.loads(json.dumps(
            static_info_to_dict(info))))


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(value=_json)
def test_any_json_entry_is_a_hit_or_a_counted_miss(stored, value):
    _hit_or_counted_miss(stored, value)


@_FUZZ
@given(path=st.sampled_from(_FIELDS), value=_json, drop=st.booleans())
def test_a_damaged_entry_field_is_a_hit_or_a_counted_miss(
        stored, path, value, drop):
    static_info = json.loads(json.dumps(stored[2]["static_info"]))
    *parents, key = path
    holder = static_info
    for parent in parents:
        holder = holder[parent]
    if drop:
        del holder[key]
    else:
        holder[key] = value
    _hit_or_counted_miss(stored, static_info)


def test_the_undamaged_entry_hits(stored):
    directory, digest, payload = stored
    _hit_or_counted_miss(stored, payload["static_info"])
    assert StaticCache(directory).lookup(digest) is not None


# ---------------------------------------------------------------------------
# Tiers, stats, maintenance
# ---------------------------------------------------------------------------

def test_memory_only_cache_hits_without_directory(analysis_calls):
    cache = StaticCache()
    cold = extract_static_info(_demo_apk(), cache=cache)
    apk = _demo_apk()
    analysis_calls.clear()
    warm = extract_static_info(apk, cache=cache)
    assert cache.hits == 1
    assert analysis_calls == Counter()
    assert warm.decoded == cold.decoded


def test_lru_evicts_to_disk_tier(tmp_path, analysis_calls):
    cache = StaticCache(directory=tmp_path, memory_entries=1)
    cold = extract_static_info(_demo_apk("com.example.first"), cache=cache)
    extract_static_info(_demo_apk("com.example.second"), cache=cache)
    assert cache.stats()["memory_entries"] == 1
    # The evicted entry still hits through the disk tier.
    apk = _demo_apk("com.example.first")
    analysis_calls.clear()
    warm = extract_static_info(apk, cache=cache)
    assert cache.hits == 1
    assert analysis_calls == Counter()
    assert warm.decoded == cold.decoded


def test_stats_and_clear(tmp_path):
    cache = StaticCache(directory=tmp_path)
    extract_static_info(_demo_apk(), cache=cache)
    extract_static_info(_demo_apk(), cache=cache)
    stats = cache.stats()
    assert stats["disk_entries"] == 1
    assert stats["disk_bytes"] > 0
    assert stats["lifetime_hits"] == 1
    assert stats["lifetime_misses"] == 1
    assert stats["lifetime_stores"] == 1
    assert cache.clear() >= 1
    assert cache.stats()["disk_entries"] == 0
    extract_static_info(_demo_apk(), cache=cache)
    assert cache.misses == 2 and cache.stores == 2


def test_clear_sweeps_crashed_writers_temp_files(tmp_path):
    cache = StaticCache(directory=tmp_path)
    extract_static_info(_demo_apk(), cache=cache)
    # What a writer killed between mkstemp and the rename leaves.
    debris = tmp_path / ".tmp-crashed.json"
    debris.write_text('{"schema": ', encoding="utf-8")
    other = tmp_path / "notes.txt"
    other.write_text("not the cache's", encoding="utf-8")
    assert (tmp_path / ".update.lock").exists()
    assert cache.clear() >= 1
    assert not debris.exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        ".update.lock", "notes.txt"]


def test_rejects_silly_memory_budget():
    with pytest.raises(ValueError):
        StaticCache(memory_entries=0)


def test_exploration_identical_with_warm_cache(tmp_path):
    def explore(config):
        result = FragDroid(Device(), config).explore(_demo_apk())
        return (sorted(result.visited_activities),
                sorted(result.visited_fragments),
                result.stats.events,
                len(result.api_invocations))

    baseline = explore(FragDroidConfig())
    cache = StaticCache(directory=tmp_path)
    cold = explore(FragDroidConfig(static_cache=cache))
    warm = explore(FragDroidConfig(static_cache=cache))
    assert cache.hits == 1
    assert baseline == cold == warm


def test_memory_tier_holds_at_most_memory_entries_decoded_models():
    cache = StaticCache(memory_entries=2)
    models = []
    for index in range(5):
        info = extract_static_info(_demo_apk(f"com.example.app{index}"),
                                   cache=cache)
        models.append(weakref.ref(info.decoded))
        del info
        gc.collect()
        assert sum(ref() is not None for ref in models) \
            <= cache.memory_entries
    assert cache.stats()["memory_entries"] == cache.memory_entries


# ---------------------------------------------------------------------------
# Hits explain and explore like fresh runs
# ---------------------------------------------------------------------------

def _table1_explanation(cache):
    outcomes = explore_many(list(TABLE1_PLANS),
                            config=FragDroidConfig(static_cache=cache),
                            max_workers=2, backend="thread")
    return explain_outcomes(outcomes, label="table1").to_json()


def test_hits_explain_table1_byte_identically_to_fresh_runs(tmp_path):
    fresh = _table1_explanation(None)
    memory = StaticCache()
    _table1_explanation(memory)
    assert _table1_explanation(memory) == fresh
    assert memory.hits == len(TABLE1_PLANS)
    _table1_explanation(StaticCache(tmp_path))
    disk = StaticCache(tmp_path)  # an empty memory tier: hits read disk
    assert _table1_explanation(disk) == fresh
    assert disk.hits == len(TABLE1_PLANS)


def test_threads_racing_one_cache_explore_like_fresh_runs():
    """Eight runs share one cached model, decoded APK included, and
    each explores and explains exactly like a run without a cache."""
    apk = build_apk(build_app(TABLE1_PLANS[0]))

    def explored(config):
        result = FragDroid(Device(), config).explore(apk)
        return (result_entry(result),
                [miss.to_dict() for miss in classify_result(result)])

    fresh = explored(FragDroidConfig())
    cache = StaticCache()
    extract_static_info(apk, cache=cache)
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    seen = [None] * threads_count
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30)
            seen[index] = explored(FragDroidConfig(static_cache=cache))
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(threads_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.hits == threads_count
    assert seen == [fresh] * threads_count
