"""Byte-identical static outputs against a committed golden fixture.

``golden/static_outputs.json`` was captured from the pipeline *before*
the profile-driven rewrite (single-pass lexer, fused pattern scanner,
interned symbols, batched digests).  Every Table-I app, a 60-app
market sample and the pipeline ledger's 200-activity large app must
still produce the exact same APK digests and the exact same canonical
``StaticInfo`` serialization — the optimizations
are only allowed to change how fast the answers arrive, never the
answers.  Regenerate the fixture only for *intentional* model changes.
"""

import hashlib
import json
import pathlib

import pytest

from repro.apk.builder import build_apk
from repro.bench.parallel import sweep
from repro.corpus.market import generate_market
from repro.corpus.synth import AppPlan, build_app
from repro.corpus.table1_apps import build_table1_app, table1_packages
from repro.static.cache import static_info_to_dict
from repro.static.extractor import extract_static_info

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "static_outputs.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _static_sha(info) -> str:
    canonical = json.dumps(static_info_to_dict(info), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("package", sorted(GOLDEN["table1"]))
def test_table1_outputs_byte_identical(package):
    golden = GOLDEN["table1"][package]
    apk = build_apk(build_table1_app(package))
    assert apk.digest() == golden["apk_digest"]
    info = extract_static_info(apk)
    assert len(info.activities) == golden["activities"]
    assert len(info.fragments) == golden["fragments"]
    assert len(info.aftm.edges) == golden["edges"]
    assert _static_sha(info) == golden["static_sha256"]


def test_market_sample_outputs_byte_identical():
    apps = {app.package: app for app in generate_market(count=60, seed=2018)}
    assert set(apps) == set(GOLDEN["market"])
    for package, golden in sorted(GOLDEN["market"].items()):
        apk = apps[package].build()
        assert apk.digest() == golden["apk_digest"], package
        if golden.get("packed"):
            continue
        info = extract_static_info(apk)
        assert _static_sha(info) == golden["static_sha256"], package


def test_market_sample_outputs_byte_identical_on_a_thread_sweep():
    """Four threads build and analyse the sample at once: each build
    and each decode interns into tables of its own, and no app's
    entries may leak into another's output."""

    def digests(app):
        apk = app.build()
        if apk.packed:
            return apk.digest(), None
        return apk.digest(), _static_sha(extract_static_info(apk))

    apps = generate_market(count=60, seed=2018)
    run = sweep(apps, digests, key=lambda app: app.package, max_workers=4,
                backend="thread")
    assert run.meta == {"backend": "thread", "workers": 4}
    for package, golden in sorted(GOLDEN["market"].items()):
        apk_digest, static_sha = run.outcomes[package].unwrap()
        assert apk_digest == golden["apk_digest"], package
        if not golden.get("packed"):
            assert static_sha == golden["static_sha256"], package


def test_large_app_outputs_byte_identical():
    # The large app of benchmarks/ledger (workload "large-app").
    plan = AppPlan("com.scale.a200f150", visited_activities=200,
                   visited_fragments=150)
    golden = GOLDEN["large_app"][plan.package]
    apk = build_apk(build_app(plan))
    assert apk.digest() == golden["apk_digest"]
    info = extract_static_info(apk)
    assert len(info.activities) == golden["activities"]
    assert len(info.fragments) == golden["fragments"]
    assert len(info.aftm.edges) == golden["edges"]
    assert _static_sha(info) == golden["static_sha256"]
