"""What a StaticInfo carries across the process-sweep boundary.

A worker ships the APK text its ``decoded`` model came from, not the
decoded object graph; the receiving process decodes that text on the
first read of ``.decoded``.  The round trip must give back an equal
model, carry nothing of the runtime spec, leave the parent's sweep
decode-free and explain a process sweep exactly like a thread sweep.
"""

import os
import pickle

import pytest

from repro.apk import build_apk
from repro.bench.parallel import explore_many
from repro.corpus import TABLE1_PLANS, build_app
from repro.corpus.synth import AppPlan
from repro.obs.attribution import explain_outcomes
from repro.smali.apktool import Apktool
from repro.static.extractor import extract_static_info
from repro.static.triggers import trigger_map_of

PLANS = [*TABLE1_PLANS,
         AppPlan("com.scale.a200f150", visited_activities=200,
                 visited_fragments=150)]


def _info(plan):
    return extract_static_info(build_apk(build_app(plan)))


@pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.package)
def test_a_pickled_info_decodes_back_to_an_equal_model(plan):
    info = _info(plan)
    data = pickle.dumps(info)
    # Only the text crosses: no spec object, no spec field.
    assert b"AppSpec" not in data
    assert b"_spec" not in data
    assert b"repro.apk.appspec" not in data
    copy = pickle.loads(data)
    assert "decoded" not in copy.__dict__
    assert copy.decoded == info.decoded
    assert copy.decoded.source is not None
    # The decode shares the shipped text; it holds no second copy.
    shipped = copy.__dict__["_decoded_source"]
    for artifact in ("smali_files", "layout_files", "manifest_xml",
                     "public_xml"):
        assert getattr(copy.decoded.source, artifact) is getattr(
            shipped, artifact)


def test_an_unread_copy_pickles_its_source_again():
    info = _info(TABLE1_PLANS[0])
    twice = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(info))))
    assert twice.decoded == info.decoded


def test_the_trigger_map_memo_stays_behind():
    info = _info(TABLE1_PLANS[0])
    assert trigger_map_of(info) is not None
    data = pickle.dumps(info)
    assert b"_trigger_map_cache" not in data
    assert trigger_map_of(pickle.loads(data)) is not None


def test_an_info_without_a_decoded_model_stays_without_one():
    info = _info(TABLE1_PLANS[0])
    info.decoded = None
    copy = pickle.loads(pickle.dumps(info))
    assert copy.decoded is None
    assert trigger_map_of(copy) is None


@pytest.fixture
def parent_decodes(monkeypatch):
    """Packages ``Apktool.decode`` ran on in this process (forked
    workers inherit the wrapper but count under their own pid)."""
    parent = os.getpid()
    decoded = []
    decode = Apktool.decode

    def counting(self, apk):
        if os.getpid() == parent:
            decoded.append(apk.package)
        return decode(self, apk)

    monkeypatch.setattr(Apktool, "decode", counting)
    return decoded


def test_a_process_sweep_decodes_nothing_in_the_parent(parent_decodes):
    outcomes = explore_many(TABLE1_PLANS, max_workers=2, backend="process")
    assert all(outcome.ok for outcome in outcomes.values())
    assert parent_decodes == []
    # Attribution reads .decoded: one decode per app, then memoized.
    explain_outcomes(outcomes)
    explain_outcomes(outcomes)
    assert sorted(parent_decodes) == sorted(outcomes)


def test_a_process_sweep_explains_byte_for_byte_like_a_thread_sweep():
    explanations = {
        backend: explain_outcomes(explore_many(
            TABLE1_PLANS, max_workers=2, backend=backend)).to_json()
        for backend in ("thread", "process")
    }
    assert explanations["process"] == explanations["thread"]
