"""An exploration result keeps its APK's text, not its decoded model,
and a process sweep ships it home compact.

The decoded smali is the static phase's working state: without a
static cache, the model ``extract_static_info`` decodes dies when it
returns, and a result's ``info.decoded`` is decoded again from
``info.source`` only if something reads it.
"""

import gc
import pickle
import tracemalloc
import weakref

import pytest

from repro.apk import build_apk
from repro.bench.parallel import explore_many, explore_one
from repro.corpus import TABLE1_PLANS, build_app
from repro.corpus.synth import AppPlan
from repro.smali.apktool import Apktool
from repro.static.extractor import extract_static_info

LARGE_APP = AppPlan("com.scale.a200f150", visited_activities=200,
                    visited_fragments=150)

#: What one large-app outcome may keep alive, by tracemalloc: its
#: AFTM, records and APK text, but no decoded model (which alone is
#: over 3 MB of it).
LARGE_APP_RETAINED_BYTES = 3_500_000

#: What one 15-app Table-I process pass ships home: its outcomes'
#: pickles, and what they keep alive once unpickled in the parent
#: (1,552 KB and 3.64 MB before the APK text crossed deflated and the
#: records pickled by position).
TABLE1_PICKLED_BYTES = 700_000
TABLE1_RETAINED_BYTES = 2_500_000


@pytest.fixture
def decoded_models(monkeypatch):
    """A weak reference to every model ``Apktool.decode`` returns."""
    models = []
    decode = Apktool.decode

    def recording(self, apk):
        decoded = decode(self, apk)
        models.append(weakref.ref(decoded))
        return decoded

    monkeypatch.setattr(Apktool, "decode", recording)
    return models


def test_the_extractions_model_dies_when_it_returns(decoded_models):
    info = extract_static_info(build_apk(build_app(TABLE1_PLANS[0])))
    gc.collect()
    assert len(decoded_models) == 1
    assert decoded_models[0]() is None
    assert "decoded" not in info.__dict__
    # Read on demand, from the kept text.
    assert info.decoded.source.smali_files is info.source.smali_files
    assert len(decoded_models) == 2


@pytest.mark.parametrize("plan", [TABLE1_PLANS[0], LARGE_APP],
                         ids=lambda plan: plan.package)
def test_an_explored_result_pins_no_decoded_model(plan, decoded_models):
    outcome = explore_one(plan)
    assert outcome.ok, outcome.error
    gc.collect()
    assert len(decoded_models) == 1
    assert decoded_models[0]() is None
    assert "decoded" not in outcome.result.info.__dict__
    assert outcome.result.info.source is not None


def test_a_large_app_outcome_retains_no_decoded_model():
    # A first pass fills the process-wide tables every app shares.
    explore_one(LARGE_APP)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = explore_one(LARGE_APP)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert outcome.ok, outcome.error
    assert retained <= LARGE_APP_RETAINED_BYTES, retained


def test_a_table1_process_pass_ships_compact_results():
    outcomes = explore_many(TABLE1_PLANS, max_workers=2, backend="process")
    assert all(outcome.ok for outcome in outcomes.values())
    # What each worker sent: nothing in the parent read these yet.
    shipped = [pickle.dumps(outcome) for outcome in outcomes.values()]
    del outcomes
    assert sum(map(len, shipped)) <= TABLE1_PICKLED_BYTES
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        received = [pickle.loads(data) for data in shipped]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(received) == len(TABLE1_PLANS)
    assert retained <= TABLE1_RETAINED_BYTES, retained
