"""A faulted run's record holds every fault and retry its degradation
account reports.

The degradation section is counted off the run record, so the record
must be complete: each injected fault is a ``fault.injected`` event
and each retry a ``retry`` event, wherever it happened (a click sweep,
a queue item's test case, a replay, an adb command).  These checks
recount the account from the raw events, independently of
``Degradation.from_record``, over the 15 Table-I apps under both fault
profiles and two seeds.
"""

from collections import Counter

import pytest

from repro.apk.builder import build_apk
from repro.core.config import FragDroidConfig
from repro.core.explorer import FragDroid
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import build_app
from repro.faults import make_device
from repro.obs import EventLog

PROFILES = ("mild", "hostile")
SEEDS = (0, 7)


@pytest.fixture(scope="module")
def apks():
    return {plan.package: build_apk(build_app(plan)) for plan in TABLE1_PLANS}


def _explore(apk, profile, seed, **extra):
    config = FragDroidConfig(fault_profile=profile, fault_seed=seed, **extra)
    device = make_device(config.fault_plan, scope=apk.package)
    return FragDroid(device, config).explore(apk)


def _recount(events) -> dict:
    """The fault and retry figures, counted straight off the events."""
    retries = [event.attributes for event in events if event.kind == "retry"]
    ends = Counter(event.attributes["action"] for event in events
                   if event.kind == "retry.end")
    backoff = 0.0
    for attributes in retries:
        backoff += attributes["delay"]
    return {
        "faults": dict(Counter(event.attributes["fault"] for event in events
                               if event.kind == "fault.injected")),
        "retries": len(retries),
        "recoveries": ends["recover"],
        "giveups": ends["giveup"],
        "backoff_s": round(backoff, 6),
        "reconnects": sum(attributes.get("action") == "reconnect"
                          for attributes in retries),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("package", [plan.package for plan in TABLE1_PLANS])
def test_record_reproduces_the_degradation_account(apks, package, profile,
                                                   seed):
    plain = _explore(apks[package], profile, seed)
    account = plain.degradation.to_dict()
    recount = _recount(plain.events)
    assert recount == {key: account[key] for key in recount}
    # The event log observes the run; the account does not depend on it.
    logged = _explore(apks[package], profile, seed, event_log=EventLog())
    assert logged.degradation.to_dict() == account
