"""A job's record is its own: the same app explored as the server's
first job and again after an intervening hostile job of that app must
give the same logs, explanation and exploration events."""

import pytest

from repro.bench.parallel import explore_many
from repro.serve import ReproServer, ServeClient

APP = "com.aircrunch.shopalerts"


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_job_record_does_not_depend_on_earlier_jobs(tmp_path, backend):
    result_events = []

    def sweep(plans, **kwargs):
        outcomes = explore_many(plans, **kwargs)
        result_events.append(len(outcomes[APP].result.events))
        return outcomes

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sweep_fn=sweep)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=30.0)
        runs = []
        for profile in ("none", "hostile", "none"):
            job_id = client.submit([APP], max_events=300, backend=backend,
                                   workers=1, fault_profile=profile,
                                   fault_seed=7)["job_id"]
            assert client.wait(job_id, timeout_s=120.0)["state"] == "done"
            logs = client.logs(job_id)
            assert {event["attributes"]["job"] for event in logs} == {job_id}
            runs.append({
                "kinds": [event["kind"] for event in logs],
                "causes": client.explanation(job_id)["cause_census"],
                "result_events": result_events[-1],
            })
    finally:
        server.stop(timeout=2.0)
    first, hostile, again = runs
    # The hostile job quarantined a widget; the clean rerun must not
    # inherit that (nor any other event of the jobs before it).
    assert "blocked-by-quarantine" in hostile["causes"]
    assert again == first
