"""The pipeline ledger's ``compare`` verdict on synthetic run summaries.

CI's timing gate fails a pull request on ``regressed`` and only reports
``unresolved``, so the verdict logic is pinned here.  The ledger lives
outside the package; it is loaded by path.
"""

import importlib.util
import pathlib

import pytest

LEDGER = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "ledger" / "ledger.py")


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger_under_test",
                                                  LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LOWER = {"better": "lower", "bound": 0.24}
HIGHER = {"better": "higher", "bound": 0.24}


@pytest.mark.parametrize("spec, a, b, expected", [
    # Small moves either way stay within the bound.
    (LOWER, [100, 101, 102], [105, 106, 107], "ok"),
    (HIGHER, [60, 61, 62], [55, 56, 57], "ok"),
    # Tight runs, worse by more than the bound.
    (LOWER, [100, 101, 102], [140, 141, 142], "regressed"),
    (HIGHER, [60, 61, 62], [40, 41, 42], "regressed"),
    # Either side of the bound itself.
    (LOWER, [100, 100, 100], [123, 123, 123], "ok"),
    (LOWER, [100, 100, 100], [125, 125, 125], "regressed"),
    # One side's quartile spread exceeds the bound and the runs overlap.
    (LOWER, [50, 100, 200], [140, 141, 142], "unresolved"),
    (HIGHER, [60, 61, 62], [20, 40, 80], "unresolved"),
    # Separation only rescues a better B: worse on every run but inside
    # A's wide spread is still unresolved.
    (LOWER, [50, 100, 200], [210, 220, 230], "unresolved"),
    # A wide spread, but every run of B beats every run of A.
    (LOWER, [50, 100, 200], [30, 35, 40], "ok"),
    (HIGHER, [20, 40, 80], [90, 95, 100], "ok"),
], ids=["ok-lower", "ok-higher", "regressed-lower", "regressed-higher",
        "inside-bound", "past-bound", "unresolved-lower",
        "unresolved-higher", "worse-in-wide-spread", "separated-lower",
        "separated-higher"])
def test_verdict(ledger, spec, a, b, expected):
    worse, outcome = ledger.verdict(ledger.summarize(a),
                                    ledger.summarize(b), spec)
    assert outcome == expected
    medians = (ledger.percentile(a, 50), ledger.percentile(b, 50))
    change = (medians[1] - medians[0]) / medians[0]
    assert worse == pytest.approx(change if spec["better"] == "lower"
                                  else -change)

