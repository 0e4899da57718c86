"""The pipeline ledger: end-to-end and per-layer costs of the reproduction.

From the repository root::

    # one workload, as BENCHMARK.json's command runs it
    python3 benchmarks/ledger/ledger.py --workload table1 --seed 2018 \\
        --seconds 10 --trace 0

    # every workload, one after another
    python3 benchmarks/ledger/ledger.py run [--seed N] [--repeat R] \\
        [--out FILE] [--traced]

    # two saved run files, metric by metric, against BENCHMARK.json's bounds
    python3 benchmarks/ledger/ledger.py compare A.json B.json

    # rewrite expected.json from the code at hand
    python3 benchmarks/ledger/ledger.py expected

Every workload runs in fresh interpreters (``workloads.py``) with the
sweep environment overrides cleared and every registry, journal, cache
and temp directory pointed inside ``.ledger_tmp/``.  Set-up is sampled
:data:`SETUPS` times, each in its own interpreter, and reported as the
median.  The last line of a single-workload run is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any failed operation
makes the exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
WORKER = HERE / "workloads.py"

#: Fresh interpreters whose set-up times make up ``setup_s``.
SETUPS = 3
#: Wall-clock cap on one workload's interpreters together.
WORKLOAD_TIMEOUT_S = 170.0
_CLEARED_ENV = ("FRAGDROID_WORKERS", "FRAGDROID_SWEEP_BACKEND",
                "FRAGDROID_SERVE_URL")


class LedgerError(Exception):
    """The ledger could not produce a result."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` 50 is the median)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def metric_specs(spec: Dict, traced: bool) -> Dict[str, Dict]:
    return {m["name"]: m
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_info() -> Dict:
    """What a result records about where it was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


@contextlib.contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory under the checkout's ``.ledger_tmp/``, removed
    (with ``.ledger_tmp/`` once empty) on exit."""
    parent = ROOT / ".ledger_tmp"
    parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def _child_env(tmp: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in _CLEARED_ENV
           and not key.startswith("FRAGDROID_CHAOS_KILL")}
    env.update(PYTHONPATH=str(ROOT / "src"),
               FRAGDROID_RUNS_DIR=str(tmp / "runs"),
               FRAGDROID_SERVE_DIR=str(tmp / "serve"),
               FRAGDROID_CACHE_DIR=str(tmp / "cache"),
               TMPDIR=str(tmp))
    return env


def _spawn(args: List[str], tmp: Path, deadline: float) -> Dict:
    """Run one worker interpreter; its parsed result line."""
    tmp.mkdir(parents=True)
    command = [sys.executable, str(WORKER), *args, "--tmp", str(tmp),
               "--spawned-at", repr(time.time())]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT), env=_child_env(tmp)) as proc:
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise LedgerError(f"worker timed out: {' '.join(args)}")
    result = None
    for line in out.splitlines():
        if line.startswith("LEDGER-RESULT "):
            result = json.loads(line[len("LEDGER-RESULT "):])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or result is None:
        raise LedgerError(f"worker exited {proc.returncode}: "
                          f"{' '.join(args)}")
    return result


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spans_path: Optional[str] = None) -> Dict:
    """Measure one workload; its result with medians and quartiles."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise LedgerError(f"no program to measure under {ROOT / 'src'}")
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(traced))]
    with scratch_dir() as tmp:
        samples = [_spawn(args + ["--setup-only"], tmp / f"setup{i}",
                          deadline)
                   for i in range(0 if traced else SETUPS - 1)]
        main = _spawn(args + (["--spans", spans_path] if spans_path else []),
                      tmp / "main", deadline)
    samples.append(main)
    metrics = main["metrics"]
    if traced:
        metrics = {key: {"value": value} for key, value in metrics.items()}
    else:
        setups = [sample["setup_s"] for sample in samples]
        metrics["setup_s"] = {"value": percentile(setups, 50),
                              "q1": percentile(setups, 25),
                              "q3": percentile(setups, 75),
                              "n": len(setups)}
    attempted = sum(sample["attempted"] for sample in samples)
    failed = sum(sample["failed"] for sample in samples)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "reference_s": main["reference_s"]}


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_metric(name: str, entry: Dict, unit: str) -> str:
    line = f"  {name:42} {entry['value']:>14.6g} {unit}"
    if "q1" in entry:
        line += f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
    if "pct" in entry:
        line += f"  p{entry['pct']}"
    if "n" in entry:
        line += f"  n={entry['n']}"
    return line


def print_result(name: str, result: Dict, specs: Dict[str, Dict]) -> None:
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed")
    for metric, spec in specs.items():
        entry = result["metrics"].get(metric)
        if entry is not None:
            print(_format_metric(metric, entry, spec["unit"]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_single(args: argparse.Namespace) -> int:
    """One workload, ending with the one-line JSON result that
    BENCHMARK.json's command is read by."""
    traced = bool(args.trace)
    specs = metric_specs(load_spec(), traced)
    result = run_workload(args.workload, args.seed, args.seconds, traced,
                          args.spans)
    print(json.dumps(run_info()))
    print_result(args.workload, result, specs)
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {name: {"value": result["metrics"][name]["value"],
                              "unit": spec["unit"]}
                       for name, spec in specs.items()}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def cmd_run(args: argparse.Namespace) -> int:
    """Every workload at BENCHMARK.json's run length, ``--repeat`` times
    each (seeds seed, seed + 1, ...)."""
    spec = load_spec()
    specs = metric_specs(spec, args.traced)
    record = {"schema": 1, **run_info(), "seed": args.seed,
              "traced": args.traced, "workloads": {}}
    print(json.dumps({key: record[key]
                      for key in ("commit", "nproc", "python", "seed")}))
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = record["workloads"][name] = []
        for seed in range(args.seed, args.seed + args.repeat):
            started = time.monotonic()
            result = run_workload(name, seed, spec["run_seconds"],
                                  args.traced)
            result.update(seed=seed, elapsed_s=time.monotonic() - started)
            runs.append(result)
            print_result(f"{name} (seed {seed})", result, specs)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n",
                                  encoding="utf-8")
    return 0 if all(run["correct"] for runs in record["workloads"].values()
                    for run in runs) else 1


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one metric across runs."""
    return {"value": percentile(values, 50), "q1": percentile(values, 25),
            "q3": percentile(values, 75), "min": min(values),
            "max": max(values)}


def verdict(a: Dict, b: Dict, spec: Dict) -> tuple:
    """(delta, verdict) of B against A for one metric's run summaries.

    ``delta`` is the share by which B's median is worse than A's
    (negative when better).  The verdict is "unresolved" when either
    side's run-to-run quartile spread exceeds the bound, unless every
    run of B reads better than every run of A.
    """
    lower = spec["better"] == "lower"
    worse = (b["value"] - a["value"]) / a["value"]
    if not lower:
        worse = -worse
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    separated = b["max"] < a["min"] if lower else b["min"] > a["max"]
    if spread > spec["bound"] and not separated:
        return worse, "unresolved"
    return worse, "regressed" if worse > spec["bound"] else "ok"


def cmd_compare(args: argparse.Namespace) -> int:
    """Both sides' medians and quartiles across their runs, the delta,
    the bound and a verdict per workload and end-to-end metric."""
    specs = metric_specs(load_spec(), traced=False)
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    for label, path, record in (("A", args.a, a), ("B", args.b, b)):
        print(f"{label}: {path} (commit {record['commit'][:12]}, "
              f"nproc {record['nproc']})")
    print(f"{'workload':10} {'metric':12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict")
    regressed = False
    for workload, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(workload, [])
        for name, spec in specs.items():
            values_a = [r["metrics"][name]["value"] for r in runs_a
                        if name in r["metrics"]]
            values_b = [r["metrics"][name]["value"] for r in runs_b
                        if name in r["metrics"]]
            if not values_a or not values_b:
                print(f"{workload:10} {name:12} missing")
                continue
            sa, sb = summarize(values_a), summarize(values_b)
            worse, outcome = verdict(sa, sb, spec)
            regressed |= outcome == "regressed"
            cells = [f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                     for s in (sa, sb)]
            print(f"{workload:10} {name:12} {cells[0]:>30} {cells[1]:>30} "
                  f"{worse:>+8.1%} {spec['bound']:>6.0%}  {outcome}")
    return 1 if regressed else 0


def cmd_expected(args: argparse.Namespace) -> int:
    """Rewrite expected.json from the program's current outputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    with scratch_dir() as tmp:
        expected = workloads.expected_outputs(tmp)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        description="The pipeline ledger (see the module docstring).")
    if argv[:1] == ["run"]:
        parser.add_argument("command")
        parser.add_argument("--seed", type=int, default=2018)
        parser.add_argument("--repeat", type=int, default=1,
                            help="runs per workload, seeds seed, seed+1, ...")
        parser.add_argument("--out", default=None)
        parser.add_argument("--traced", action="store_true",
                            help="report per-layer metrics instead")
        func = cmd_run
    elif argv[:1] == ["compare"]:
        parser.add_argument("command")
        parser.add_argument("a")
        parser.add_argument("b")
        func = cmd_compare
    elif argv[:1] == ["expected"]:
        parser.add_argument("command")
        func = cmd_expected
    else:
        parser.add_argument("--workload", required=True, choices=[
            workload["name"] for workload in load_spec()["workloads"]])
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--spans", default=None,
                            help="write the traced run's spans as JSONL")
        func = cmd_single
    args = parser.parse_args(argv)
    try:
        return func(args)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
