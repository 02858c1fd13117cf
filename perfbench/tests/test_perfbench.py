"""Tests of the benchmark itself: its contract, checks and determinism.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use a held-out seed: one that was not among the seeds
(1-10) used to calibrate run length and bounds.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CALIBRATION_SEEDS = range(1, 11)
HELD_OUT_SEED = 7919
VIRTUAL_WORKLOADS = ("inproc-write50", "sim-faults-open")
#: Per-layer metrics that are counts or count ratios: exact under virtual time.
COUNT_METRICS = (
    "strategy.sample.calls_per_op",
    "coordinator.attempts_per_op",
    "coordinator.repairs_per_read",
    "transport.calls_per_op",
    "transport.timeouts_per_op",
    "transport.ops_per_frame",
    "transport.bytes_per_op",
    "replica.writes_ignored_share",
)


def bench(workload, seed, trace, seconds=1, cwd=ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(name) for name in all_names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert tuple(names) == run.WORKLOADS == tuple(workloads.SPECS)


def test_ledger_accepts_only_the_newest_acknowledged_or_a_pending_write():
    ledger = workloads.Ledger()
    ledger.issue("k", "a")
    ledger.ack("k", "a", 1, 0)
    ledger.issue("k", "b")
    ledger.issue("k", "c")
    ledger.ack("k", "c", 3, 1)
    ledger.ack("k", "b", 2, 2)  # acknowledged after a newer write: superseded
    ledger.issue("k", "failed")
    assert ledger.check("k", "c", 3, 1) is None
    assert ledger.check("k", "failed", 4, 0) is None
    assert ledger.check("k", "a", 1, 0) is not None
    assert ledger.check("k", "b", 2, 2) is not None
    assert ledger.check("k", "c", 3, 2) is not None
    assert ledger.check("k", "failed", 2, 5) is not None
    assert ledger.check("k", "never", 9, 9) is not None
    assert len(ledger.live["k"]) == 2


@pytest.mark.parametrize("count", [1, 99, 100, 101, 1800, 2771, 3000])
def test_p99_meets_the_limit_exactly_when_the_misses_fit_the_allowance(count):
    allowed = workloads.misses_allowed(count)
    for misses in (allowed, allowed + 1):
        if misses > count:
            continue
        values = [1.0] * (count - misses) + [math.inf] * misses
        assert (workloads.percentile(values, 99) <= 1.0) == (misses <= allowed)


def test_tracer_measures_self_time_and_restores_every_function():
    originals = {name: tracing._current(owner, attr) for name, owner, attr in tracing.targets()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len(tracing.leftover_wrappers()) == len(originals)
        with pytest.raises(RuntimeError):
            tracer.install()
        from repro.service import wire

        frames = wire.pack_frames([wire.encode_request(7, {"op": "read", "key": "k1"})])
    finally:
        tracer.remove()
    assert not tracing.leftover_wrappers()
    assert {name: tracing._current(owner, attr) for name, owner, attr in tracing.targets()} == originals
    probes = tracer.probes
    assert probes["wire.encode_request"].calls == 1
    assert probes["wire.pack_frames"].calls == 1
    assert tracer.total_self_ns() == sum(p.self_ns for p in probes.values()) > 0
    assert frames


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_on_a_held_out_seed_prints_every_declared_metric(workload, trace):
    assert HELD_OUT_SEED not in CALIBRATION_SEEDS
    result, lines = result_of(bench(workload, HELD_OUT_SEED, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        if trace == 0:
            assert entry["value"] > 0, metric["name"]
    assert any(line.startswith("fingerprint") for line in lines)
    if trace:
        attribution = next(line for line in lines if line.startswith("attribution"))
        assert "unattributed share" in attribution and "wrappers removed: True" in attribution


@pytest.mark.parametrize("workload", VIRTUAL_WORKLOADS)
def test_virtual_time_results_repeat_exactly_for_one_seed(workload):
    first, first_lines = result_of(bench(workload, HELD_OUT_SEED, 0))
    second, second_lines = result_of(bench(workload, HELD_OUT_SEED, 0))
    exact = ["latency_p50_ms", "latency_p99_ms", "availability", "max_rate_ops_s"]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name

    def digest(lines):
        return next(line for line in lines if line.startswith("digest")).split()[2]

    assert digest(first_lines) == digest(second_lines)
    traced = [result_of(bench(workload, HELD_OUT_SEED, 1))[0] for _ in range(2)]
    for name in COUNT_METRICS:
        assert traced[0]["metrics"][name] == traced[1]["metrics"][name], name


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("inproc-write50", HELD_OUT_SEED, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
