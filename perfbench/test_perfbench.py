"""Fast self-test of the benchmark: every workload at tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs each workload for one second with ``--size tiny`` in both modes,
checks the result line against BENCHMARK.json, that counts repeat for a
fixed seed, that the correctness checks can fail, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_result_matches_benchmark_json(workload, trace):
    result, detail = parse(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0
    assert detail["env"]["nproc"] >= 1 and detail["shapes"]["photos"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(workload):
    from steady import count_differences

    first = parse(run_bench(workload, 0, seed=5))[1]["counts"]
    second = parse(run_bench(workload, 0, seed=5))[1]["counts"]
    assert first and count_differences(first, second) == []


def test_traced_layers_cover_the_solve_path():
    result, _ = parse(run_bench("solve_inline", 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("service.json_decode_ms", "serialize.decode_ms", "greedy.uc_ms",
                  "greedy.cb_ms", "bounds.online_bound_ms"):
        assert metrics[layer] > 0, layer
    assert 0 <= metrics["trace.unattributed_share"] < 0.5
    assert metrics["tenants.lease_ms"] == 0 and metrics["live.ingest_ms"] == 0


def test_check_solution_rejects_wrong_answers():
    from repro.core.solver import solve
    from workloads import check_solution, ecommerce_instance

    instance = ecommerce_instance(30, 6, seed=1)
    good = solve(instance, "phocus")
    doc = {"selection": good.selection, "value": good.value}
    assert check_solution(instance, doc, good.selection)[0] is None
    assert "score()" in check_solution(instance, dict(doc, value=good.value * 1.01), good.selection)[0]
    assert "in-process" in check_solution(instance, doc, good.selection[:-1])[0]
    everything = list(range(instance.n))
    assert "budget" in check_solution(instance, dict(doc, selection=everything), everything)[0]


@pytest.mark.parametrize("kind", ["CpuClock", "FaultClock"])
def test_clock_calibrates_on_its_cpu_and_restores_affinity(kind):
    import harness

    before = os.sched_getaffinity(0)
    clock = getattr(harness, kind)(cpu=min(before))
    assert 0 < clock.factor() < 100
    assert os.sched_getaffinity(0) == before


def test_self_time_subtracts_children():
    from tracer import self_seconds

    spans = [
        [1, None, "op", "root", 0.0, 10.0, {}],
        [2, 1, "op", "a", 1.0, 4.0, {}],
        [3, 2, "op", "b", 2.0, 3.0, {}],
        [4, 1, "op", "a", 5.0, 6.0, {}],
    ]
    assert self_seconds(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("solve_inline", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
