#!/usr/bin/env python
"""Performance trajectory and oracle checks for the objective hot path.

A standalone script (``make bench-kernels``), not a pytest-benchmark
target: it measures the one coverage kernel of
:class:`repro.core.objective.CoverageState` on a Fig 5c-scale synthetic
instance (EC-Fashion shape), dense and τ-sparsified, and writes the
machine-readable trajectory to ``BENCH_solver_kernels.json`` at the repo
root:

* ``micro`` — ops/sec for ``gain`` / ``gains_of`` (photos per second in
  one batch) / ``add`` / ``all_gains``;
* ``end_to_end`` — ``main_algorithm`` wall-clock, gain evaluations and
  picks;
* ``parallel`` — ``solve_many`` budget-sweep throughput at 1/2/4 workers
  plus scaling efficiency (read alongside ``meta.cpus``: efficiency is
  bounded by the CPUs actually visible to the process);
* ``checks`` — the oracle gate: ``gain``, ``gains_of`` and ``all_gains``
  agree bit for bit along an add order; a bulk-built state equals
  incremental adds in any order bit for bit; ``value`` matches the
  from-scratch ``score()`` within rel 1e-9; lazy picks equal the non-lazy
  greedy's until the first exact key tie.  Any failure exits non-zero
  (this is what the CI bench-smoke job enforces).

The JSON is validated against the expected schema before it is written;
a malformed document also exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm, naive_greedy
from repro.core.objective import CoverageState, score
from repro.core.parallel import SolveTask, solve_batch
from repro.sparsify.threshold import threshold_sparsify

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_solver_kernels.json"
WORKER_COUNTS = (1, 2, 4)
MICRO_OPS = ("gain", "gains_of", "add", "all_gains")
#: Tolerance of ``value`` against the from-scratch ``score()``, which sums
#: per subset in a different order.
SCORE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------


def _best_seconds(fn: Callable[[], None], repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sample(instance, state) -> List[int]:
    return [p for p in range(instance.n) if p not in state][: max(64, instance.n // 2)]


def _bench_gain(instance, repeats: int) -> float:
    """ops/sec for single marginal-gain queries on a partially filled state."""
    state = CoverageState(instance, range(0, instance.n, 5))
    sample = _sample(instance, state)

    def run() -> None:
        for p in sample:
            state.gain(p)

    return len(sample) / _best_seconds(run, repeats)


def _bench_gains_of(instance, repeats: int) -> float:
    """Photos per second for the same queries as one batched call."""
    state = CoverageState(instance, range(0, instance.n, 5))
    sample = _sample(instance, state)
    return len(sample) / _best_seconds(lambda: state.gains_of(sample), repeats)


def _bench_add(instance, repeats: int) -> float:
    """ops/sec for state updates, built up from the empty selection."""
    picks = list(range(0, instance.n, 2))

    def run() -> None:
        state = CoverageState(instance)
        for p in picks:
            state.add(p)

    # State construction is part of the loop but amortised over the adds.
    return len(picks) / _best_seconds(run, repeats)


def _bench_all_gains(instance, repeats: int) -> float:
    state = CoverageState(instance, range(0, instance.n, 5))
    return 1.0 / _best_seconds(state.all_gains, repeats)


def _bench_row_access(instance, repeats: int) -> Dict[str, float]:
    """``neighbors()`` vs ``row()`` throughput on a sparse backend.

    Guards the hot-path regression this repo fixed: ``row()`` materialises
    a dense length-m vector per call, while ``neighbors()`` returns
    zero-copy views into the CSR arrays.  The speed-up must stay > 1 or
    the sparse fast path has regressed to dense materialisation.
    """
    sim = instance.subsets[0].similarity
    m = len(sim)

    def run_neighbors() -> None:
        for i in range(m):
            sim.neighbors(i)

    def run_row() -> None:
        for i in range(m):
            sim.row(i)

    neighbors_ops = m / _best_seconds(run_neighbors, repeats)
    row_ops = m / _best_seconds(run_row, repeats)
    return {
        "neighbors_ops_per_sec": neighbors_ops,
        "row_ops_per_sec": row_ops,
        "speedup": neighbors_ops / row_ops,
    }


def _bench_micro(instance, repeats: int) -> Dict[str, Dict[str, float]]:
    benches = {
        "gain": _bench_gain,
        "gains_of": _bench_gains_of,
        "add": _bench_add,
        "all_gains": _bench_all_gains,
    }
    return {op: {"ops_per_sec": benches[op](instance, repeats)} for op in MICRO_OPS}


def _bench_end_to_end(instance, repeats: int) -> Dict[str, float]:
    run = main_algorithm(instance)
    return {
        "seconds": _best_seconds(lambda: main_algorithm(instance), repeats),
        "evaluations": int(run.evaluations),
        "picks": len(run.picks),
        "value": float(run.value),
    }


def _bench_parallel(instance, n_tasks: int) -> Dict[str, object]:
    budgets = np.linspace(0.3, 1.0, n_tasks) * instance.budget
    tasks = [SolveTask(algorithm="phocus", budget=float(b)) for b in budgets]
    by_workers: Dict[str, Dict[str, float]] = {}
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        solutions = solve_batch(instance, tasks, workers=workers)
        elapsed = time.perf_counter() - start
        assert len(solutions) == n_tasks
        by_workers[str(workers)] = {
            "seconds": elapsed,
            "throughput_tasks_per_sec": n_tasks / elapsed,
        }
    base = by_workers["1"]["seconds"]
    return {
        "tasks": n_tasks,
        "workers": by_workers,
        "speedup_vs_1": {
            str(w): base / by_workers[str(w)]["seconds"] for w in WORKER_COUNTS[1:]
        },
        "efficiency": {
            str(w): base / by_workers[str(w)]["seconds"] / w for w in WORKER_COUNTS[1:]
        },
    }


# ---------------------------------------------------------------------------
# Oracle checks (the CI gate)
# ---------------------------------------------------------------------------


def _check_oracles(instance) -> List[str]:
    """Check the kernel against its oracles on this instance."""
    problems: List[str] = []
    everyone = list(range(instance.n))

    # gain == gains_of == all_gains, bitwise, at states along an
    # interleaved add order; add() realises exactly the queried gain.
    state = CoverageState(instance)
    order = list(range(0, instance.n, 3)) + list(range(1, instance.n, 3))
    for step, p in enumerate(order):
        if step % 8 == 0:
            single = np.array([state.gain(q) for q in everyone])
            if not np.array_equal(state.gains_of(everyone), single):
                problems.append(f"gains_of != gain after {step} adds")
                break
            if not np.array_equal(state.all_gains(), single):
                problems.append(f"all_gains != gain after {step} adds")
                break
        expected = state.gain(p)
        if state.add(p) != expected:
            problems.append(f"add({p}) realised a gain other than gain({p})")
            break

    # Bulk construction == incremental adds in any order, bitwise.
    state = CoverageState(instance)
    for p in order:
        state.add(p)
    rng = np.random.default_rng(0)
    for _ in range(3):
        shuffled = CoverageState(instance)
        for p in rng.permutation(order):
            shuffled.add(int(p))
        bulk = CoverageState(instance, order)
        if bulk.value != state.value or shuffled.value != state.value:
            problems.append("value depends on the add order")
        for qi in range(len(instance.subsets)):
            cover = state.coverage_of(qi)
            if not (
                np.array_equal(bulk.coverage_of(qi), cover)
                and np.array_equal(shuffled.coverage_of(qi), cover)
            ):
                problems.append("coverage depends on the add order")
                break

    # value vs the from-scratch score().
    for selection in (order[: len(order) // 3], order):
        value = CoverageState(instance, selection).value
        reference = score(instance, selection)
        if abs(value - reference) > SCORE_RTOL * abs(reference):
            problems.append(
                f"value {value!r} differs from score() {reference!r} "
                f"beyond rel {SCORE_RTOL}"
            )

    # Lazy picks == non-lazy greedy picks until the first exact key tie.
    for mode in (UC, CB):
        naive = naive_greedy(instance, mode)
        lazy = lazy_greedy(instance, mode)
        replay = CoverageState(instance, instance.retained)
        spent = instance.cost_of(replay.selected)
        cap = instance.budget * (1 + 1e-12)
        for (p, g), (q, h) in zip(naive.picks, lazy.picks):
            remaining = [
                r for r in everyone
                if r not in replay and spent + instance.costs[r] <= cap
            ]
            gains = replay.gains_of(remaining)
            keys = np.sort(gains / instance.costs[remaining] if mode == CB else gains)
            if keys.size > 1 and keys[-1] == keys[-2]:
                break
            if (p, g) != (q, h):
                problems.append(
                    f"{mode}: lazy pick {(q, h)} != naive pick {(p, g)}"
                )
                break
            replay.add(p)
            spent += float(instance.costs[p])
    return problems


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def validate_document(doc: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``doc`` has the expected shape."""

    def need(mapping, key, kind, where):
        if key not in mapping:
            raise ValueError(f"missing key {where}.{key}")
        if not isinstance(mapping[key], kind):
            raise ValueError(
                f"{where}.{key} should be {kind}, got {type(mapping[key]).__name__}"
            )
        return mapping[key]

    meta = need(doc, "meta", dict, "$")
    for key in ("python", "numpy", "platform"):
        need(meta, key, str, "meta")
    need(meta, "cpus", int, "meta")
    need(meta, "scale", (int, float), "meta")
    need(doc, "instance", dict, "$")
    for variant in ("dense", "sparse"):
        micro = need(need(doc, "micro", dict, "$"), variant, dict, "micro")
        for op in MICRO_OPS:
            entry = need(micro, op, dict, f"micro.{variant}")
            value = need(entry, "ops_per_sec", (int, float), f"micro.{variant}.{op}")
            if not value > 0:
                raise ValueError(f"micro.{variant}.{op}.ops_per_sec must be positive")
        e2e = need(need(doc, "end_to_end", dict, "$"), variant, dict, "end_to_end")
        for key in ("seconds", "evaluations", "picks"):
            value = need(e2e, key, (int, float), f"end_to_end.{variant}")
            if not value > 0:
                raise ValueError(f"end_to_end.{variant}.{key} must be positive")
        need(e2e, "value", (int, float), f"end_to_end.{variant}")
    ra = need(doc, "row_access", dict, "$")
    for key in ("neighbors_ops_per_sec", "row_ops_per_sec", "speedup"):
        value = need(ra, key, (int, float), "row_access")
        if not value > 0:
            raise ValueError(f"row_access.{key} must be positive")
    par = need(doc, "parallel", dict, "$")
    workers = need(par, "workers", dict, "parallel")
    for w in WORKER_COUNTS:
        entry = need(workers, str(w), dict, "parallel.workers")
        need(entry, "seconds", (int, float), f"parallel.workers.{w}")
        need(entry, "throughput_tasks_per_sec", (int, float), f"parallel.workers.{w}")
    need(par, "speedup_vs_1", dict, "parallel")
    checks = need(doc, "checks", dict, "$")
    if not isinstance(checks.get("oracles_ok"), bool):
        raise ValueError("checks.oracles_ok must be a bool")
    if not isinstance(checks.get("neighbors_zero_copy"), bool):
        raise ValueError("checks.neighbors_zero_copy must be a bool")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run(scale: float, repeats: int, parallel_tasks: int) -> Dict[str, object]:
    from repro.datasets.ecommerce import generate_ecommerce_dataset

    # Fig 5c shape: the EC-Fashion synthetic at the bench's default size,
    # solved at the 0.3-of-corpus budget.
    n_photos = max(40, int(160 * scale))
    n_queries = max(8, int(30 * scale))
    dataset = generate_ecommerce_dataset(
        "Fashion", n_photos, n_queries=n_queries, name="EC-Fashion", seed=103
    )
    dense = dataset.instance(dataset.total_cost() * 0.3)
    sparse, stats = threshold_sparsify(dense, 0.35)
    instances = {"dense": dense, "sparse": sparse}

    checks: Dict[str, object] = {"oracles_ok": True, "problems": []}
    for variant, instance in instances.items():
        problems = _check_oracles(instance)
        checks["oracles_ok"] = bool(checks["oracles_ok"] and not problems)
        checks["problems"] += [f"[{variant}] {p}" for p in problems]

    # Zero-copy regression assertion: neighbors() must return views into
    # the live CSR arrays, never per-call copies (let alone dense rows).
    sim = sparse.subsets[0].similarity
    _, csr_cols, csr_vals = sim.csr()
    idx0, val0 = sim.neighbors(0)
    checks["neighbors_zero_copy"] = bool(
        np.shares_memory(idx0, csr_cols) and np.shares_memory(val0, csr_vals)
    )
    if not checks["neighbors_zero_copy"]:
        checks["problems"].append(
            "[sparse] neighbors() no longer aliases the CSR arrays (copying?)"
        )

    row_access = _bench_row_access(sparse, repeats)
    if not row_access["speedup"] > 1.0:
        checks["problems"].append(
            "[sparse] neighbors() not faster than dense row() materialisation"
        )

    doc: Dict[str, object] = {
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else (os.cpu_count() or 1),
            "scale": scale,
            "repeats": repeats,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "instance": {
            "n_photos": dense.n,
            "n_subsets": len(dense.subsets),
            "budget_fraction": 0.3,
            "dense_nnz": dense.similarity_nnz(),
            "sparse_nnz": sparse.similarity_nnz(),
            "sparse_tau": 0.35,
            "sparse_kept_fraction": stats.kept_fraction,
        },
        "micro": {v: _bench_micro(i, repeats) for v, i in instances.items()},
        "row_access": row_access,
        "end_to_end": {v: _bench_end_to_end(i, repeats) for v, i in instances.items()},
        "parallel": _bench_parallel(dense, parallel_tasks),
        "checks": checks,
    }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="instance size multiplier (1.0 = Fig 5c bench shape, 160 photos)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (min taken)")
    parser.add_argument(
        "--parallel-tasks", type=int, default=8, help="sweep size for the scaling bench"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output JSON path")
    args = parser.parse_args(argv)

    doc = run(args.scale, args.repeats, args.parallel_tasks)
    validate_document(doc)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    micro = doc["micro"]
    e2e = doc["end_to_end"]
    par = doc["parallel"]
    print(f"[bench_solver_kernels] n={doc['instance']['n_photos']} "
          f"subsets={doc['instance']['n_subsets']} cpus={doc['meta']['cpus']}")
    for variant in ("dense", "sparse"):
        ops = ", ".join(
            f"{op} {micro[variant][op]['ops_per_sec']:.0f}/s" for op in MICRO_OPS
        )
        print(f"  {variant:>6}: micro [{ops}] | "
              f"main_algorithm {e2e[variant]['seconds']:.3f}s, "
              f"{e2e[variant]['evaluations']} evaluations, "
              f"{e2e[variant]['picks']} picks")
    ra = doc["row_access"]
    print(f"  sparse row access: neighbors() {ra['speedup']:.1f}x faster than row() "
          f"(zero-copy: {doc['checks']['neighbors_zero_copy']})")
    sp = ", ".join(f"{w}w {s:.2f}x" for w, s in par["speedup_vs_1"].items())
    print(f"  parallel: {par['tasks']} tasks, speedup vs 1 worker: {sp}")
    print(f"  wrote {args.out}")

    if not doc["checks"]["oracles_ok"] or doc["checks"]["problems"]:
        print("BENCH CHECKS FAILED:", file=sys.stderr)
        for problem in doc["checks"]["problems"]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
