"""Micro-benchmarks of the hot-path primitives.

Unlike the figure benches (single-shot experiment harnesses), these use
pytest-benchmark's statistical timing to track the cost of the operations
everything else is built from: marginal-gain queries, state updates,
batch gain evaluation, full scoring, and one complete lazy-greedy solve.
Useful for catching performance regressions in the incremental evaluator.
"""

from __future__ import annotations

import pytest

from repro.core.greedy import CB, lazy_greedy
from repro.core.objective import CoverageState, score
from repro.sparsify.threshold import threshold_sparsify


@pytest.fixture(scope="module")
def micro_instance(p1k):
    return p1k.instance(p1k.total_cost() * 0.3)


@pytest.fixture(scope="module")
def seeded_state(micro_instance):
    return CoverageState(micro_instance, range(0, micro_instance.n, 7))


def test_micro_gain_query(benchmark, micro_instance, seeded_state):
    """One marginal-gain evaluation (the CELF inner loop)."""
    photo = micro_instance.n // 2
    benchmark(seeded_state.gain, photo)


def test_micro_all_gains(benchmark, micro_instance, seeded_state):
    """Vectorised batch gain evaluation over every photo."""
    benchmark(seeded_state.all_gains)


def test_micro_state_add(benchmark, micro_instance):
    """A selection update, including the state copy it needs to repeat."""

    def add_one():
        state = CoverageState(micro_instance, [0, 5, 9])
        state.add(micro_instance.n - 1)

    benchmark(add_one)


def test_micro_score_from_scratch(benchmark, micro_instance):
    """The reference (non-incremental) objective evaluation."""
    selection = list(range(0, micro_instance.n, 4))
    benchmark(score, micro_instance, selection)


def test_micro_lazy_greedy_solve(benchmark, micro_instance):
    """A complete Algorithm 2 (CB) run."""
    benchmark(lazy_greedy, micro_instance, CB)


def test_micro_sparsified_solve(benchmark, micro_instance):
    """Algorithm 2 on the τ-sparsified instance (the production path)."""
    sparse, _ = threshold_sparsify(micro_instance, 0.5)
    benchmark(lazy_greedy, sparse, CB)


def test_micro_sparse_gains_of_vs_single_gains(benchmark, micro_instance):
    """One batched ``gains_of`` vs the same gains one ``gain`` call each.

    The benchmark fixture times the batch (so regressions show in the
    tracked stats); the per-photo loop is timed inline and the ratio is
    recorded in ``extra_info`` — it lands in the saved JSON next to the
    timing columns.  Both paths return the same bits.
    """
    import time

    import numpy as np

    sparse, _ = threshold_sparsify(micro_instance, 0.5)
    state = CoverageState(sparse, range(0, sparse.n, 7))
    photos = [p for p in range(sparse.n) if p not in state]

    batch = benchmark(state.gains_of, photos)

    repeats = 5
    single_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        single = [state.gain(p) for p in photos]
        single_best = min(single_best, time.perf_counter() - t0)
    batch_best = benchmark.stats.stats.min
    benchmark.extra_info["single_seconds"] = single_best
    benchmark.extra_info["batch_seconds"] = batch_best
    benchmark.extra_info["speedup_single_over_batch"] = single_best / batch_best
    assert np.array_equal(batch, np.array(single))
