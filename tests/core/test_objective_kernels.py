"""The one coverage kernel: its evaluation paths agree bit for bit.

:class:`CoverageState` evaluates every marginal gain with the same
arithmetic — ``np.add.reduceat(max(sims − best[slots], 0) · wrel)`` over a
photo's entry range — whether it is asked for one photo (``gain``), a
batch (``gains_of``), or every photo (``all_gains``).  Its value is a
function of the selected set.  The CELF loop refreshes stale heap tops in
batches and checkpoints resume from a bulk-built state, so everything
here asserts ``==``, never ``approx`` — except against the from-scratch
:func:`score`, which sums in a different order (rel 1e-9).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.objective as objective
from repro.core.checkpoint import MemoryCheckpointSink
from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm, naive_greedy
from repro.core.instance import build_incidence
from repro.core.objective import CoverageState, score
from repro.errors import DeadlineExceeded
from repro.fidelity.solver import FidelityCoverageState
from repro.resilience.deadline import Deadline, deadline_scope
from repro.sparsify.threshold import threshold_sparsify
from tests.conftest import random_instance


def _variants(seed: int, **kwargs):
    dense = random_instance(seed, **kwargs)
    sparse, _ = threshold_sparsify(dense, 0.3)
    return [("dense", dense), ("sparse", sparse)]


def _assert_same_state(a: CoverageState, b: CoverageState) -> None:
    assert a.value == b.value
    for qi in range(len(a.instance.subsets)):
        assert np.array_equal(a.coverage_of(qi), b.coverage_of(qi))
        assert a.subset_value(qi) == b.subset_value(qi)


class TestIncidenceLayout:
    def test_entry_ranges_partition_the_nnz(self):
        inst = random_instance(0, n_photos=20, n_subsets=5)
        inc = inst.incidence
        assert inc.total_slots == sum(len(q) for q in inst.subsets)
        assert inc.entry_indptr[0] == 0
        assert inc.entry_indptr[-1] == inc.nnz
        assert inc.nnz == sum(q.similarity.nnz() for q in inst.subsets)

    def test_membership_order_matches_instance_membership(self):
        inst = random_instance(1, n_photos=18, n_subsets=6)
        inc = inst.incidence
        off = inc.subset_offsets
        for p in range(inst.n):
            ms, me = inc.photo_member_indptr[p], inc.photo_member_indptr[p + 1]
            assert me - ms == len(inst.membership[p])
            for k, (qi, local) in zip(range(ms, me), inst.membership[p]):
                s, e = inc.member_entry_indptr[k], inc.member_entry_indptr[k + 1]
                idx, sims = inst.subsets[qi].similarity.neighbors(local)
                assert np.array_equal(inc.slots[s:e] - off[qi], idx)
                assert np.array_equal(inc.sims[s:e], sims)

    def test_with_budget_shares_the_incidence(self):
        inst = random_instance(2)
        assert inst.with_budget(inst.budget * 0.5).incidence is inst.incidence

    def test_build_incidence_empty_subsets(self):
        inc = build_incidence([], 5)
        assert inc.total_slots == 0 and inc.nnz == 0
        assert inc.photo_member_indptr.shape == (6,)


class TestBackendEquivalence:
    """The kernel's evaluation paths are interchangeable back ends."""

    def test_unknown_backend_rejected(self):
        # There is one kernel; the old backend switch is not accepted.
        with pytest.raises(TypeError):
            CoverageState(random_instance(0), backend="reference")

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 50),
        n_photos=st.integers(6, 28),
        n_subsets=st.integers(2, 7),
        order_seed=st.integers(0, 1000),
    )
    def test_same_add_order_is_bit_identical(
        self, seed, n_photos, n_subsets, order_seed
    ):
        # At every state along a random add order: gain == gains_of ==
        # all_gains bitwise, add returns exactly the gain it realises, and
        # a second state fed the same order is bit-identical.
        for _, inst in _variants(seed, n_photos=n_photos, n_subsets=n_subsets):
            state = CoverageState(inst)
            twin = CoverageState(inst)
            rng = np.random.default_rng(order_seed)
            order = [int(p) for p in rng.permutation(inst.n)[: inst.n // 2 + 1]]
            everyone = list(range(inst.n))
            for p in order:
                single = np.array([state.gain(q) for q in everyone])
                assert np.array_equal(state.gains_of(everyone), single)
                assert np.array_equal(state.all_gains(), single)
                shuffled = [int(q) for q in rng.permutation(inst.n)]
                assert np.array_equal(state.gains_of(shuffled), single[shuffled])
                assert state.add(p) == single[p]
                twin.add(p)
                _assert_same_state(state, twin)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 50),
        n_photos=st.integers(4, 24),
        n_subsets=st.integers(1, 6),
        order_seed=st.integers(0, 1000),
    )
    def test_bulk_build_equals_incremental_adds_in_any_order(
        self, seed, n_photos, n_subsets, order_seed
    ):
        for _, inst in _variants(seed, n_photos=n_photos, n_subsets=n_subsets):
            rng = np.random.default_rng(order_seed)
            chosen = [int(p) for p in rng.permutation(inst.n)[: inst.n // 2 + 1]]
            bulk = CoverageState(inst, chosen)
            assert bulk.order == chosen
            for _ in range(3):
                incremental = CoverageState(inst)
                for p in rng.permutation(chosen):
                    incremental.add(int(p))
                _assert_same_state(bulk, incremental)
                assert np.array_equal(bulk.all_gains(), incremental.all_gains())

    @settings(max_examples=10)
    @given(seed=st.integers(0, 30))
    def test_value_matches_from_scratch_score(self, seed):
        for _, inst in _variants(seed, n_photos=16, n_subsets=5):
            selection = list(range(0, inst.n, 2))
            state = CoverageState(inst, selection)
            assert state.value == pytest.approx(score(inst, selection), rel=1e-9)
            state.add(1)
            assert state.value == pytest.approx(
                score(inst, selection + [1]), rel=1e-9
            )

    @settings(max_examples=10)
    @given(seed=st.integers(0, 30), order_seed=st.integers(0, 100))
    def test_all_gains_matches_per_photo_gain(self, seed, order_seed):
        for _, inst in _variants(seed, n_photos=14, n_subsets=4):
            rng = np.random.default_rng(order_seed)
            selection = [int(p) for p in rng.permutation(inst.n)[: inst.n // 3]]
            state = CoverageState(inst, selection)
            expected = np.array([state.gain(p) for p in range(inst.n)])
            assert np.array_equal(state.all_gains(), expected)
            assert np.all(state.all_gains()[selection] == 0.0)
            # The gain is exactly G(S ∪ {p}) − G(S) up to summation order.
            for p in range(inst.n):
                assert expected[p] == pytest.approx(
                    score(inst, selection + [p]) - score(inst, selection),
                    rel=1e-9,
                    abs=1e-12,
                )

    def test_chunked_gathers_match_one_gather(self, monkeypatch):
        # Batches split into gathers of at most _CHUNK_ENTRIES entries;
        # the chunk boundaries must not change a single bit.
        inst = random_instance(7, n_photos=30, n_subsets=6)
        state = CoverageState(inst, range(0, inst.n, 4))
        photos = list(range(inst.n)) + [3, 3, 0]
        whole = state.gains_of(photos)
        all_whole = state.all_gains()
        for chunk in (1, 5, 17, 64):
            monkeypatch.setattr(objective, "_CHUNK_ENTRIES", chunk)
            assert np.array_equal(state.gains_of(photos), whole)
            assert np.array_equal(state.all_gains(), all_whole)
            _assert_same_state(CoverageState(inst, range(0, inst.n, 4)), state)

    def test_gain_cache_add_matches_cold_add(self):
        # add() right after gain() (the CELF select step) and an add with
        # no preceding gain must land in exactly the same state.
        inst = random_instance(4, n_photos=20, n_subsets=5)
        warm = CoverageState(inst)
        cold = CoverageState(inst)
        for p in range(0, inst.n, 2):
            g = warm.gain(p)
            assert warm.add(p) == g
            cold.add(p)
        _assert_same_state(warm, cold)

    def test_stale_gain_cache_is_not_replayed(self):
        # gain(a); add(b); add(a) — a's earlier gain is stale (computed
        # before b joined) and must not leak into the state.
        inst = random_instance(5, n_photos=20, n_subsets=5)
        state = CoverageState(inst)
        state.gain(0)
        state.add(1)
        state.add(0)
        _assert_same_state(state, CoverageState(inst, [1, 0]))

    def test_copy_is_independent_and_exact(self):
        inst = random_instance(6, n_photos=18, n_subsets=5)
        state = CoverageState(inst, [0, 3])
        clone = state.copy()
        assert clone.value == state.value
        clone.add(5)
        assert 5 not in state
        _assert_same_state(state, CoverageState(inst, [0, 3]))
        _assert_same_state(clone, CoverageState(inst, [0, 3, 5]))

    @settings(max_examples=10)
    @given(seed=st.integers(0, 30), order_seed=st.integers(0, 100))
    def test_fidelity_state_runs_the_same_kernel(self, seed, order_seed):
        for _, inst in _variants(seed, n_photos=16, n_subsets=5):
            rng = np.random.default_rng(order_seed)
            chosen = [int(p) for p in rng.permutation(inst.n)[: inst.n // 3]]
            plain = CoverageState(inst, chosen)
            scaled = FidelityCoverageState(inst, [(p, 1.0) for p in chosen])
            _assert_same_state(plain, scaled)
            phis = rng.choice([0.4, 0.7, 1.0], size=inst.n)
            free = [p for p in range(inst.n) if p not in plain]
            batch = scaled.gains_of(free, phis[free])
            for p, g in zip(free, batch):
                assert scaled.gain(p, float(phis[p])) == g
                if phis[p] == 1.0:
                    assert plain.gain(p) == g
            # Bulk φ insertions equal incremental ones, in any order.
            pairs = [(p, float(phis[p])) for p in free]
            bulk = FidelityCoverageState(inst, pairs)
            incremental = FidelityCoverageState(inst)
            for i in rng.permutation(len(pairs)):
                incremental.add(*pairs[i])
            _assert_same_state(bulk, incremental)


def _top_is_unique(state, remaining, costs, mode) -> bool:
    gains = state.gains_of(remaining)
    keys = gains / costs[remaining] if mode == CB else gains
    return len(keys) < 2 or np.sort(keys)[-1] != np.sort(keys)[-2]


class TestLazyMatchesNaive:
    @settings(max_examples=15)
    @given(
        seed=st.integers(0, 60),
        n_photos=st.integers(6, 30),
        n_subsets=st.integers(1, 7),
        budget_fraction=st.floats(0.1, 0.9),
    )
    @pytest.mark.parametrize("mode", [UC, CB])
    def test_lazy_picks_equal_naive_picks_while_keys_are_distinct(
        self, mode, seed, n_photos, n_subsets, budget_fraction
    ):
        # Batched refreshes only add evaluations: every pick is still the
        # argmax of the current keys.  The oracle is the non-lazy greedy,
        # compared up to the first step whose top key is an exact tie.
        for _, inst in _variants(
            seed,
            n_photos=n_photos,
            n_subsets=n_subsets,
            budget_fraction=budget_fraction,
        ):
            naive = naive_greedy(inst, mode)
            lazy = lazy_greedy(inst, mode)
            state = CoverageState(inst, inst.retained)
            spent = inst.cost_of(state.selected)
            cap = inst.budget * (1 + 1e-12)
            for (p, g), (q, h) in zip(naive.picks, lazy.picks):
                remaining = [
                    r for r in range(inst.n)
                    if r not in state and spent + inst.costs[r] <= cap
                ]
                if not _top_is_unique(state, remaining, inst.costs, mode):
                    break
                assert (p, g) == (q, h)
                state.add(p)
                spent += float(inst.costs[p])
            else:
                assert naive.selection == lazy.selection
                assert naive.value == lazy.value


class _OneIteration(Deadline):
    """A deadline that lets exactly one CELF loop iteration run."""

    __slots__ = ("_checks",)

    def __init__(self) -> None:
        super().__init__(None)
        self._interrupt = "test"  # makes the drain check on every iteration
        self._checks = 0

    def expired(self) -> bool:
        self._checks += 1
        return self._checks > 1


def _run_one_iteration_at_a_time(solve):
    """Resume ``solve`` from its own deadline checkpoint until it finishes."""
    docs = []
    doc = None
    while True:
        try:
            with deadline_scope(_OneIteration()):
                return solve(doc), docs
        except DeadlineExceeded as exc:
            doc = exc.checkpoint
            docs.append(doc)


class TestCheckpointEveryIteration:
    @pytest.mark.parametrize("mode", [UC, CB])
    def test_lazy_greedy_interrupted_at_every_iteration(self, mode):
        saw_batch = False
        for seed in range(3):
            for _, inst in _variants(seed, n_photos=24, n_subsets=6, retained=2):
                whole = lazy_greedy(inst, mode)
                run, docs = _run_one_iteration_at_a_time(
                    lambda doc: lazy_greedy(inst, mode, resume_from=doc)
                )
                assert docs, "expected the chain to be interrupted"
                saw_batch |= any(d["batch"] > 1 for d in docs)
                assert run.selection == whole.selection
                assert run.picks == whole.picks
                assert run.value == whole.value
                assert run.cost == whole.cost
                assert run.evaluations == whole.evaluations
        # The chain did land between batch doublings.
        assert saw_batch

    def test_main_algorithm_interrupted_at_every_iteration(self):
        for seed in range(2):
            for _, inst in _variants(seed, n_photos=22, n_subsets=6):
                whole = main_algorithm(inst)
                run, docs = _run_one_iteration_at_a_time(
                    lambda doc: main_algorithm(inst, resume_from=doc)
                )
                assert {d["phase"] for d in docs} == {UC, CB}
                assert run.selection == whole.selection
                assert run.picks == whole.picks
                assert run.value == whole.value
                assert run.evaluations == whole.evaluations

    @pytest.mark.parametrize("mode", [UC, CB])
    def test_checkpoint_without_batch_key_resumes_at_one(self, mode):
        # Periodic checkpoints are taken right after a pick, where the
        # batch size is 1 — so dropping the key (a checkpoint written
        # before batching existed) must resume identically.
        inst = random_instance(3, n_photos=24, n_subsets=6)
        sink = MemoryCheckpointSink()
        whole = lazy_greedy(inst, mode, checkpoint_every=1, checkpoint_sink=sink)
        assert sink.docs and all(d["batch"] == 1 for d in sink.docs)
        for doc in sink.docs:
            legacy = {k: v for k, v in doc.items() if k != "batch"}
            resumed = lazy_greedy(inst, mode, resume_from=legacy)
            assert resumed.selection == whole.selection
            assert resumed.picks == whole.picks
            assert resumed.value == whole.value
            assert resumed.evaluations == whole.evaluations
