"""The PAR objective ``G`` and its incremental evaluation.

The score of a solution ``S`` (Section 3.1) is

    G(S) = Σ_{q ∈ Q} W(q) · Σ_{p ∈ q} R(q, p) · SIM(q, p, NN(q, p, S))

where ``NN(q, p, S)`` is the most similar photo to ``p`` among ``S ∩ q``.
Because SIM is 0 across subset boundaries and 1 on the diagonal, the inner
sum only needs, for every member ``p`` of ``q``, the *best similarity seen so
far* to any selected member.  :class:`CoverageState` keeps exactly that, one
value per (subset, member) *slot*, laid out flat over the incidence CSR of
:class:`~repro.core.instance.IncidenceCSR`.

There is one kernel.  The marginal gain of a photo ``p`` is

    np.add.reduceat(max(sims − best[slots], 0) · wrel)

over ``p``'s whole entry range, and every evaluation path runs exactly that
arithmetic: :meth:`CoverageState.gain` (one photo),
:meth:`CoverageState.gains_of` (a batch: one gather + one ``reduceat``, or
per photo below :data:`_SMALL_BATCH`) and
:meth:`CoverageState.all_gains` (every photo, in contiguous chunks).  A
segment's sum does not depend on where it sits in the reduced array, so the
three agree bit for bit — which lets the CELF loop of
:mod:`repro.core.greedy` refresh stale heap tops in batches and still see
the very same floats as a one-at-a-time refresh.

``value`` is a pure function of the selected *set*:
``np.add.reduce(wslot · best)``, cached and invalidated by :meth:`add`.
``best`` is a running maximum, which is exact and order-free, so a state
built in bulk (one ``np.maximum.at`` gather over the initial selection), a
state built by incremental adds in any order, and a checkpoint-resumed
state all report the same bits.  Photos can be inserted at a fidelity
``φ ≤ 1`` (their similarities scaled by ``φ``); the multi-fidelity solver
of :mod:`repro.fidelity` uses that through the same kernel.

All solvers in :mod:`repro.core` are built on this structure.  The module
also exposes :func:`score`, a from-scratch evaluator used by tests to verify
the incremental state, and :func:`score_breakdown` for per-subset reporting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.instance import PARInstance
from repro.obs import probes as _obs_probes

__all__ = [
    "CoverageState",
    "score",
    "score_breakdown",
    "max_score",
]

#: ``reduceat`` index of a single segment spanning the whole array.
_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
#: Entries gathered per batch chunk — bounds the kernel's temporaries
#: (a handful of float64/int64 arrays of this length) on large batches.
_CHUNK_ENTRIES = 1 << 16
#: Batches up to this size are evaluated one photo at a time.
_SMALL_BATCH = 4


class CoverageState:
    """Incremental tracker of ``G`` under element insertions.

    The state holds, for every subset ``q`` and member position ``j``, the
    similarity of member ``j`` to its current nearest neighbour in the
    selection (0 when the selection contains no member of ``q``).  Marginal
    gains are evaluated without mutating the state; :meth:`add` updates it.

    Parameters
    ----------
    instance:
        The PAR instance whose objective is tracked.
    selection:
        Optional initial selection (e.g. the retention set ``S0``), loaded
        in bulk; :attr:`order` keeps its iteration order (duplicates
        dropped).
    """

    def __init__(
        self,
        instance: PARInstance,
        selection: Iterable[int] = (),
    ) -> None:
        _obs = _obs_probes.active()
        if _obs is not None:
            # Construction-time only, so gain()/add() stay probe-free.
            _obs.objective_states.inc()
        self.instance = instance
        self._inc = instance.incidence
        self._lens = np.diff(self._inc.entry_indptr)
        self._best_flat = np.zeros(self._inc.total_slots, dtype=np.float64)
        # W(q)·R(q, j) per slot, in the same flat layout as _best_flat.
        self._wslot = (
            np.concatenate([q.weight * q.relevance for q in instance.subsets])
            if instance.subsets
            else np.zeros(0, dtype=np.float64)
        )
        self._value: Optional[float] = None
        self._load(selection)

    def _load(self, selection: Iterable[int]) -> None:
        self._order: List = list(dict.fromkeys(int(p) for p in selection))
        self._selected = set(self._order)
        self._cover_many(np.asarray(self._order, dtype=np.int64))

    # ------------------------------------------------------------------

    @property
    def value(self) -> float:
        """Current objective value ``G(S)`` (a function of the set alone)."""
        if self._value is None:
            self._value = float(np.add.reduce(self._wslot * self._best_flat))
        return self._value

    @property
    def selected(self) -> frozenset:
        """The photos added so far (a fresh frozenset — use ``in state`` /
        ``state.size`` in hot loops)."""
        return frozenset(self._selected)

    @property
    def size(self) -> int:
        """Number of photos selected (O(1), no copy)."""
        return len(self._selected)

    @property
    def order(self) -> List[int]:
        """The photos in the order they were added (copy)."""
        return list(self._order)

    def __contains__(self, photo_id: int) -> bool:
        return int(photo_id) in self._selected

    def gain(self, photo_id: int) -> float:
        """Marginal gain ``G(S ∪ {p}) − G(S)`` without changing the state."""
        p = int(photo_id)
        if p in self._selected:
            return 0.0
        return self._gain(p, 1.0)

    def gains_of(self, photos) -> np.ndarray:
        """Marginal gains of ``photos`` at the current selection, in one batch.

        Bitwise equal to ``[self.gain(p) for p in photos]``; selected
        photos report 0.
        """
        return self._gains(np.asarray(photos, dtype=np.int64), None)

    def all_gains(self) -> np.ndarray:
        """Marginal gains of every photo at once (selected photos report 0).

        Runs the kernel over contiguous chunks of the entry arrays — no
        gather — and is bitwise equal to :meth:`gains_of` over
        ``range(n)``.
        """
        inc = self._inc
        n = self.instance.n
        gains = np.zeros(n, dtype=np.float64)
        indptr = inc.entry_indptr
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(indptr, indptr[lo] + _CHUNK_ENTRIES, "right")) - 1
            hi = min(max(hi, lo + 1), n)
            s, e = int(indptr[lo]), int(indptr[hi])
            if e > s:
                self._reduce(
                    inc.sims[s:e], inc.slots[s:e], inc.wrel[s:e],
                    indptr[lo:hi] - s, self._lens[lo:hi], gains[lo:hi],
                )
            lo = hi
        return gains

    def add(self, photo_id: int) -> float:
        """Add a photo to the selection; return the realised marginal gain."""
        p = int(photo_id)
        if p in self._selected:
            return 0.0
        self._selected.add(p)
        self._order.append(p)
        return self._insert(p, 1.0)

    # ----------------------------------------------------------- kernel

    def _delta(self, p: int, phi: float):
        """``p``'s slots, ``φ``-scaled sims, their cover, weighted gains."""
        inc = self._inc
        s0, e0 = inc.entry_indptr[p], inc.entry_indptr[p + 1]
        slots = inc.slots[s0:e0]
        sims = inc.sims[s0:e0] if phi == 1.0 else inc.sims[s0:e0] * np.float64(phi)
        cur = self._best_flat[slots]
        delta = sims - cur
        np.maximum(delta, 0.0, out=delta)
        delta *= inc.wrel[s0:e0]
        return slots, sims, cur, delta

    def _gain(self, p: int, phi: float) -> float:
        delta = self._delta(p, phi)[3]
        return float(np.add.reduceat(delta, _ONE_SEGMENT)[0]) if delta.size else 0.0

    def _insert(self, p: int, phi: float) -> float:
        """Cover ``p``'s slots at ``φ ·`` similarity; return the gain."""
        slots, sims, cur, delta = self._delta(p, phi)
        self._value = None
        # A photo's slots are distinct (its memberships lie in disjoint
        # subsets), so one fancy assignment writes every maximum.
        self._best_flat[slots] = np.maximum(cur, sims)
        return float(np.add.reduceat(delta, _ONE_SEGMENT)[0]) if delta.size else 0.0

    def _chunks(
        self, photos: np.ndarray
    ) -> Iterator[Tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
        """Split a photo batch into gathers of at most ~_CHUNK_ENTRIES.

        Yields ``(photo_slice, entry_idx, seg_starts, seg_lens)``; a photo
        never straddles two chunks.
        """
        starts = self._inc.entry_indptr[photos]
        lens = self._lens[photos]
        ends = np.cumsum(lens)
        lo = 0
        while lo < photos.size:
            base = ends[lo] - lens[lo]
            if ends[-1] - base <= _CHUNK_ENTRIES:
                hi = photos.size
            else:
                hi = max(
                    int(np.searchsorted(ends, base + _CHUNK_ENTRIES, "right")), lo + 1
                )
            clens = lens[lo:hi]
            offs = ends[lo:hi] - clens - base
            idx = np.repeat(starts[lo:hi] - offs, clens)
            idx += np.arange(idx.size, dtype=np.int64)
            yield slice(lo, hi), idx, offs, clens
            lo = hi

    def _gains(self, photos: np.ndarray, phis: Optional[np.ndarray]) -> np.ndarray:
        if photos.size <= _SMALL_BATCH:
            # Below the gather's fixed cost: per-photo calls, same bits.
            fids = [1.0] * photos.size if phis is None else phis.tolist()
            return np.array(
                [self._gain(p, f) for p, f in zip(photos.tolist(), fids)],
                dtype=np.float64,
            )
        inc = self._inc
        gains = np.zeros(photos.size, dtype=np.float64)
        for sl, idx, offs, lens in self._chunks(photos):
            if idx.size == 0:
                continue
            sims = inc.sims[idx]
            if phis is not None:
                sims = sims * np.repeat(phis[sl], lens)
            self._reduce(sims, inc.slots[idx], inc.wrel[idx], offs, lens, gains[sl])
        return gains

    def _reduce(self, sims, slots, wrel, offs, lens, out) -> None:
        """``out[i] = Σ max(sims − best[slots], 0)·wrel`` per segment ``i``."""
        delta = sims - self._best_flat[slots]
        np.maximum(delta, 0.0, out=delta)
        delta *= wrel
        if lens.all():
            out[:] = np.add.reduceat(delta, offs)
            return
        # Empty segments have zero width, so each nonempty segment ends
        # exactly where the next nonempty one starts.
        nonempty = lens > 0
        out[nonempty] = np.add.reduceat(delta, offs[nonempty])

    def _cover_many(self, photos: np.ndarray, phis: Optional[np.ndarray] = None):
        """Bulk :meth:`_insert`: one ``np.maximum.at`` per gather chunk."""
        inc = self._inc
        self._value = None
        for sl, idx, _, lens in self._chunks(photos):
            sims = inc.sims[idx]
            if phis is not None:
                sims = sims * np.repeat(phis[sl], lens)
            np.maximum.at(self._best_flat, inc.slots[idx], sims)

    # ------------------------------------------------------------------

    def copy(self) -> "CoverageState":
        """Deep copy (shares the immutable instance, copies mutable state)."""
        clone = self.__class__.__new__(self.__class__)
        clone.instance = self.instance
        clone._inc = self._inc
        clone._lens = self._lens
        clone._wslot = self._wslot
        clone._best_flat = self._best_flat.copy()
        clone._value = self._value
        clone._selected = self._selected.copy()
        clone._order = list(self._order)
        return clone

    def _subset_slice(self, qi: int) -> slice:
        off = self._inc.subset_offsets
        return slice(int(off[qi]), int(off[qi + 1]))

    def subset_value(self, qi: int) -> float:
        """Weighted score contribution ``W(q) · G(q, S)`` of subset ``qi``."""
        sl = self._subset_slice(qi)
        return float(self._wslot[sl] @ self._best_flat[sl])

    def coverage_of(self, qi: int) -> np.ndarray:
        """Per-member nearest-neighbour similarities for subset ``qi`` (copy)."""
        return self._best_flat[self._subset_slice(qi)].copy()


def score(instance: PARInstance, selection: Iterable[int]) -> float:
    """Evaluate ``G(S)`` from scratch (reference implementation).

    Quadratic in subset size; used for validation and small instances.
    """
    return sum(contrib for _, contrib in _subset_contributions(instance, selection))


def score_breakdown(
    instance: PARInstance, selection: Iterable[int]
) -> Dict[str, float]:
    """Per-subset weighted contributions ``{subset_id: W(q) · G(q, S)}``."""
    return {
        instance.subsets[qi].subset_id: contrib
        for qi, contrib in _subset_contributions(instance, selection)
    }


def max_score(instance: PARInstance) -> float:
    """The maximum attainable score ``G(P) = Σ_q W(q)``.

    Selecting every photo gives each member a nearest neighbour of
    similarity 1 (itself), so each subset scores exactly its weight.
    """
    return float(sum(q.weight for q in instance.subsets))


def _subset_contributions(
    instance: PARInstance, selection: Iterable[int]
) -> List[Tuple[int, float]]:
    sel = set(int(p) for p in selection)
    out: List[Tuple[int, float]] = []
    for qi, subset in enumerate(instance.subsets):
        local_selected = [
            j for j, photo_id in enumerate(subset.members) if int(photo_id) in sel
        ]
        if not local_selected:
            out.append((qi, 0.0))
            continue
        m = len(subset)
        best = np.zeros(m, dtype=np.float64)
        for j in local_selected:
            idx, sims = subset.similarity.neighbors(j)
            np.maximum.at(best, idx, sims)
        out.append((qi, float(subset.weight * (subset.relevance @ best))))
    return out
