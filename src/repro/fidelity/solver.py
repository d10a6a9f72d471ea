"""Exclusive-choice CELF: at most one variant per photo under the budget.

Multi-fidelity PAR is a submodular knapsack with *item multiplicity*:
every photo contributes a menu of mutually exclusive variants (see
:class:`repro.fidelity.catalog.VariantCatalog`) and keeping photo ``p``
at fidelity ``φ`` covers each slot its original would cover at ``φ ·``
the original similarity.  The objective over exclusive choices
``A = {(p, φ_p)}`` is

    G(A) = Σ_q W(q) · Σ_j R(q, j) · max_{(p, φ) ∈ A, p ∈ q} φ·SIM(q, p, j)

which is monotone submodular in the set of chosen variants, so the CELF
machinery of :func:`repro.core.greedy.lazy_greedy` extends directly:

* the heap holds one entry **per variant** — ``(-key, counter, vid,
  stamp)``, exactly the encoding of ``lazy_greedy`` with variant ids in
  place of photo ids;
* a per-photo *exclusion set* skips every popped sibling of an already
  chosen photo (exclusivity is enforced at pop time, not by heap
  surgery);
* sibling entries are seeded with the **optimistic bound** ``φ ·
  gain₁(p)`` instead of an exact evaluation — valid because
  ``max(0, φ·s − b) ≤ φ·max(0, s − b)`` for ``b ≥ 0, φ ≤ 1`` — at stamp
  ``−1`` so they can never be accepted without a refresh.  Seeding
  therefore costs one exact evaluation per photo, the same as the
  discard-only solver;
* **upgrades ride the same drain**: because raising ``φ_p`` is monotone
  (every covered slot moves to ``max(best, φ_new·sim)``), swapping a
  chosen variant for a higher-fidelity sibling is just another
  insertion through :meth:`FidelityCoverageState.add` — so a popped
  sibling of an already chosen photo is treated as an *upgrade move*
  priced at its **incremental** cost ``cost(w) − cost(chosen_p)``.  The
  greedy therefore weighs "upgrade a kept photo" against "keep one more
  photo" at every step; lower-or-equal-fidelity siblings are skipped as
  dominated.  Upgrade keys are conservative: if a photo upgrades again
  between a push and a pop, the cached key underestimates (the
  incremental cost shrank), which can only delay the move, never accept
  a stale one — the stamp check forces an exact refresh before any
  accept.

Degradation contract: on a :meth:`VariantCatalog.trivial` catalog the
heap sequence, evaluation count, picks, value, and cost reproduce
``lazy_greedy`` bit for bit — :class:`FidelityCoverageState` runs the
discard-only coverage kernel (``1.0 · sims`` is exact in IEEE-754), the
pass drains the same :class:`~repro.core.greedy.CelfQueue` with batched
refreshes, and :func:`fidelity_main` mirrors ``main_algorithm``'s
best-of-UC/CB, preserving the ``(1 − 1/e)/2``-style guarantee over the
exclusive ground set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.greedy import CB, UC, _MODES, CelfQueue, GreedyMode
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState
from repro.errors import ConfigurationError, ValidationError
from repro.faults import check as _fault_check
from repro.fidelity.catalog import VariantCatalog
from repro.obs import probes as _obs_probes

__all__ = [
    "FidelityCoverageState",
    "FidelityRun",
    "exclusive_lazy_greedy",
    "fidelity_main",
    "fidelity_score",
]


class FidelityCoverageState(CoverageState):
    """Coverage under fidelity-scaled insertions.

    :class:`repro.core.objective.CoverageState` with a fidelity per
    insertion: ``add(p, φ)`` covers photo ``p``'s incidence slots at
    ``φ ·`` their stored similarity, through the very same kernel.
    Raising a chosen photo's ``φ`` is monotone (every covered slot moves
    to ``max(best, φ_new·sim)``), so an upgrade is one more insertion.
    At ``φ = 1`` everything is bitwise the discard-only state
    (``1.0 · s == s`` for every float).
    """

    def _load(self, selection: Iterable[Tuple[int, float]]) -> None:
        self._selected: Dict[int, float] = {}
        self._order: List[Tuple[int, float]] = []
        for p, phi in selection:
            p, phi = int(p), float(phi)
            if self._selected.get(p, 0.0) < phi:
                self._selected[p] = phi
                self._order.append((p, phi))
        self._cover_many(
            np.fromiter(self._selected, dtype=np.int64, count=len(self._selected)),
            np.fromiter(
                self._selected.values(), dtype=np.float64, count=len(self._selected)
            ),
        )

    @property
    def selected(self) -> Dict[int, float]:
        """``{photo_id: fidelity}`` of the insertions so far (copy)."""
        return dict(self._selected)

    @property
    def order(self) -> List[Tuple[int, float]]:
        return list(self._order)

    def gain(self, photo_id: int, phi: float = 1.0) -> float:
        """Marginal gain of inserting ``p`` at fidelity ``phi``.

        For a photo already selected at a *lower* fidelity this is the
        exact upgrade gain — the same one-row evaluation as a fresh
        insertion, no removal or replay of the selection required.
        """
        p = int(photo_id)
        if self._selected.get(p, 0.0) >= phi:
            return 0.0
        return self._gain(p, phi)

    def gains_of(self, photos, phis) -> np.ndarray:
        """Batched :meth:`gain` at per-photo fidelities ``phis``."""
        return self._gains(
            np.asarray(photos, dtype=np.int64), np.asarray(phis, dtype=np.float64)
        )

    def add(self, photo_id: int, phi: float = 1.0) -> float:
        """Insert ``p`` at ``phi`` — or upgrade it, if already selected lower."""
        p, phi = int(photo_id), float(phi)
        if self._selected.get(p, 0.0) >= phi:
            return 0.0
        self._selected[p] = phi
        self._order.append((p, phi))
        return self._insert(p, phi)


@dataclass
class FidelityRun:
    """Outcome of one exclusive-choice pass.

    ``chosen`` maps photo id → chosen *variant id* (global, into the
    catalog's flat arrays); ``selection`` lists the photos in pick order
    (retention set first), matching ``GreedyRun.selection`` so the two
    run kinds are drop-in comparable.
    """

    selection: List[int]
    chosen: Dict[int, int]
    value: float
    cost: float
    mode: str
    evaluations: int = 0
    picks: List[Tuple[int, float]] = field(default_factory=list)
    #: applied upgrade swaps as (photo, from_variant, to_variant, gain).
    upgrades: List[Tuple[int, int, int, float]] = field(default_factory=list)


def exclusive_lazy_greedy(
    instance: PARInstance,
    catalog: VariantCatalog,
    mode: GreedyMode = CB,
    *,
    upgrade: bool = True,
) -> FidelityRun:
    """One exclusive-choice CELF pass (UC or CB) with in-drain upgrades.

    With ``upgrade=False`` siblings of a chosen photo are skipped at pop
    time (insert-only exclusive choice, the flat-expansion semantics);
    the default also considers upgrade moves priced at incremental cost.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown greedy mode {mode!r}; expected UC or CB")
    if catalog.n_photos != instance.n:
        raise ValidationError(
            f"variant catalog covers {catalog.n_photos} photos, "
            f"instance has {instance.n}"
        )

    indptr = catalog.indptr
    vcost = catalog.cost
    vfid = catalog.fidelity
    photo_of = catalog.photo_of
    budget = instance.budget
    budget_cap = budget * (1 + 1e-12)

    # Retained photos are kept at their original rendition — S0 is a
    # keep-as-is contract, not a keep-at-any-quality one.
    state = FidelityCoverageState(
        instance, ((p, 1.0) for p in instance.retained)
    )
    chosen: Dict[int, int] = {
        p: catalog.original_of(p) for p in instance.retained
    }
    # Seed cost mirrors PARInstance.cost_of: one fancy-indexed sum over
    # the retention ids in set-iteration order, so a trivial catalog
    # (variant costs == photo costs, vid == photo id) reproduces
    # lazy_greedy's ``spent`` float exactly.
    ids = list(frozenset(chosen.values()))
    spent = float(vcost[ids].sum()) if ids else 0.0
    run = FidelityRun(
        selection=list(chosen),
        chosen=chosen,
        value=state.value,
        cost=spent,
        mode=mode,
        evaluations=0,
    )

    # --- seed: one exact evaluation per photo, optimistic siblings -----
    # Costs strictly decrease within a photo, so the last slot is the
    # cheapest variant; when even it cannot fit, the photo needs no
    # evaluation (matching lazy_greedy's unaffordable-seed skip).
    free = np.ones(instance.n, dtype=bool)
    free[np.fromiter(chosen, dtype=np.int64, count=len(chosen))] = False
    cand = np.flatnonzero(free & (spent + vcost[indptr[1:] - 1] <= budget_cap))
    g1 = np.zeros(instance.n, dtype=np.float64)
    g1[cand] = state.gains_of(cand, np.ones(cand.size))
    run.evaluations = int(cand.size)
    is_cand = np.zeros(instance.n, dtype=bool)
    is_cand[cand] = True
    # Variant ids are photo-major, so the counters follow the same
    # photo-then-variant order as a per-photo push loop.
    vids = np.flatnonzero(is_cand[photo_of] & (spent + vcost <= budget_cap))
    owner = photo_of[vids]
    original = vids == indptr[owner]
    # Siblings get the upper bound φ·gain₁(p) at stamp −1: never accepted
    # un-refreshed.
    gains = np.where(original, g1[owner], vfid[vids] * g1[owner])
    queue = CelfQueue()
    queue.extend(
        vids,
        gains / vcost[vids] if mode == CB else gains,
        np.where(original, state.size, -1),
    )

    _obs = _obs_probes.active()
    _t0 = _perf_counter() if _obs is not None else 0.0

    # --- CELF drain over variant ids ------------------------------------
    # Per-variant lookups in the drain read Python lists, not numpy
    # scalars (the same floats).
    owner_of = photo_of.tolist()
    cost_of = vcost.tolist()
    fid_of = vfid.tolist()

    def price(vid: int) -> Optional[float]:
        cur = chosen.get(owner_of[vid])
        if cur is None:
            return cost_of[vid]
        # Exclusivity: a sibling of a chosen photo is either an upgrade
        # move (strictly higher fidelity, priced at its incremental cost)
        # or dominated and skipped.  ``spent − cost(chosen_p)`` only grows
        # during the drain, so an unaffordable upgrade never fits later.
        if not upgrade or vid >= cur:
            return None
        _fault_check("fidelity.swap")
        return cost_of[vid] - cost_of[cur]

    def refresh(batch: List[int]) -> List[float]:
        run.evaluations += len(batch)
        if len(batch) == 1:
            vid = batch[0]
            return [state.gain(owner_of[vid], fid_of[vid])]
        vids = np.asarray(batch)
        return state.gains_of(photo_of[vids], vfid[vids]).tolist()

    def accept(vid: int, extra: float, spent_now: float) -> None:
        p = owner_of[vid]
        cur = chosen.get(p)
        realized = state.add(p, fid_of[vid])
        if cur is None:
            run.selection.append(p)
            run.picks.append((p, realized))
        else:
            run.upgrades.append((p, cur, vid, realized))
        chosen[p] = vid

    run.cost = queue.drain(
        state.size, spent, budget_cap, mode,
        price=price, refresh=refresh, accept=accept,
    )
    run.value = state.value

    if _obs is not None:
        _obs.fidelity_solves.labels(mode=mode).inc()
        _obs.fidelity_solve_seconds.labels(mode=mode).observe(
            _perf_counter() - _t0
        )
        for p, vid in run.chosen.items():
            _obs.fidelity_variants_selected.labels(
                tier=catalog.tier[vid]
            ).inc()
        if run.upgrades:
            _obs.fidelity_upgrade_swaps.inc(len(run.upgrades))
    return run


def fidelity_main(
    instance: PARInstance,
    catalog: VariantCatalog,
    *,
    upgrade: bool = True,
) -> FidelityRun:
    """Best of the UC and CB exclusive passes (Algorithm 1, lifted).

    The exclusive ground set (one element per variant, a partition
    matroid intersected with the knapsack) keeps the objective monotone
    submodular, so taking the better of the unit-cost and cost-benefit
    passes carries the same ``(1 − 1/e)/2``-style worst-case bound the
    discard-only ``main_algorithm`` has.  ``evaluations`` sums both
    passes, mirroring ``main_algorithm``.
    """
    res_uc = exclusive_lazy_greedy(instance, catalog, UC, upgrade=upgrade)
    res_cb = exclusive_lazy_greedy(instance, catalog, CB, upgrade=upgrade)
    winner = res_cb if res_cb.value >= res_uc.value else res_uc
    winner.evaluations = res_uc.evaluations + res_cb.evaluations
    return winner


def fidelity_score(
    instance: PARInstance,
    catalog: VariantCatalog,
    chosen: Dict[int, int],
) -> float:
    """Evaluate the exclusive objective from scratch (reference oracle).

    ``chosen`` maps photo id → variant id.  Quadratic in subset size,
    like :func:`repro.core.objective.score`; used by tests and the
    ``/score`` fidelity path.
    """
    total = 0.0
    for subset in instance.subsets:
        best = np.zeros(len(subset), dtype=np.float64)
        for j, photo_id in enumerate(subset.members):
            vid = chosen.get(int(photo_id))
            if vid is None:
                continue
            if not catalog.indptr[photo_id] <= vid < catalog.indptr[photo_id + 1]:
                raise ValidationError(
                    f"variant {vid} does not belong to photo {photo_id}"
                )
            idx, sims = subset.similarity.neighbors(j)
            np.maximum.at(best, idx, float(catalog.fidelity[vid]) * sims)
        total += float(subset.weight * (subset.relevance @ best))
    return total
