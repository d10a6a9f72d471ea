"""Sviridenko's optimal (1 − 1/e) knapsack-submodular algorithm [45].

Theorem 4.6 of the paper: because the PAR objective is nonnegative,
monotone and submodular (Lemma 4.5), the partial-enumeration greedy of
Sviridenko achieves the optimal ``1 − 1/e`` approximation under a knapsack
constraint.  The scheme:

1. evaluate every feasible solution of at most two photos directly;
2. for every feasible *triple* of photos, complete it greedily — repeatedly
   add the photo with the best marginal-gain-to-cost density that still
   fits the budget;
3. return the best solution seen.

Its ``Ω(B · n^4)`` gain evaluations make it impractical beyond a few dozen
photos (Section 4.2), which is precisely why the paper adopts the CELF
scheme; we keep it as the optimal-guarantee reference and for the
scalability comparison benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.instance import PARInstance
from repro.core.objective import CoverageState

__all__ = ["SviridenkoResult", "sviridenko"]


@dataclass
class SviridenkoResult:
    """Best solution found by partial enumeration plus search statistics."""

    selection: List[int]
    value: float
    cost: float
    evaluations: int = 0
    seeds_tried: int = 0


def _greedy_complete(
    instance: PARInstance,
    seed: Iterable[int],
) -> Tuple[CoverageState, float, int]:
    """Density-greedy completion of ``S0 ∪ seed`` within the budget."""
    state = CoverageState(instance, set(instance.retained) | set(seed))
    spent = instance.cost_of(state.selected)
    costs = instance.costs
    evaluations = 0
    remaining = np.array(
        [p for p in range(instance.n) if p not in state], dtype=np.int64
    )
    budget_cap = instance.budget * (1 + 1e-12)
    while True:
        remaining = remaining[spent + costs[remaining] <= budget_cap]
        if not remaining.size:
            break
        keys = state.gains_of(remaining) / costs[remaining]
        evaluations += int(remaining.size)
        best = int(np.argmax(keys))  # the first maximum, as a strict-> scan
        if not keys[best] > 0:
            break
        state.add(int(remaining[best]))
        spent += float(costs[remaining[best]])
        remaining = np.delete(remaining, best)
    return state, spent, evaluations


def sviridenko(instance: PARInstance, max_photos: int = 60) -> SviridenkoResult:
    """Run the partial-enumeration greedy of [45] on a (small) instance.

    Raises ``ValueError`` when the instance has more than ``max_photos``
    free photos: the ``O(n^3)`` seed enumeration would be intractable, and
    :func:`repro.core.greedy.main_algorithm` should be used instead.
    """
    free = [p for p in range(instance.n) if p not in instance.retained]
    if len(free) > max_photos:
        raise ValueError(
            f"sviridenko limited to {max_photos} free photos; instance has "
            f"{len(free)} (use main_algorithm for large instances)"
        )
    base_spent = instance.cost_of(instance.retained)
    budget = instance.budget
    costs = instance.costs

    best_state = CoverageState(instance, instance.retained)
    best_value = best_state.value
    best_selection = sorted(best_state.selected)
    evaluations = 0
    seeds = 0

    def consider(state: CoverageState) -> None:
        nonlocal best_value, best_selection
        if state.value > best_value + 1e-12:
            best_value = state.value
            best_selection = sorted(state.selected)

    # Phase 1: all solutions of cardinality <= 2 beyond S0.
    for r in (1, 2):
        for combo in combinations(free, r):
            extra = float(costs[list(combo)].sum())
            if base_spent + extra > budget * (1 + 1e-12):
                continue
            seeds += 1
            state = CoverageState(instance, set(instance.retained) | set(combo))
            consider(state)

    # Phase 2: greedy completion of every feasible triple.
    for combo in combinations(free, 3):
        extra = float(costs[list(combo)].sum())
        if base_spent + extra > budget * (1 + 1e-12):
            continue
        seeds += 1
        state, _, evals = _greedy_complete(instance, combo)
        evaluations += evals
        consider(state)

    return SviridenkoResult(
        selection=best_selection,
        value=float(best_value),
        cost=instance.cost_of(best_selection),
        evaluations=evaluations,
        seeds_tried=seeds,
    )
