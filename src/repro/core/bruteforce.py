"""Exact PAR solvers for gold-standard comparisons (Figure 5d).

Two exact solvers are provided:

* :func:`exhaustive` — literal enumeration of every feasible subset.  Only
  usable on toy instances (``n`` around 20), but trivially correct; tests
  use it to certify the branch-and-bound solver.
* :func:`branch_and_bound` — depth-first include/exclude search with two
  prunes: budget infeasibility, and a submodular fractional-knapsack upper
  bound (the marginal gains of the remaining candidates, greedily packed by
  density into the remaining budget, bound every completion of the current
  partial solution).  This is the solver the Figure 5d bench runs against
  PHOcus on ~100-photo instances with small budgets.

Both respect the retention set ``S0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence

import numpy as np

from repro.core.bounds import _fractional_packing
from repro.core.instance import PARInstance
from repro.core.objective import CoverageState, score

__all__ = ["ExactResult", "exhaustive", "branch_and_bound"]


@dataclass
class ExactResult:
    """An optimal PAR solution together with search statistics."""

    selection: List[int]
    value: float
    cost: float
    nodes: int = 0


def exhaustive(instance: PARInstance, max_photos: int = 24) -> ExactResult:
    """Enumerate all feasible subsets and return the best one.

    Raises ``ValueError`` when the instance exceeds ``max_photos`` free
    photos, as enumeration would be astronomically slow.
    """
    free = [p for p in range(instance.n) if p not in instance.retained]
    if len(free) > max_photos:
        raise ValueError(
            f"exhaustive search limited to {max_photos} free photos; "
            f"instance has {len(free)} (use branch_and_bound instead)"
        )
    base = list(instance.retained)
    base_cost = instance.cost_of(base)
    best_sel: List[int] = list(base)
    best_val = score(instance, base)
    nodes = 0
    for r in range(len(free) + 1):
        for combo in combinations(free, r):
            nodes += 1
            cost = base_cost + float(instance.costs[list(combo)].sum()) if combo else base_cost
            if cost > instance.budget * (1 + 1e-12):
                continue
            val = score(instance, base + list(combo))
            if val > best_val + 1e-12:
                best_val = val
                best_sel = base + list(combo)
    return ExactResult(sorted(best_sel), best_val, instance.cost_of(best_sel), nodes)


def _fractional_upper_bound(
    state: CoverageState,
    candidates: Sequence[int],
    costs: np.ndarray,
    remaining_budget: float,
) -> float:
    """Submodular fractional-knapsack bound on the best completion value.

    For the current selection ``S`` with marginal gains ``δ_p`` over the
    remaining candidates, submodularity gives for any feasible completion
    ``T``: ``G(S ∪ T) ≤ G(S) + Σ_{p ∈ T} δ_p``, and the right-hand side is
    itself bounded by greedily packing gains by density into the remaining
    budget (allowing a fractional final item).
    """
    cand = np.asarray(candidates, dtype=np.int64)
    gains = state.gains_of(cand)
    cand_costs = costs[cand]
    keep = (cand_costs <= remaining_budget + 1e-12) & (gains > 0)
    return _fractional_packing(
        state.value, gains[keep], cand_costs[keep], remaining_budget
    )


def branch_and_bound(
    instance: PARInstance,
    *,
    node_limit: int = 5_000_000,
) -> ExactResult:
    """Exact PAR solver via include/exclude branch and bound.

    Photos are branched in decreasing initial density order (gain at the
    root divided by cost), which makes the greedy-like incumbent found
    early very strong and the fractional bound prune aggressively.

    Raises ``RuntimeError`` if ``node_limit`` nodes are expanded without
    closing the search — a guard against accidentally exact-solving a large
    instance.
    """
    base_state = CoverageState(instance, instance.retained)
    base_cost = instance.cost_of(instance.retained)
    costs = instance.costs

    free = [p for p in range(instance.n) if p not in instance.retained]
    root_density = {
        p: (base_state.gain(p) / costs[p] if costs[p] > 0 else 0.0) for p in free
    }
    order = sorted(free, key=lambda p: -root_density[p])

    best = {
        "value": base_state.value,
        "selection": list(instance.retained),
    }
    nodes = 0

    def recurse(idx: int, state: CoverageState, spent: float) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError(
                f"branch_and_bound expanded more than {node_limit} nodes; "
                "the instance is too large for exact solving"
            )
        if state.value > best["value"] + 1e-12:
            best["value"] = state.value
            best["selection"] = sorted(state.selected)
        if idx >= len(order):
            return
        remaining = order[idx:]
        ub = _fractional_upper_bound(state, remaining, costs, instance.budget - spent)
        if ub <= best["value"] + 1e-12:
            return
        p = order[idx]
        # Include branch first (depth-first towards good incumbents).
        if spent + costs[p] <= instance.budget * (1 + 1e-12):
            with_state = state.copy()
            with_state.add(p)
            recurse(idx + 1, with_state, spent + float(costs[p]))
        # Exclude branch.
        recurse(idx + 1, state, spent)

    recurse(0, base_state, base_cost)
    return ExactResult(
        selection=sorted(best["selection"]),
        value=float(best["value"]),
        cost=instance.cost_of(best["selection"]),
        nodes=nodes,
    )
