"""The paper's main solver: lazy greedy (CELF) under a knapsack constraint.

Implements Algorithms 1 and 2 of the paper, which adapt the cost-effective
lazy-forward scheme of Leskovec et al. [30]:

* :func:`lazy_greedy` — Algorithm 2.  Runs one greedy pass in either the
  unit-cost (``UC``) or cost-benefit (``CB``) mode, using lazy marginal-gain
  re-evaluation backed by a priority queue (:class:`CelfQueue`).
  Submodularity guarantees that a cached gain is an upper bound on the
  true gain, so a candidate whose refreshed gain stays at the top of the
  queue can be selected without recomputing anybody else.  Runs of stale
  tops are refreshed in doubling batches through one kernel call.
* :func:`main_algorithm` — Algorithm 1.  Runs both modes and returns the
  better solution, which carries the ``(1 − 1/e)/2`` worst-case guarantee.
* :func:`naive_greedy` — the same greedy rule *without* lazy evaluation,
  kept for the lazy-speed-up ablation (the paper reports a ~700× factor
  from laziness in [30]).

Every function starts from the retention set ``S0`` and never exceeds the
budget ``B``.

Crash safety: :func:`lazy_greedy` and :func:`main_algorithm` can emit
*checkpoints* — JSON-safe snapshots of their resumable state (selection
order, residual budget, the CELF heap of stale upper bounds, UC/CB phase
progress) — every ``checkpoint_every`` picks, and can be restarted from
such a snapshot via ``resume_from``.  A resumed run rebuilds the
:class:`CoverageState` from the recorded selection (its coverage and value
are functions of the set, so they come back bit for bit) and continues
with the restored heap and refresh batch size, so it provably reaches the
same selection as an uninterrupted run.  The wire encoding
(CRC32-protected records) lives in :mod:`repro.core.checkpoint`; this
module deals only in plain dicts.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.instance import PARInstance
from repro.core.objective import CoverageState
from repro.errors import CheckpointError, ConfigurationError, DeadlineExceeded
from repro.faults import check as _fault_check
from repro.obs import probes as _obs_probes
from repro.resilience import deadline as _deadline

__all__ = [
    "GreedyMode",
    "GreedyRun",
    "TraceEvent",
    "lazy_greedy",
    "naive_greedy",
    "main_algorithm",
]

CheckpointSink = Callable[[Dict[str, Any]], None]

_CKPT_FORMAT = 1


@dataclass(frozen=True)
class TraceEvent:
    """One observable step of the lazy greedy (the Figure 3 narrative).

    ``kind`` is ``"refresh"`` (a stale gain was recalculated and pushed
    back), ``"select"`` (the photo was added to the solution), or
    ``"drop"`` (the photo no longer fits the budget and left the queue).
    ``step`` counts solution additions so far, matching Figure 3's
    "Step k" panels (step 1 selects the first photo).
    """

    kind: str
    step: int
    photo_id: int
    gain: float

UC = "UC"
CB = "CB"
GreedyMode = str
_MODES = (UC, CB)


@dataclass
class GreedyRun:
    """Outcome of one greedy pass.

    Attributes
    ----------
    selection:
        Selected photo ids in pick order (retention set first).
    value:
        Objective value ``G(S)`` of the selection.
    cost:
        Total byte cost ``C(S)``.
    mode:
        ``"UC"``, ``"CB"``, or a label set by the caller.
    evaluations:
        Number of marginal-gain evaluations performed — the paper's measure
        of solver work (``O(B·n)`` for CELF vs ``Ω(B·n^4)`` for [45]).
    picks:
        ``(photo_id, realised_gain)`` per greedy pick (excludes ``S0``).
    trace:
        Step-by-step :class:`TraceEvent` log (populated when the run was
        invoked with ``trace=True``; empty otherwise).
    """

    selection: List[int]
    value: float
    cost: float
    mode: str
    evaluations: int = 0
    picks: List[Tuple[int, float]] = field(default_factory=list)
    trace: List[TraceEvent] = field(default_factory=list)
    #: number of picks already present in the checkpoint this run resumed
    #: from (``None`` for an uninterrupted run) — resumed work is
    #: ``len(picks) - resumed_at`` picks.
    resumed_at: Optional[int] = None


def lazy_greedy(
    instance: PARInstance,
    mode: GreedyMode = CB,
    *,
    state: Optional[CoverageState] = None,
    trace: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[CheckpointSink] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> GreedyRun:
    """Algorithm 2 (``LazyGreedy(type)``) with CELF lazy evaluation.

    Parameters
    ----------
    instance:
        The PAR instance.
    mode:
        ``"UC"`` — each iteration picks the feasible photo with the largest
        marginal gain; ``"CB"`` — the largest gain-to-cost ratio.
    state:
        Optional pre-seeded coverage state.  When omitted, a fresh state
        initialised with ``S0`` is used.  When provided, its selection is
        treated as the starting solution (useful for warm restarts).
    trace:
        When true, record the Figure 3-style event log (every refresh,
        selection and budget-drop) in ``GreedyRun.trace``.
    checkpoint_every:
        Emit a checkpoint document to ``checkpoint_sink`` after every
        this-many selections (requires a sink; ``None`` disables).
    checkpoint_sink:
        Callable receiving each checkpoint document (a JSON-safe dict;
        see :mod:`repro.core.checkpoint` for durable encodings).
    resume_from:
        A checkpoint document previously emitted by this function (same
        ``mode``, same instance).  The run restarts mid-solve and reaches
        exactly the selection an uninterrupted run would have.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown greedy mode {mode!r}; expected UC or CB")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be >= 1")
    if checkpoint_every is not None and checkpoint_sink is None:
        raise ConfigurationError("checkpoint_every needs a checkpoint_sink")

    # Observability: one armed-check per pass, everything else derived from
    # counters the run already keeps — the hot loop below carries no probes
    # beyond the standing fault check (see benchmarks/bench_obs_overhead).
    _obs = _obs_probes.active()
    _t0 = _perf_counter() if _obs is not None else 0.0

    costs = instance.costs
    budget_cap = instance.budget * (1 + 1e-12)

    if resume_from is not None:
        if state is not None:
            raise ConfigurationError("resume_from and state are mutually exclusive")
        if trace:
            raise ConfigurationError("cannot resume a traced run (trace is partial)")
        state, run, queue, spent = _restore_greedy(instance, mode, resume_from)
    else:
        if state is None:
            state = CoverageState(instance, instance.retained)
        spent = instance.cost_of(state.selected)
        run = GreedyRun(
            selection=list(state.selected),
            value=state.value,
            cost=spent,
            mode=mode,
            evaluations=0,
        )
        # Seed: one batched evaluation over every affordable candidate.
        free = np.ones(instance.n, dtype=bool)
        free[np.fromiter(state._selected, dtype=np.int64, count=state.size)] = False
        cand = np.flatnonzero(free & (spent + costs <= budget_cap))
        gains = state.gains_of(cand)
        run.evaluations = int(cand.size)
        queue = CelfQueue()
        queue.extend(cand, gains / costs[cand] if mode == CB else gains, state.size)

    if _obs is not None:
        # Work already credited to a previous (checkpointed) attempt, and
        # the seeding evaluations (one per heap entry on a fresh pass).
        _evals_prior = run.evaluations if resume_from is not None else 0
        _picks_prior = len(run.picks)
        _seeded = 0 if resume_from is not None else len(queue.heap)
        _obs.solver_heap_size.labels(mode=mode).set(len(queue.heap))

    selected = state._selected

    def price(p: int) -> Optional[float]:
        return None if p in selected else float(costs[p])

    def refresh(photos: List[int]) -> List[float]:
        run.evaluations += len(photos)
        if len(photos) == 1:
            return [state.gain(photos[0])]
        return state.gains_of(photos).tolist()

    def accept(p: int, cost: float, spent_now: float) -> None:
        realized = state.add(p)
        run.selection.append(p)
        run.picks.append((p, realized))
        run.cost = spent_now
        if trace:
            run.trace.append(TraceEvent("select", len(run.picks), p, realized))
        if checkpoint_every and len(run.picks) % checkpoint_every == 0:
            checkpoint_sink(_greedy_checkpoint_doc(run, state, queue, spent_now))

    def on_event(kind: str, p: int, value: float) -> None:
        run.trace.append(TraceEvent(kind, len(run.picks) + 1, p, value))

    spent = queue.drain(
        state.size, spent, budget_cap, mode,
        price=price, refresh=refresh, accept=accept,
        on_event=on_event if trace else None,
        snapshot=lambda spent_now: _greedy_checkpoint_doc(
            run, state, queue, spent_now
        ),
    )
    run.cost = spent
    run.value = state.value

    if _obs is not None:
        _record_run_metrics(
            _obs, run, mode,
            elapsed=_perf_counter() - _t0,
            evals_prior=_evals_prior,
            picks_prior=_picks_prior,
            seeded=_seeded,
        )
    return run


class CelfQueue:
    """The CELF priority queue of Algorithm 2, refreshed in batches.

    Entries are ``(-key, counter, item, stamp)``.  ``stamp`` is the
    selection size at which the cached key was computed: an entry is
    *current* (the paper's ``curr_p`` flag) iff its stamp equals the
    present selection size, and ``counter`` breaks key ties in insertion
    order.  Items are photo ids for :func:`lazy_greedy` and variant ids
    for :func:`repro.fidelity.solver.exclusive_lazy_greedy`; both passes
    share :meth:`drain`.

    Batched refresh: a stale top is refreshed alone, exactly as CELF
    does; if the next top is stale too, the next refresh takes the two
    stale tops, then four, and so on, all evaluated in one kernel call at
    the same selection.  ``batch`` resets to 1 at every pick.  Nothing is
    added between a batch's evaluations, so a pick is still the argmax of
    current gains over the heap's upper bounds — the selections are
    CELF's up to exact ties; only the evaluation counts grow.
    """

    __slots__ = ("heap", "counter", "batch")

    def __init__(
        self,
        heap: Optional[List[Tuple[float, int, int, int]]] = None,
        counter: int = 0,
        batch: int = 1,
    ) -> None:
        self.heap = heap if heap is not None else []
        self.counter = counter
        self.batch = batch

    def extend(self, items: np.ndarray, keys: np.ndarray, stamps) -> None:
        """Push ``items`` with their ``keys`` (one ``heapify``).

        ``stamps`` is one stamp for all items or an array of them; the
        counters follow the order of ``items``.
        """
        n = int(items.size)
        stamps = np.broadcast_to(np.asarray(stamps, dtype=np.int64), (n,))
        self.heap.extend(
            zip(
                (-np.asarray(keys, dtype=np.float64)).tolist(),
                range(self.counter, self.counter + n),
                items.tolist(),
                stamps.tolist(),
            )
        )
        self.counter += n
        heapq.heapify(self.heap)

    def drain(
        self,
        size: int,
        spent: float,
        budget_cap: float,
        mode: GreedyMode,
        *,
        price: Callable[[int], Optional[float]],
        refresh: Callable[[List[int]], Any],
        accept: Callable[[int, float, float], None],
        on_event: Optional[Callable[[str, int, float], None]] = None,
        snapshot: Optional[Callable[[float], Dict[str, Any]]] = None,
    ) -> float:
        """Run the lazy-greedy loop until the heap empties; return ``spent``.

        ``price(item)`` is the budget an item would consume now, or
        ``None`` to skip it (already chosen or dominated).  An item that
        does not fit is dropped for good: ``spent`` only grows.
        ``refresh(items)`` returns their exact gains at the current
        selection as a list of floats; ``accept(item, price, spent)`` adds
        the item (the selection grows by one).  The key is ``gain / price``
        in CB mode and ``gain`` in UC mode.  ``on_event(kind, item, value)`` sees
        every ``"drop"`` (with its cached key) and ``"refresh"`` (with the
        new gain).  On an expired deadline the drain raises with
        ``snapshot(spent)`` as the resumable checkpoint.
        """
        heap = self.heap
        cb = mode == CB
        pop, push = heapq.heappop, heapq.heappush
        # Deadline: fetched once per pass; per-iteration cost without one
        # is a single ``is not None`` test (the faults probe pattern).
        # With one armed, the clock is read on the first iteration and
        # every 16th after (a drain interrupt is seen immediately).
        dl = _deadline.current()
        dl_tick = 0
        while heap:
            _fault_check("solver.iteration")
            if dl is not None:
                if (dl_tick & 15) == 0 or dl._interrupt is not None:
                    if dl.expired():
                        raise dl.to_exception(
                            snapshot(spent) if snapshot is not None else None
                        )
                dl_tick += 1
            neg_key, _, item, stamp = pop(heap)
            cost = price(item)
            if cost is None:
                continue
            if spent + cost > budget_cap:
                if on_event is not None:
                    on_event("drop", item, -neg_key)
                continue
            if stamp == size:
                size += 1
                spent += cost
                self.batch = 1
                accept(item, cost, spent)
                continue
            items, costs = [item], [cost]
            batch = self.batch
            while len(items) < batch and heap and heap[0][3] != size:
                neg_key, _, item, _ = pop(heap)
                cost = price(item)
                if cost is None:
                    continue
                if spent + cost > budget_cap:
                    if on_event is not None:
                        on_event("drop", item, -neg_key)
                    continue
                items.append(item)
                costs.append(cost)
            counter = self.counter
            for item, cost, gain in zip(items, costs, refresh(items)):
                push(heap, (-(gain / cost) if cb else -gain, counter, item, size))
                counter += 1
                if on_event is not None:
                    on_event("refresh", item, gain)
            self.counter = counter
            self.batch = batch * 2
        return spent


def _record_run_metrics(
    obs, run: GreedyRun, mode: str, *,
    elapsed: float, evals_prior: int, picks_prior: int, seeded: int,
) -> None:
    """Flush one finished pass into the armed instruments.

    Evaluations this pass split into initial heap seeding (one per heap
    entry, ``seeded``) and CELF lazy *refreshes* — stale heap entries
    recomputed and pushed back.  The re-evaluation ratio is refreshes
    over productive heap pops (refreshes + selections): 0.0 means every
    pop was selected on its cached bound (ideal laziness), values near
    1.0 mean the cached bounds rarely survive a pick.
    """
    picks_done = len(run.picks) - picks_prior
    evals_done = run.evaluations - evals_prior
    refreshes = max(0, evals_done - seeded)
    pops = refreshes + picks_done
    obs.solver_runs.labels(mode=mode).inc()
    if evals_done:
        obs.solver_evaluations.labels(mode=mode).inc(evals_done)
    if picks_done:
        obs.solver_picks.labels(mode=mode).inc(picks_done)
    if refreshes:
        obs.solver_refreshes.labels(mode=mode).inc(refreshes)
    obs.solver_reeval_ratio.labels(mode=mode).set(refreshes / pops if pops else 0.0)
    obs.solver_picks_per_second.labels(mode=mode).set(
        picks_done / elapsed if elapsed > 0 else 0.0
    )
    obs.solver_seconds.labels(mode=mode).observe(elapsed)


def _greedy_checkpoint_doc(
    run: GreedyRun,
    state: CoverageState,
    queue: "CelfQueue",
    spent: float,
) -> Dict[str, Any]:
    """Snapshot everything :func:`lazy_greedy` needs to continue (JSON-safe)."""
    return {
        "format": _CKPT_FORMAT,
        "kind": "lazy_greedy",
        "mode": run.mode,
        "n": state.instance.n,
        "added": [int(p) for p in state.order],
        "selection": [int(p) for p in run.selection],
        "picks": [[int(p), float(g)] for p, g in run.picks],
        "evaluations": int(run.evaluations),
        "spent": float(spent),
        "value": float(state.value),
        "heap": [[float(k), int(c), int(p), int(s)] for k, c, p, s in queue.heap],
        "counter": int(queue.counter),
        "batch": int(queue.batch),
        "progress": {"mode": run.mode, "picks": len(run.picks)},
    }


def _restore_greedy(
    instance: PARInstance, mode: GreedyMode, doc: Dict[str, Any]
):
    """Rebuild the loop state of :func:`lazy_greedy` from a checkpoint doc.

    The coverage state is rebuilt in bulk from the recorded add order;
    its value is a function of the selected set, so it reproduces the
    checkpointed value exactly, and a mismatch means the checkpoint
    belongs to a different instance (or was tampered with) and raises
    :class:`~repro.errors.CheckpointError`.  Checkpoints written before
    refreshes were batched carry no ``batch`` key and resume at 1.
    """
    try:
        if doc.get("kind") != "lazy_greedy" or doc.get("format") != _CKPT_FORMAT:
            raise CheckpointError(
                f"not a lazy_greedy checkpoint: kind={doc.get('kind')!r} "
                f"format={doc.get('format')!r}"
            )
        if doc["mode"] != mode:
            raise CheckpointError(
                f"checkpoint is for mode {doc['mode']!r}, not {mode!r}"
            )
        if int(doc["n"]) != instance.n:
            raise CheckpointError(
                f"checkpoint is for an instance of {doc['n']} photos, "
                f"not {instance.n}"
            )
        state = CoverageState(instance, [int(p) for p in doc["added"]])
        if not math.isclose(state.value, float(doc["value"]), rel_tol=1e-9, abs_tol=1e-12):
            raise CheckpointError(
                f"replayed objective {state.value!r} does not match "
                f"checkpointed {doc['value']!r}; wrong instance?"
            )
        run = GreedyRun(
            selection=[int(p) for p in doc["selection"]],
            value=state.value,
            cost=float(doc["spent"]),
            mode=mode,
            evaluations=int(doc["evaluations"]),
            picks=[(int(p), float(g)) for p, g in doc["picks"]],
            resumed_at=len(doc["picks"]),
        )
        heap = [(float(k), int(c), int(p), int(s)) for k, c, p, s in doc["heap"]]
        batch = int(doc.get("batch", 1))
        if batch < 1:
            raise CheckpointError(f"checkpoint batch size {batch} is not >= 1")
        queue = CelfQueue(heap, int(doc["counter"]), batch)
        spent = float(doc["spent"])
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc!r}") from exc
    return state, run, queue, spent


def naive_greedy(
    instance: PARInstance,
    mode: GreedyMode = CB,
) -> GreedyRun:
    """The greedy rule of Algorithm 2 without lazy evaluation.

    Re-evaluates every remaining candidate's marginal gain in every
    iteration.  Produces exactly the same selection as :func:`lazy_greedy`
    (up to ties) but performs far more gain evaluations; used by the
    laziness ablation bench.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown greedy mode {mode!r}; expected UC or CB")

    state = CoverageState(instance, instance.retained)
    costs = instance.costs
    spent = instance.cost_of(state.selected)
    run = GreedyRun(
        selection=list(state.selected),
        value=state.value,
        cost=spent,
        mode=mode,
        evaluations=0,
    )
    remaining = np.array(
        [p for p in range(instance.n) if p not in state], dtype=np.int64
    )
    budget_cap = instance.budget * (1 + 1e-12)
    while True:
        # Spent only ever grows, so a candidate that cannot fit the residual
        # budget now never fits later: drop it permanently instead of
        # re-checking (and re-considering) it every iteration.
        remaining = remaining[spent + costs[remaining] <= budget_cap]
        if not remaining.size:
            break
        gains = state.gains_of(remaining)
        run.evaluations += int(remaining.size)
        # argmax takes the first maximum: ties go to the lowest photo id.
        best = int(np.argmax(gains / costs[remaining] if mode == CB else gains))
        best_p = int(remaining[best])
        state.add(best_p)
        remaining = np.delete(remaining, best)
        run.selection.append(best_p)
        run.picks.append((best_p, float(gains[best])))
        spent += float(costs[best_p])
        run.cost = spent

    run.value = state.value
    return run


def main_algorithm(
    instance: PARInstance,
    *,
    lazy: bool = True,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[CheckpointSink] = None,
    resume_from: Optional[Dict[str, Any]] = None,
) -> GreedyRun:
    """Algorithm 1: run UC and CB greedy passes and keep the better result.

    The returned run's ``mode`` names the winning sub-algorithm, and its
    ``evaluations`` counter is the sum over both passes.  Taking the best of
    the two passes yields the ``(1 − 1/e)/2`` worst-case guarantee of [30]
    (and the exact ``1 − 1/e`` of [37] when all costs are equal, since the
    UC pass then *is* the classical greedy).

    Checkpointing wraps both passes: each emitted document records which
    phase (UC or CB) is in flight, the finished UC summary once the CB
    pass starts, and the inner :func:`lazy_greedy` snapshot, so a resume
    lands mid-pass and still finishes both passes deterministically.
    """
    wants_checkpoint = (
        checkpoint_every is not None
        or checkpoint_sink is not None
        or resume_from is not None
    )
    if wants_checkpoint and not lazy:
        raise ConfigurationError("checkpointing requires the lazy solver")
    if not wants_checkpoint:
        runner = lazy_greedy if lazy else naive_greedy
        try:
            res_uc = runner(instance, UC)
        except DeadlineExceeded as exc:
            raise _rewrap_deadline(exc, UC, None)
        try:
            res_cb = runner(instance, CB)
        except DeadlineExceeded as exc:
            raise _rewrap_deadline(exc, CB, _summarize_run(res_uc))
        winner = res_cb if res_cb.value >= res_uc.value else res_uc
        winner.evaluations = res_uc.evaluations + res_cb.evaluations
        return winner

    uc_inner = cb_inner = None
    uc_summary: Optional[Dict[str, Any]] = None
    resumed_total: Optional[int] = None
    if resume_from is not None:
        try:
            if (
                resume_from.get("kind") != "main_algorithm"
                or resume_from.get("format") != _CKPT_FORMAT
            ):
                raise CheckpointError(
                    f"not a main_algorithm checkpoint: "
                    f"kind={resume_from.get('kind')!r}"
                )
            phase = resume_from["phase"]
            if phase == UC:
                uc_inner = resume_from["inner"]
            elif phase == CB:
                uc_summary = resume_from["uc"]
                cb_inner = resume_from["inner"]
            else:
                raise CheckpointError(f"unknown checkpoint phase {phase!r}")
            resumed_total = len(resume_from["inner"]["picks"]) + (
                len(uc_summary["picks"]) if uc_summary is not None else 0
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint document: {exc!r}") from exc

    def _outer_sink(phase: str, uc_doc: Optional[Dict[str, Any]]):
        if checkpoint_sink is None:
            return None

        def sink(inner_doc: Dict[str, Any]) -> None:
            done_before = len(uc_doc["picks"]) if uc_doc is not None else 0
            checkpoint_sink(
                {
                    "format": _CKPT_FORMAT,
                    "kind": "main_algorithm",
                    "phase": phase,
                    "uc": uc_doc,
                    "inner": inner_doc,
                    "progress": {
                        "phase": phase,
                        "picks": done_before + inner_doc["progress"]["picks"],
                    },
                }
            )

        return sink

    if uc_summary is None:
        try:
            res_uc = lazy_greedy(
                instance,
                UC,
                checkpoint_every=checkpoint_every,
                checkpoint_sink=_outer_sink(UC, None),
                resume_from=uc_inner,
            )
        except DeadlineExceeded as exc:
            raise _rewrap_deadline(exc, UC, None)
        uc_summary = _summarize_run(res_uc)
    else:
        res_uc = _run_from_summary(uc_summary)
    try:
        res_cb = lazy_greedy(
            instance,
            CB,
            checkpoint_every=checkpoint_every,
            checkpoint_sink=_outer_sink(CB, uc_summary),
            resume_from=cb_inner,
        )
    except DeadlineExceeded as exc:
        raise _rewrap_deadline(exc, CB, uc_summary)
    winner = res_cb if res_cb.value >= res_uc.value else res_uc
    winner.evaluations = res_uc.evaluations + res_cb.evaluations
    winner.resumed_at = resumed_total
    return winner


def _rewrap_deadline(
    exc: DeadlineExceeded, phase: str, uc_doc: Optional[Dict[str, Any]]
) -> DeadlineExceeded:
    """Lift an inner-pass deadline checkpoint to the two-phase wrapper.

    :func:`lazy_greedy` raises with its own ``lazy_greedy`` checkpoint
    document; re-keying it as a ``main_algorithm`` doc (phase + finished
    UC summary) means the standard resume path continues the interrupted
    two-phase solve and still finishes both passes deterministically.
    """
    inner = exc.checkpoint
    if isinstance(inner, dict) and inner.get("kind") == "lazy_greedy":
        done_before = len(uc_doc["picks"]) if uc_doc is not None else 0
        exc.checkpoint = {
            "format": _CKPT_FORMAT,
            "kind": "main_algorithm",
            "phase": phase,
            "uc": uc_doc,
            "inner": inner,
            "progress": {
                "phase": phase,
                "picks": done_before + inner["progress"]["picks"],
            },
        }
    return exc


def _summarize_run(run: GreedyRun) -> Dict[str, Any]:
    """JSON-safe summary of a finished pass, embedded in phase checkpoints."""
    return {
        "mode": run.mode,
        "selection": [int(p) for p in run.selection],
        "picks": [[int(p), float(g)] for p, g in run.picks],
        "value": float(run.value),
        "cost": float(run.cost),
        "evaluations": int(run.evaluations),
    }


def _run_from_summary(doc: Dict[str, Any]) -> GreedyRun:
    try:
        return GreedyRun(
            selection=[int(p) for p in doc["selection"]],
            value=float(doc["value"]),
            cost=float(doc["cost"]),
            mode=doc["mode"],
            evaluations=int(doc["evaluations"]),
            picks=[(int(p), float(g)) for p, g in doc["picks"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed pass summary in checkpoint: {exc!r}") from exc
