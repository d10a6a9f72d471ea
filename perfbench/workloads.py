"""The four PHOcus workloads: inputs, set-up, closed loop and checks.

Every workload is a closed loop, because PHOcus callers wait for their
answer.  Inputs come only from the seed; request bodies are encoded
before any timing starts.  Correctness checks run after the timed window
and every failed check counts as a failed operation.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import tracer
from harness import (
    BENCH_CPU, BenchError, FaultClock, Op, Request, ServerProcess, closed_loop, inprocess_loop,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REL_TOL = 1e-9  # reported value vs score() recomputed from scratch

SIZES = {
    "full": {
        "solve_inline": {"products": 1000, "queries": 83, "bodies": 3},
        "tenant_mix": {"products": 500, "queries": 41, "tenants": 8},
        "live_upload": {"photos": 10_000, "delta": 16, "max_uploads": 256},
        "archive_build": {"photos": 20_000},
    },
    "tiny": {
        "solve_inline": {"products": 40, "queries": 6, "bodies": 2},
        "tenant_mix": {"products": 30, "queries": 6, "tenants": 4},
        "live_upload": {"photos": 400, "delta": 8, "max_uploads": 64},
        "archive_build": {"photos": 600},
    },
}

# Operations per client that always complete, even past the deadline:
# the per-layer counts are taken from this deterministic prefix.
MIN_OPS = {"solve_inline": 3, "tenant_mix": 8, "live_upload": 4, "archive_build": 1}


@dataclass
class Outcome:
    """Everything a workload run measured, for the report."""

    workload: str
    primary: str
    clients: int
    shapes: Dict[str, Any]
    setup_seconds: List[float] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)  # untraced timed ops
    elapsed: float = 0.0
    traced_ops: List[Op] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    peak_rss_kb: int = 0
    spans: List[list] = field(default_factory=list)
    body_bytes: int = 0
    store_bytes: int = 0
    counts: Dict[str, Any] = field(default_factory=dict)
    global_checks: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        """Time one phase of the run (prepare, setup, window, verify)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + time.perf_counter() - t0

    def all_ops(self) -> List[Op]:
        return self.traced_ops + self.ops


# ------------------------------------------------------------------ helpers


def derived_seeds(seed: int, k: int) -> List[int]:
    """``k`` input seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=k)]


def ecommerce_instance(products: int, queries: int, seed: int):
    from repro.datasets.ecommerce import generate_ecommerce_dataset

    dataset = generate_ecommerce_dataset(
        "Fashion", products, n_queries=queries, name=f"bench-{seed}", seed=seed
    )
    return dataset.instance(dataset.total_cost() * 0.35)


def instance_shape(instance) -> Dict[str, int]:
    return {
        "photos": int(instance.n),
        "subsets": len(instance.subsets),
        "nnz": int(instance.similarity_nnz()),
    }


def workdir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def decode(op: Op) -> None:
    """Parse an answer after the timed window; non-2xx counts as a failure."""
    if op.error is not None:
        op.failure = op.error
        return
    if not 200 <= op.status < 300:
        op.failure = f"HTTP {op.status}: {op.raw[:200]!r}"
        return
    try:
        op.doc = json.loads(op.raw)
    except ValueError as exc:
        op.failure = f"undecodable answer: {exc}"


def check_solution(instance, doc: Dict[str, Any], reference: List[int]) -> Tuple[Optional[str], float]:
    """Feasible, contains S0, value == score(), equals the in-process answer.

    Returns ``(failure or None, quality)`` where quality is
    ``G(S) / online_bound(S)``.
    """
    from repro.core.bounds import online_bound
    from repro.core.objective import score

    selection = [int(p) for p in doc["selection"]]
    if not instance.retained.issubset(selection):
        return "selection misses S0", 0.0
    if not instance.feasible(selection):
        return "selection over budget", 0.0
    value = score(instance, selection)
    if not math.isclose(value, float(doc["value"]), rel_tol=REL_TOL, abs_tol=REL_TOL):
        return f"reported value {doc['value']} != score() {value}", 0.0
    if selection != reference:
        return "selection differs from the in-process answer", 0.0
    bound = online_bound(instance, selection)
    return None, (1.0 if bound <= 0 else value / bound)


# ------------------------------------------------------------ service runs


class ServiceWorkload:
    """Shared flow of the three workloads that go through ``PhocusService``."""

    name = ""
    primary = ""
    clients = 1
    uses_tenants = False
    # Set-ups per run; setup_s is their median.  Cheap set-ups repeat more:
    # a fresh interpreter starting takes about half a second, and the
    # median of three such starts spread 0.37 over ten runs.
    setup_repeats = 2

    def __init__(self, seed: int, size: Dict[str, Any], base: str) -> None:
        self.seed = seed
        self.size = size
        self.base = base

    # Subclasses define prepare(outcome), setup(server, op), plans() and
    # verify(outcome); warmup, after and inspect are optional hooks.

    def serve_args(self, root: str) -> List[str]:
        return ["--tenants-root", os.path.join(root, "tenants")] if self.uses_tenants else []

    def start(self, index: int, trace: bool) -> Tuple[ServerProcess, float]:
        root = workdir(self.base, f"setup{index}")
        t0 = time.perf_counter()
        server = ServerProcess(root, self.serve_args(root), trace)
        try:
            self.setup(server, op=f"setup:{index}" if trace else None)
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - t0

    def run(self, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome(self.name, self.primary, self.clients, {})
        with outcome.phase("prepare"):
            self.prepare(outcome)
        server = None
        try:
            with outcome.phase("setup"):
                for index in range(1 if trace else self.setup_repeats):
                    if server is not None:
                        server.stop()
                    server, took = self.start(index, trace)
                    outcome.setup_seconds.append(took)
                self.warmup(server)
            plans = self.plans()
            loop = dict(min_ops=MIN_OPS[self.name], after=self.after)
            with outcome.phase("window"):
                if trace:
                    outcome.traced_ops, _ = closed_loop(
                        server, plans, seconds, traced=True, phase="t", **loop
                    )
                outcome.ops, outcome.elapsed = closed_loop(
                    server, plans, seconds, traced=False, phase="u", **loop
                )
            with outcome.phase("verify"):
                self.inspect(server, outcome)
                stats = server.stop()
                server = None
        finally:
            if server is not None:
                server.kill()
        outcome.peak_rss_kb = int(stats["peak_rss_kb"])
        outcome.spans = stats["spans"]
        with outcome.phase("verify"):
            for op in outcome.all_ops():
                decode(op)
            self.verify(outcome)
        first = outcome.traced_ops or outcome.ops
        prefix = sorted(
            (op for op in first if op.seq < MIN_OPS[self.name]),
            key=lambda op: (op.client, op.seq),
        )
        outcome.counts = {
            "prefix": [
                self.op_counts(op) if op.doc is not None else {"failed": op.failure}
                for op in prefix
            ]
        }
        return outcome

    def warmup(self, server: ServerProcess) -> None:
        """Untimed requests between set-up and the timed window (default: none)."""

    def after(self, op: Op) -> None:
        """Untimed hook run after each answer (default: nothing)."""

    def inspect(self, server: ServerProcess, outcome: Outcome) -> None:
        """Untimed reads of the service's final state (default: nothing)."""


class SolveInline(ServiceWorkload):
    name = "solve_inline"
    primary = "solve"
    setup_repeats = 7

    def prepare(self, outcome: Outcome) -> None:
        from repro.core.serialize import instance_from_dict, instance_to_dict

        self.instances, self.bodies = [], []
        for s in derived_seeds(self.seed, self.size["bodies"]):
            doc = instance_to_dict(
                ecommerce_instance(self.size["products"], self.size["queries"], s)
            )
            self.bodies.append(json.dumps({"instance": doc, "certificate": True}).encode())
            # The reference decodes the same document the service decodes.
            self.instances.append(instance_from_dict(doc))
        outcome.shapes = dict(
            instance_shape(self.instances[0]),
            instances=len(self.bodies),
            body_bytes=int(np.mean([len(b) for b in self.bodies])),
        )

    def setup(self, server: ServerProcess, op: Optional[str]) -> None:
        server.call_json("GET", "/healthz")

    def plans(self) -> List[Iterator[Request]]:
        bodies = itertools.cycle(range(len(self.bodies)))
        return [(Request("solve", "POST", "/solve", self.bodies[k], key=k) for k in bodies)]

    def verify(self, outcome: Outcome) -> None:
        from repro.core.solver import solve

        references = [None] * len(self.instances)
        for op in outcome.all_ops():
            if op.failure is not None:
                continue
            k = op.request.key
            if references[k] is None:
                references[k] = solve(self.instances[k], "phocus")
            ref = references[k]
            failure, quality = check_solution(self.instances[k], op.doc, ref.selection)
            if failure is None:
                failure = _check_certificate(op.doc, quality)
            if failure is None and _greedy_counts(op.doc) != _greedy_counts(ref):
                failure = "evaluation counts differ from the in-process run"
            op.failure = failure
            if failure is None:
                outcome.quality.append(quality)
        outcome.body_bytes = sum(len(op.request.body) for op in outcome.ops if op.failure is None)

    def op_counts(self, op: Op) -> Dict[str, Any]:
        evaluations, picks = _greedy_counts(op.doc)
        return {"key": op.request.key, "evaluations": evaluations, "picks": picks}


def _greedy_counts(solution) -> Tuple[int, int]:
    extras = solution["extras"] if isinstance(solution, dict) else solution.extras
    return int(extras["evaluations"]), int(extras["picks"])


def _check_certificate(doc: Dict[str, Any], quality: float) -> Optional[str]:
    cert = doc.get("ratio_certificate")
    if cert is None or not math.isclose(float(cert), min(1.0, quality), rel_tol=REL_TOL):
        return f"ratio_certificate {cert} != G(S)/online_bound {quality}"
    return None


class TenantMix(ServiceWorkload):
    name = "tenant_mix"
    primary = "solve"
    # One client: with two, each solve's latency depends on whether the
    # other client's PUT holds the store lock or the interpreter, and the
    # run-to-run spread of the solve latency exceeded the 0.25 bound.
    clients = 1
    uses_tenants = True
    put_every = 5  # 1 in 5 operations is a PUT
    # Budget fractions of the two versions a PUT alternates between.
    variants = (0.35, 0.30)

    def prepare(self, outcome: Outcome) -> None:
        from repro.core.serialize import instance_from_dict, instance_to_dict

        self.tenants = [f"t{i}" for i in range(self.size["tenants"])]
        self.put_bodies: Dict[str, List[bytes]] = {}
        self.instances: Dict[str, list] = {}
        for tenant, s in zip(self.tenants, derived_seeds(self.seed, len(self.tenants))):
            doc = instance_to_dict(
                ecommerce_instance(self.size["products"], self.size["queries"], s)
            )
            base = instance_from_dict(doc)
            total = base.total_cost()
            doc.pop("budget")
            rest = json.dumps(doc)[1:]  # every key but the budget, and the closing brace
            self.put_bodies[tenant] = []
            self.instances[tenant] = []
            for fraction in self.variants:
                budget = total * fraction
                self.put_bodies[tenant].append(
                    f'{{"instance": {{"budget": {json.dumps(budget)}, {rest}}}'.encode()
                )
                self.instances[tenant].append(base.with_budget(budget))
        self.solve_bodies = {
            t: json.dumps(
                {"by_ref": {"tenant": t, "instance_id": "archive"}, "certificate": True}
            ).encode()
            for t in self.tenants
        }
        first = self.instances[self.tenants[0]][0]
        outcome.shapes = dict(
            instance_shape(first),
            tenants=len(self.tenants),
            body_bytes=int(np.mean([len(b[0]) for b in self.put_bodies.values()])),
            solve_body_bytes=len(self.solve_bodies[self.tenants[0]]),
        )

    def _path(self, tenant: str) -> str:
        return f"/tenants/{tenant}/instances/archive"

    def setup(self, server: ServerProcess, op: Optional[str]) -> None:
        for tenant in self.tenants:
            status, raw = server.call("PUT", self._path(tenant), self.put_bodies[tenant][0], op)
            if status != 201:
                raise BenchError(f"initial PUT for {tenant} answered {status}: {raw[:200]!r}")

    def warmup(self, server: ServerProcess) -> None:
        """Lease every tenant once (``/score`` of an empty selection) so the
        timed window sees cache misses only after writes."""
        for tenant in self.tenants:
            body = json.dumps(
                {"by_ref": {"tenant": tenant, "instance_id": "archive"}, "selection": []}
            ).encode()
            server.call_json("POST", "/score", body)

    def plans(self) -> List[Iterator[Request]]:
        return [self._plan()]

    def _plan(self) -> Iterator[Request]:
        # The seeded RNG deals the tenants in a fresh random order each
        # round, so every run touches each tenant equally often and the
        # work per run does not hinge on a lucky draw.  Every put_every-th
        # operation is a PUT; the sequence fixes every tenant's versions
        # and so every expected answer and cache hit.
        rng = np.random.default_rng(self.seed)
        owned = self.tenants
        variant = {t: 0 for t in owned}
        version = {t: 1 for t in owned}
        order = (owned[int(i)] for _ in itertools.count() for i in rng.permutation(len(owned)))
        for seq, tenant in enumerate(order):
            if seq % self.put_every == self.put_every - 1:
                variant[tenant] ^= 1
                version[tenant] += 1
                yield Request(
                    "put", "PUT", self._path(tenant),
                    self.put_bodies[tenant][variant[tenant]],
                    key=(tenant, variant[tenant]), expect={"version": version[tenant]},
                )
            else:
                yield Request(
                    "solve", "POST", "/solve", self.solve_bodies[tenant],
                    key=(tenant, variant[tenant]),
                )

    def verify(self, outcome: Outcome) -> None:
        from repro.core.solver import solve

        references: Dict[Tuple[str, int], Any] = {}

        def reference(tenant: str, v: int):
            if (tenant, v) not in references:
                references[tenant, v] = solve(self.instances[tenant][v], "phocus")
            return references[tenant, v]

        for op in outcome.all_ops():
            if op.failure is not None:
                continue
            tenant, v = op.request.key
            if op.request.kind == "put":
                stored = op.doc.get("stored", {})
                if stored.get("version") != op.request.expect["version"]:
                    op.failure = (
                        f"PUT stored version {stored.get('version')}, "
                        f"expected {op.request.expect['version']}"
                    )
                elif op in outcome.ops:
                    outcome.store_bytes += int(stored["nbytes"])
                continue
            instance = self.instances[tenant][v]
            ref = reference(tenant, v)
            failure, quality = check_solution(instance, op.doc, ref.selection)
            if failure is not None and op.doc["selection"] == reference(tenant, v ^ 1).selection:
                failure = "stale answer: solved the previous version after a PUT"
            if failure is None:
                failure = _check_certificate(op.doc, quality)
            if failure is None and _greedy_counts(op.doc) != _greedy_counts(ref):
                failure = "evaluation counts differ from the in-process run"
            op.failure = failure
            if failure is None:
                outcome.quality.append(quality)
        outcome.body_bytes = sum(len(op.request.body) for op in outcome.ops if op.failure is None)

    def op_counts(self, op: Op) -> Dict[str, Any]:
        if op.request.kind == "put":
            stored = op.doc["stored"]
            return {
                "put": list(op.request.key),
                "version": stored["version"],
                "stored_bytes": stored["nbytes"],
            }
        evaluations, picks = _greedy_counts(op.doc)
        return {
            "solve": list(op.request.key),
            "evaluations": evaluations,
            "picks": picks,
            "warm_cache_hit": op.doc.get("warm_cache_hit"),
        }


class LiveUpload(ServiceWorkload):
    name = "live_upload"
    primary = "upload"
    uses_tenants = True
    path = "/tenants/t0/instances/archive"

    def prepare(self, outcome: Outcome) -> None:
        from repro.scale import synthetic_archive

        n, k = self.size["photos"], self.size["delta"]
        total = n + k * self.size["max_uploads"]
        costs, embeddings = synthetic_archive(
            total, dim=16, clusters=max(16, n // 64), seed=self.seed
        )
        self.costs, self.embeddings = costs, embeddings
        self.budget = float(costs[:n].sum()) * 0.1
        self.tau = 0.8
        self.create_body = json.dumps(
            {
                "costs": costs[:n].tolist(),
                "embeddings": embeddings[:n].tolist(),
                "budget": self.budget,
                "tau": self.tau,
                "seed": self.seed,
            }
        ).encode()
        self.deltas = [
            (costs[s : s + k], embeddings[s : s + k]) for s in range(n, total, k)
        ]
        self.delta_bodies = [
            json.dumps(
                {"costs": c.tolist(), "embeddings": e.tolist(), "resolve": "warm"}
            ).encode()
            for c, e in self.deltas
        ]
        outcome.shapes = {
            "photos": n,
            "subsets": 1,
            "delta_photos": k,
            "create_body_bytes": len(self.create_body),
            "body_bytes": len(self.delta_bodies[0]),
        }
        self.uploaded = 0
        self.stored_sizes: Dict[str, int] = {}

    def setup(self, server: ServerProcess, op: Optional[str]) -> None:
        status, raw = server.call("POST", self.path + "/live", self.create_body, op)
        if status != 201:
            raise BenchError(f"live create answered {status}: {raw[:200]!r}")
        self.created = json.loads(raw)
        self.store_file = os.path.join(
            server.workdir, "tenants", "t0", "archive.inst"
        )

    def plans(self) -> List[Iterator[Request]]:
        path = self.path + "/photos"
        return [iter([Request("upload", "POST", path, body, key=i)
                      for i, body in enumerate(self.delta_bodies)])]

    def after(self, op: Op) -> None:
        # Bytes the store wrote for this upload: the size of the new blob.
        self.stored_sizes[op.op_id] = os.path.getsize(self.store_file)

    def inspect(self, server: ServerProcess, outcome: Outcome) -> None:
        self.final_status = server.call_json("GET", self.path + "/live")
        outcome.shapes["nnz"] = int(self.final_status["nnz"])

    def verify(self, outcome: Outcome) -> None:
        from repro.core.bounds import online_bound
        from repro.core.objective import score
        from repro.live.archive import LiveArchive
        from repro.live.resolve import cold_resolve, warm_resolve

        n, k = self.size["photos"], self.size["delta"]
        archive, _ = LiveArchive.create(
            self.costs[:n], self.embeddings[:n], self.budget, tau=self.tau, seed=self.seed
        )
        solved = cold_resolve(archive.instance)
        created = self.created["solution"]
        if created["selection"] != solved.selection or not math.isclose(
            created["value"], solved.value, rel_tol=REL_TOL, abs_tol=REL_TOL
        ):
            outcome.failures.append("live create answer differs from the in-process build")
        version = int(self.created["version"])
        acked = 0
        for op in outcome.traced_ops + outcome.ops:  # upload order
            i = op.request.key
            archive, report = archive.ingest(*self.deltas[i])
            solved = warm_resolve(archive.instance, solved.selection)
            if op.failure is not None:
                break  # later expectations depend on this upload
            acked += 1
            version += 1
            doc = op.doc
            sol = doc["solution"]
            delta = doc["delta"]
            failure = None
            if int(doc["version"]) != version:
                failure = f"version {doc['version']} after upload, expected {version}"
            elif (delta["candidate_pairs"], delta["kept_pairs"]) != (
                report.candidate_pairs, report.kept_pairs
            ):
                failure = "ingest pair counts differ from the in-process ingest"
            elif int(sol["evaluations"]) != solved.evaluations:
                failure = "warm re-solve evaluations differ from the in-process run"
            else:
                failure, quality = check_solution(archive.instance, sol, solved.selection)
                if failure is None and not math.isclose(
                    quality, 1.0 - float(doc["regret_bound"]), rel_tol=REL_TOL, abs_tol=REL_TOL
                ):
                    failure = f"quality {quality} disagrees with regret_bound {doc['regret_bound']}"
                if failure is None:
                    outcome.quality.append(quality)
            op.failure = failure
            if op in outcome.ops and failure is None:
                outcome.store_bytes += self.stored_sizes[op.op_id]
                outcome.body_bytes += len(op.request.body)
        outcome.global_checks = 3
        status = self.final_status
        if int(status["version"]) != version:
            outcome.failures.append(f"final version {status['version']}, expected {version}")
        if int(status["n_photos"]) != n + k * acked:
            outcome.failures.append(
                f"stored archive has {status['n_photos']} photos, expected {n + k * acked}"
            )

    def op_counts(self, op: Op) -> Dict[str, Any]:
        delta = op.doc["delta"]
        return {
            "upload": op.request.key,
            "version": op.doc["version"],
            "candidate_pairs": delta["candidate_pairs"],
            "kept_pairs": delta["kept_pairs"],
            "nnz": delta["nnz"],
            "evaluations": op.doc["solution"]["evaluations"],
            "stored_bytes": self.stored_sizes[op.op_id],
        }


# ------------------------------------------------------------ in process


class ArchiveBuild:
    """``phocus scale build --solve`` as a library call, no HTTP, no store."""

    name = "archive_build"
    primary = "job"
    clients = 1
    setup_repeats = 7

    def __init__(self, seed: int, size: Dict[str, Any], base: str) -> None:
        self.seed = seed
        self.size = size
        self.instance = None  # the first job's instance, kept for the checks

    def _job(self):
        import repro.core.greedy
        import repro.scale

        instance, report = repro.scale.build_streamed_instance(
            self.costs, self.embeddings, self.budget, tau=0.8, rng=self.seed
        )
        run = repro.core.greedy.main_algorithm(instance)
        if self.instance is None:
            self.instance = instance
        return report, run

    def _setup_once(self) -> float:
        """Cold start of the offline job: a fresh interpreter importing the library."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
             "import repro.scale, repro.core.greedy"],
            cwd=ROOT, check=True,
        )
        return time.perf_counter() - t0

    def run(self, seconds: float, trace: bool) -> Outcome:
        import resource

        from repro.scale import synthetic_archive

        # The job, and the interpreters set-up starts, run on the calibrated CPU.
        os.sched_setaffinity(0, {BENCH_CPU})
        clock = FaultClock()
        n = self.size["photos"]
        outcome = Outcome(self.name, self.primary, self.clients, {"photos": n, "subsets": 1, "dim": 16})
        with outcome.phase("prepare"):
            self.costs, self.embeddings = synthetic_archive(n, dim=16, seed=self.seed)
            self.budget = float(self.costs.sum()) * 0.1
        with outcome.phase("setup"):
            outcome.setup_seconds = [
                self._setup_once() for _ in range(1 if trace else self.setup_repeats)
            ]

        results = []
        with outcome.phase("window"):
            if trace:
                recorder = tracer.Recorder()
                tracer.install_core_layers(recorder)
                seq = iter(range(1 << 30))

                def traced_job():
                    with recorder.root(f"job:t:0:{next(seq)}", tracer.ROOT_INPROC):
                        return self._job()

                try:
                    jobs, _ = inprocess_loop(
                        traced_job, seconds, min_ops=MIN_OPS[self.name], clock=clock
                    )
                finally:
                    recorder.uninstall()
                outcome.traced_ops = self._ops(jobs, "t", traced=True)
                outcome.spans = recorder.export()
                results += jobs
            jobs, outcome.elapsed = inprocess_loop(
                self._job, seconds, min_ops=MIN_OPS[self.name], clock=clock
            )
            outcome.ops = self._ops(jobs, "u", traced=False)
            results += jobs
        outcome.peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        with outcome.phase("verify"):
            self._verify(outcome, [r for _s, _e, _speed, r in results])
        return outcome

    @staticmethod
    def _ops(jobs, phase: str, traced: bool) -> List[Op]:
        return [
            Op(Request("job", "CALL", "build+solve", b"", key=0), 0, i, f"job:{phase}:0:{i}",
               traced, s, e, speed=speed)
            for i, (s, e, speed, _r) in enumerate(jobs)
        ]

    def _verify(self, outcome: Outcome, results) -> None:
        """Every job built the same instance and returned the reference answer."""
        from repro.core.bounds import online_bound
        from repro.core.objective import score
        from repro.core.solver import solve

        instance = self.instance
        reference = solve(instance, "phocus")
        report = results[0][0]
        outcome.shapes["nnz"] = int(report.nnz)
        outcome.counts = {
            "candidate_pairs": int(report.candidate_pairs),
            "kept_pairs": int(report.kept_pairs),
            "nnz": int(report.nnz),
            "evaluations": int(reference.extras["evaluations"]),
            "picks": int(reference.extras["picks"]),
        }
        bound = online_bound(instance, reference.selection)
        for op, (rep, run) in zip(outcome.traced_ops + outcome.ops, results):
            selection = sorted(set(int(p) for p in run.selection) | instance.retained)
            counts = {
                "candidate_pairs": int(rep.candidate_pairs),
                "kept_pairs": int(rep.kept_pairs),
                "nnz": int(rep.nnz),
                "evaluations": int(run.evaluations),
                "picks": len(run.picks),
            }
            value = score(instance, selection)
            if counts != outcome.counts:
                op.failure = f"counts {counts} differ from the reference {outcome.counts}"
            elif not instance.feasible(selection):
                op.failure = "selection over budget or misses S0"
            elif not math.isclose(value, run.value, rel_tol=REL_TOL, abs_tol=REL_TOL):
                op.failure = f"reported value {run.value} != score() {value}"
            elif selection != reference.selection:
                op.failure = "selection differs from repro.core.solver.solve"
            else:
                outcome.quality.append(1.0 if bound <= 0 else value / bound)


WORKLOADS = {
    "solve_inline": SolveInline,
    "tenant_mix": TenantMix,
    "live_upload": LiveUpload,
    "archive_build": ArchiveBuild,
}
