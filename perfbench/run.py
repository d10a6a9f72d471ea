"""PHOcus benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: solve_inline, tenant_mix, live_upload, archive_build (see
perfbench/README.md).  The service workloads drive the real ``phocus
serve`` over HTTP from this process; archive_build calls the library in
process.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a separate traced window.  Earlier
stdout lines are the human-readable report and a ``detail`` record; the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any correctness check failed and 2 when the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# (name, unit, better) of every metric; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_mean_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("quality", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

TIME_LAYERS = [
    "service.json_decode",
    "serialize.decode",
    "serialize.encode",
    "instance.incidence",
    "greedy.uc",
    "greedy.cb",
    "objective.score",
    "bounds.online_bound",
    "worker.execute_self",
    "tenants.lease",
    "tenants.store_get",
    "tenants.store_put",
    "tenants.put_validate",
    "tenants.pack",
    "live.ingest",
    "live.warm_resolve",
    "live.to_doc",
    "live.commit",
]
SCALE_PHASES = ["signatures", "candidates", "verify", "assemble"]
PER_LAYER = (
    [("service.handle_ms", "ms"), ("service.transport_ms", "ms")]
    + [(f"{name}_ms", "ms") for name in TIME_LAYERS]
    + [
        ("greedy.evals", "count"),
        ("greedy.evals_per_pick", "ratio"),
        ("tenants.lease_hit_rate", "ratio"),
        ("tenants.bytes_written", "bytes"),
        ("live.candidate_pairs", "count"),
        ("live.kept_pairs", "count"),
        ("live.warm_evals", "count"),
        ("live.bytes_per_upload", "bytes"),
        ("scale.build_ms", "ms"),
        ("scale.candidate_pairs", "count"),
        ("scale.kept_pairs", "count"),
        ("scale.verify_yield", "ratio"),
    ]
    + [(f"scale.phase_{p}_ms", "ms") for p in SCALE_PHASES]
    + [
        ("trace.unattributed_ms", "ms"),
        ("trace.unattributed_share", "ratio"),
        ("trace.traced_p50_ms", "ms"),
        ("trace.untraced_p50_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_share", "ratio"),
    ]
)


def git_commit() -> str:
    """HEAD of the checkout's own repository, read without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# ------------------------------------------------------------------ metrics


def end_to_end(outcome, harness) -> Dict[str, float]:
    # Operation times are at the reference CPU speed (harness.CpuClock,
    # FaultClock for archive_build): the host's vCPUs change speed by up
    # to 1.7x for tens of seconds, which moved the raw mean of live_upload
    # by a quarter between runs.  Set-up times stay raw: two calibrations
    # around a set-up of a few seconds added more spread than they took
    # away.  The gate takes the mean latency: on tenant_mix the solve
    # latencies are multimodal (warm, waiting on a PUT, cold) and their
    # median moves twice as much from run to run as their mean.  The
    # report lines print the raw means, medians and tails.
    primary = [op.ref_latency_ms for op in outcome.ops if op.request.kind == outcome.primary]
    return {
        "setup_s": harness.median(outcome.setup_seconds),
        "latency_mean_ms": sum(primary) / len(primary),
        "ops_per_s": ops_per_second(outcome.ops, reference=True),
        "quality": sum(outcome.quality) / len(outcome.quality) if outcome.quality else 0.0,
        "peak_rss_mb": outcome.peak_rss_kb / 1024.0,
    }


def ops_per_second(ops, reference: bool) -> float:
    """Operations per second of time spent in them: the closed loop's rate
    without the calibrations and checks between operations."""
    busy_ms = sum(op.ref_latency_ms if reference else op.latency_ms for op in ops)
    return 1000.0 * len(ops) / busy_ms


def per_layer(outcome, harness, tracer, min_ops: int) -> Dict[str, float]:
    """Self time per layer, counts, the unattributed share and tracing overhead.

    Times are means per traced operation, so the layers of one workload
    add up to its latency.  Counts come from the deterministic prefix of
    the traced window; build metrics are per build call.
    """
    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    selfs = tracer.self_seconds(outcome.spans)
    groups = tracer.by_op(outcome.spans)
    ops = outcome.traced_ops
    n = max(len(ops), 1)
    latency = handle = unattributed = 0.0
    for op in ops:
        root = None
        for span in groups.get(op.op_id, []):
            if span[1] is None:
                root = span
            elif span[3] in TIME_LAYERS:
                out[f"{span[3]}_ms"] += selfs[span[0]] * 1000.0 / n
        latency += op.end - op.start
        if root is None:  # no server-side record: all of it is unattributed
            unattributed += op.end - op.start
            continue
        unattributed += selfs[root[0]]
        if root[3] == tracer.ROOT_HTTP:
            handle += root[5] - root[4]
    if outcome.workload != "archive_build":
        out["service.handle_ms"] = handle * 1000.0 / n
        out["service.transport_ms"] = (latency - handle) * 1000.0 / n
    out["trace.unattributed_ms"] = unattributed * 1000.0 / n
    out["trace.unattributed_share"] = unattributed / latency if latency else 0.0

    prefix = {op.op_id for op in ops if op.seq < min_ops}
    sums: Dict[str, float] = defaultdict(float)
    for _sid, _parent, op_id, name, _t0, _t1, attrs in outcome.spans:
        if op_id not in prefix:
            continue
        if name in ("greedy.uc", "greedy.cb"):
            sums["evals"] += attrs["evals"]
            sums["picks"] += attrs["picks"]
        elif name == "tenants.lease":
            sums["leases"] += 1
            sums["hits"] += attrs["hit"]
        elif name in ("tenants.store_put", "live.commit"):
            sums["bytes"] += attrs["bytes"]
        elif name == "live.ingest":
            sums["ingests"] += 1
            sums["live_candidates"] += attrs["candidate_pairs"]
            sums["live_kept"] += attrs["kept_pairs"]
        elif name == "live.warm_resolve":
            sums["warm"] += 1
            sums["warm_evals"] += attrs["evals"]
    n_prefix = max(len(prefix), 1)
    out["greedy.evals"] = sums["evals"] / n_prefix
    out["greedy.evals_per_pick"] = sums["evals"] / sums["picks"] if sums["picks"] else 0.0
    out["tenants.lease_hit_rate"] = sums["hits"] / sums["leases"] if sums["leases"] else 0.0
    out["tenants.bytes_written"] = sums["bytes"] / n_prefix
    if sums["ingests"]:
        out["live.candidate_pairs"] = sums["live_candidates"] / sums["ingests"]
        out["live.kept_pairs"] = sums["live_kept"] / sums["ingests"]
        out["live.bytes_per_upload"] = sums["bytes"] / sums["ingests"]
    if sums["warm"]:
        out["live.warm_evals"] = sums["warm_evals"] / sums["warm"]

    # Per build call, wherever it ran: the live set-up builds once.
    builds = [s for s in outcome.spans if s[3] == "scale.build"]
    if builds:
        k = len(builds)
        cand = sum(s[6]["candidate_pairs"] for s in builds)
        kept = sum(s[6]["kept_pairs"] for s in builds)
        out["scale.build_ms"] = 1000.0 * sum(selfs[s[0]] for s in builds) / k
        out["scale.candidate_pairs"] = cand / k
        out["scale.kept_pairs"] = kept / k
        out["scale.verify_yield"] = kept / cand if cand else 0.0
        for phase in SCALE_PHASES:
            out[f"scale.phase_{phase}_ms"] = 1000.0 * sum(
                s[6].get(f"phase_{phase}", 0.0) for s in builds
            ) / k

    # At the reference speed, so the difference is tracing, not the host.
    traced = [op.ref_latency_ms for op in ops if op.request.kind == outcome.primary]
    untraced = [op.ref_latency_ms for op in outcome.ops if op.request.kind == outcome.primary]
    out["trace.traced_p50_ms"] = harness.median(traced)
    out["trace.untraced_p50_ms"] = harness.median(untraced)
    out["trace.overhead_ms"] = out["trace.traced_p50_ms"] - out["trace.untraced_p50_ms"]
    out["trace.overhead_share"] = out["trace.overhead_ms"] / out["trace.untraced_p50_ms"]
    return out


def named_metrics(outcome, harness) -> List[tuple]:
    """The per-workload report metrics: ``(name, value, unit, better, note)``."""
    rows = [("setup_s", harness.median(outcome.setup_seconds), "s", "lower",
             f"median of {len(outcome.setup_seconds)} set-ups")]
    primary = [op for op in outcome.ops if op.request.kind == outcome.primary]
    raw_mean = sum(op.latency_ms for op in primary) / len(primary)
    rate, raw_rate = ops_per_second(outcome.ops, True), ops_per_second(outcome.ops, False)

    def at_ref(raw: float) -> str:
        return f"at reference CPU speed; raw {raw:.4g}"

    rows.append(("latency_mean_ms", sum(op.ref_latency_ms for op in primary) / len(primary),
                 "ms", "lower", f"{outcome.primary}, {at_ref(raw_mean)}"))
    for kind in ("solve", "put", "upload"):
        lat = [op.latency_ms for op in outcome.ops if op.request.kind == kind]
        if not lat:
            continue
        rows.append((f"{kind}_p50_ms", harness.median(lat), "ms", "lower", f"n={len(lat)}"))
        if kind == outcome.primary:
            tail = harness.tail(lat)
            if tail is None:
                rows.append((f"{kind}_tail_ms", None, "ms", "lower",
                             f"n={len(lat)}: fewer than 20 samples, no percentile has 10 beyond it"))
            else:
                rows.append((f"{kind}_tail_ms", tail[1], "ms", "lower", f"p{tail[0]:g} of n={len(lat)}"))
    if outcome.workload == "archive_build":
        rows.append(("photos_per_s", outcome.shapes["photos"] * rate, "1/s", "higher",
                     f"{len(outcome.ops)} build+solve jobs, {at_ref(outcome.shapes['photos'] * raw_rate)}"))
    rows.append(("ops_per_s", rate, "1/s", "higher",
                 f"{len(outcome.ops)} ops in a {outcome.elapsed:.2f} s window, {at_ref(raw_rate)}"))
    attempted, failed = tally(outcome)
    rows.append(("error_rate", failed / attempted, "ratio", "lower", f"{failed}/{attempted}"))
    q = outcome.quality
    rows.append(("quality", sum(q) / len(q) if q else 0.0, "ratio", "higher",
                 f"mean G(S)/online_bound(S) of {len(q)} answers"))
    if outcome.workload in ("tenant_mix", "live_upload"):
        amp = outcome.store_bytes / outcome.body_bytes if outcome.body_bytes else 0.0
        rows.append(("write_amp", amp, "ratio", "lower",
                     f"{outcome.store_bytes} store bytes / {outcome.body_bytes} body bytes"))
    rows.append(("peak_rss_mb", outcome.peak_rss_kb / 1024.0, "MB", "lower",
                 "service process" if outcome.workload != "archive_build" else "this process"))
    return rows


def tally(outcome):
    """``(attempted, failed)``: every checked operation plus the global checks."""
    ops = outcome.all_ops()
    attempted = len(ops) + outcome.global_checks
    failed = sum(op.failure is not None for op in ops) + len(outcome.failures)
    return attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve_inline", "tenant_mix", "live_upload", "archive_build"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness
    import tracer
    import workloads

    base = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size][args.workload], base
    )
    try:
        outcome = workload.run(args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError):
        bench = {}
    attempted, failed = tally(outcome)
    min_ops = workloads.MIN_OPS[args.workload]
    if args.trace:
        values = per_layer(outcome, harness, tracer, min_ops)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(outcome, harness)
        units = {name: unit for name, unit, _better in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients={outcome.clients}")
    why = {w["name"]: w["why"] for w in bench.get("workloads", [])}
    print(f"  why: {why.get(args.workload, '')}")
    print("  inputs: " + " ".join(f"{k}={v}" for k, v in outcome.shapes.items()))
    env = environment()
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<28} {values[name]:>14.4f} {unit}")
    else:
        for name, value, unit, better, note in named_metrics(outcome, harness):
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"  {name:<16} {shown:>14} {unit:<6} {better} is better  ({note})")
    for failure in outcome.failures + [f"{op.op_id}: {op.failure}" for op in outcome.all_ops() if op.failure]:
        print(f"  FAILED {failure}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed",
        "clients": outcome.clients,
        "env": env,
        "shapes": outcome.shapes,
        "setup_seconds": outcome.setup_seconds,
        "cpu": harness.BENCH_CPU,
        "cpu_speed": [round(op.speed, 4) for op in outcome.ops],
        "phase_seconds": outcome.phase_seconds,
        "samples": {k: sum(op.request.kind == k for op in outcome.ops)
                    for k in sorted({op.request.kind for op in outcome.ops})},
        "counts": outcome.counts,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
