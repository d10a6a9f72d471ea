"""Steadiness check: repeat one workload and compare each metric's spread with its bound.

    python3 perfbench/steady.py --workload tenant_mix --runs 5 [--first-seed 1]
    python3 perfbench/steady.py --workload live_upload --runs 2 --same-seed

Each run is a fresh ``perfbench/run.py`` process with the next seed (or the
same seed with ``--same-seed``).  For every end-to-end metric this prints
the median, the quartiles as ``statistics.quantiles(values, n=4)`` gives
them, and the spread ``(q3 - q1) / median`` against the metric's bound in
BENCHMARK.json.  With ``--same-seed`` it also asserts that the counts in
the ``detail`` record repeat exactly and names any that do not; stored
sizes may differ by the width of the envelope's timestamps.  Exits 1
when a run fails, a spread exceeds its bound (``setup_s`` excepted: only
its median is compared between runs), or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return {"result": json.loads(lines[-1]), "detail": detail}


# Stored envelopes carry wall-clock timestamps (created_at, updated_at and
# the live curation times) whose printed width varies by a few digits, so
# stored sizes may differ by this many bytes between runs of one seed.
STORED_BYTES_SLACK = 64


def count_differences(a: Any, b: Any, path: str = "counts") -> List[str]:
    """Paths at which two count records differ beyond the timestamp slack."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            out += count_differences(a.get(key), b.get(key), f"{path}.{key}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = [] if len(a) == len(b) else [f"{path} (length {len(a)} vs {len(b)})"]
        for i, (x, y) in enumerate(zip(a, b)):
            out += count_differences(x, y, f"{path}[{i}]")
        return out
    if path.endswith("stored_bytes") and isinstance(a, int) and isinstance(b, int):
        return [] if abs(a - b) <= STORED_BYTES_SLACK else [f"{path}: {a} vs {b}"]
    return [] if a == b else [f"{path}: {a!r} vs {b!r}"]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args(argv)

    runs = []
    for i in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + i
        runs.append(run_once(args.workload, seed, args.seconds, 0))
        metrics = runs[-1]["result"]["metrics"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4f}" for k, v in metrics.items()),
              flush=True)

    ok = True
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for metric in bench["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("inf")
        if metric["name"] == "setup_s":
            verdict = "median only"
        elif spread <= metric["bound"] / 3:
            verdict = "steady (< bound/3)"
        elif spread <= metric["bound"]:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
            ok = False
        print(f"{metric['name']:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.4f} {metric['bound']:>6.3f}  {verdict}")

    if args.same_seed:
        first = runs[0]["detail"]["counts"]
        diffs = []
        for i, run in enumerate(runs[1:], start=2):
            diffs += [f"run 1 vs run {i}: {d}" for d in count_differences(first, run["detail"]["counts"])]
        for diff in diffs:
            print(f"count did not repeat, {diff}")
        if not diffs:
            print("counts repeated exactly in every run")
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
