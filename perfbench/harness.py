"""Client-side plumbing: the service process, HTTP calls, the closed loop."""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from tracer import OP_HEADER

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
HTTP_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (set-up or harness failure)."""


# The CPU the measured work runs on: the service process is pinned to it,
# and so is archive_build's in-process caller.
BENCH_CPU = max(os.sched_getaffinity(0))


class CpuClock:
    """How fast the benchmark CPU runs right now, from a fixed kernel timed on it.

    The vCPUs of a shared host change speed, by up to 1.7x and each on its
    own, both within milliseconds and for tens of seconds at a time, so a
    raw timing says as much about the host as about the program.
    ``factor()`` times a fixed kernel of pure Python, JSON encoding and a
    numpy sort, the three kinds of work the program does, on
    ``BENCH_CPU`` and returns ``REFERENCE_S`` over its mean time: 1.0 at
    the reference speed, below 1 when the CPU is slower.  A duration
    times the mean factor of the calibrations just before and just after
    it is the duration at the reference speed.  A calibration runs the
    kernel ``TRIES`` times, and longer after a long operation (``SHARE``
    of its duration), so that the estimate of a long operation's speed
    rests on as many samples of the fast speed changes as it spans.
    """

    REFERENCE_S = 0.010  # about the kernel's time on an uncontended vCPU of the 2-vCPU test host
    TRIES = 3
    SHARE = 0.05

    def __init__(self, cpu: int = BENCH_CPU) -> None:
        self.cpu = cpu
        self._floats = [i * 0.37 for i in range(8000)]
        self._array = np.random.default_rng(0).random(200_000)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        json.dumps(self._floats)
        total = 0
        for i in range(80_000):
            total += i
        np.sort(self._array)
        return time.perf_counter() - t0

    def factor(self, after_s: float = 0.0) -> float:
        """The speed factor now, after an operation of ``after_s`` seconds."""
        previous = os.sched_getaffinity(0)  # of the calling thread only
        os.sched_setaffinity(0, {self.cpu})
        try:
            times: List[float] = []
            t_end = time.perf_counter() + self.SHARE * after_s
            while len(times) < self.TRIES or time.perf_counter() < t_end:
                times.append(self._kernel())
        finally:
            os.sched_setaffinity(0, previous)
        return self.REFERENCE_S * len(times) / sum(times)


class FaultClock(CpuClock):
    """A ``CpuClock`` whose kernel writes a fresh 32 MB array: page faults.

    archive_build's job is mostly vectorised numpy over arrays large
    enough that each one is a fresh mapping, so it slows with the host's
    page-fault cost rather than with its instruction speed.  Against the
    job's time, the ``CpuClock`` kernel had a log-log slope of 0.5 and
    scaling by it left the spread as it was; this kernel's slope was
    1.1 and scaling by it cut the job's variation from 0.11 to 0.07.
    """

    REFERENCE_S = 0.004  # about the kernel's time on an uncontended vCPU of the 2-vCPU test host

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        np.empty(4_000_000).fill(1.0)
        return time.perf_counter() - t0


class ServerProcess:
    """``phocus serve`` in a child process, on an ephemeral port."""

    def __init__(self, workdir: str, serve_args: List[str], trace: bool) -> None:
        self.workdir = workdir
        self.stats_path = os.path.join(workdir, "server_stats.json")
        self.stderr_path = os.path.join(workdir, "server.stderr")
        cmd = [sys.executable, "-u", os.path.join(HERE, "server.py"), "--stats", self.stats_path,
               "--cpu", str(BENCH_CPU)]
        if trace:
            cmd.append("--trace")
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd + ["--", "--port", "0", *serve_args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=os.path.dirname(HERE),
        )
        self.host, self.port = self._await_address()

    def _await_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT
        buf = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.decode("utf-8", "replace").splitlines():
                    marker = "listening on http://"
                    if marker in line:
                        host, port = line.split(marker, 1)[1].strip().rsplit(":", 1)
                        return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise BenchError(f"service did not start: {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        try:
            with open(self.stderr_path, "rb") as fh:
                return fh.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def stop(self) -> Dict[str, Any]:
        """Stop the service, wait for it, and return its stats.

        SIGINT is the CLI's fast exit: ``PhocusService.stop`` closes the
        listener, the job workers and the warm cache's segments without
        the half-second polling of the SIGTERM drain.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.kill()
                raise BenchError("service did not stop after SIGINT")
        self._stderr.close()
        try:
            with open(self.stats_path) as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"service wrote no stats ({exc}): {self.stderr_tail()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        if not self._stderr.closed:
            self._stderr.close()

    def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        op: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, raw body)``."""
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers[OP_HEADER] = op
        conn = http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def call_json(self, method: str, path: str, body: Optional[bytes] = None) -> Dict[str, Any]:
        """An untimed set-up or inspection call that must succeed."""
        status, raw = self.call(method, path, body)
        if not 200 <= status < 300:
            raise BenchError(f"{method} {path} answered {status}: {raw[:300]!r}")
        return json.loads(raw)


@dataclass
class Request:
    """One operation of a workload's deterministic sequence."""

    kind: str
    method: str
    path: str
    body: bytes
    key: Any = None
    expect: Dict[str, Any] = field(default_factory=dict)


@dataclass(eq=False)
class Op:
    """A completed operation, timed on the client."""

    request: Request
    client: int
    seq: int
    op_id: str
    traced: bool
    start: float
    end: float
    status: int = 0
    raw: bytes = b""
    error: Optional[str] = None
    doc: Optional[Dict[str, Any]] = None
    failure: Optional[str] = None
    speed: float = 1.0  # mean clock factor of the calibrations around the operation

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def ref_latency_ms(self) -> float:
        """The latency at the reference CPU speed."""
        return self.latency_ms * self.speed


def closed_loop(
    server: ServerProcess,
    plans: List[Iterator[Request]],
    seconds: float,
    *,
    min_ops: int,
    traced: bool,
    phase: str,
    after: Optional[Callable[[Op], None]] = None,
) -> Tuple[List[Op], float]:
    """Run one closed-loop client per plan for ``seconds``.

    Each client sends its next request only after the previous answer
    arrived, and takes the next request from its plan only when it will
    send it, so a plan can continue in a later phase.  A client keeps
    going past the deadline until it completed ``min_ops`` operations, so
    the deterministic prefix that counts are taken from always exists.
    ``after`` runs outside the timed interval of each operation, and so
    does the ``CpuClock`` calibration that sets each operation's speed.
    Returns the operations and the time from the start to the last
    completion.
    """
    clock = CpuClock()
    ops: List[List[Op]] = [[] for _ in plans]
    errors: List[BaseException] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client(idx: int) -> None:
        try:
            seq = 0
            speed = clock.factor()
            while time.perf_counter() < deadline or seq < min_ops:
                req = next(plans[idx], None)
                if req is None:
                    return
                op_id = f"{req.kind}:{phase}:{idx}:{seq}"
                start = time.perf_counter()
                op = Op(req, idx, seq, op_id, traced, start, start)
                try:
                    op.status, op.raw = server.call(
                        req.method, req.path, req.body, op_id if traced else None
                    )
                except (OSError, http.client.HTTPException) as exc:
                    op.error = f"transport: {exc!r}"
                op.end = time.perf_counter()
                ops[idx].append(op)
                if after is not None:
                    after(op)
                before, speed = speed, clock.factor(op.end - op.start)
                op.speed = (before + speed) / 2.0
                seq += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plans))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    done = [op for client_ops in ops for op in client_ops]
    elapsed = max((op.end for op in done), default=t0) - t0
    return done, elapsed


def inprocess_loop(
    job: Callable[[], Any], seconds: float, *, min_ops: int, clock: CpuClock
) -> Tuple[List[Tuple[float, float, float, Any]], float]:
    """Closed loop of one in-process caller pinned to ``clock.cpu``.

    Returns ``(start, end, speed, result)`` per job, ``speed`` being the
    mean ``clock`` factor of the calibrations just before and after it.
    """
    out: List[Tuple[float, float, float, Any]] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    speed = clock.factor()
    while True:
        now = time.perf_counter()
        if now >= deadline and len(out) >= min_ops:
            break
        result = job()
        end = time.perf_counter()
        before, speed = speed, clock.factor(end - now)
        out.append((now, end, (before + speed) / 2.0, result))
    return out, (out[-1][1] - t0) if out else 0.0


# --------------------------------------------------------------- statistics


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: List[float]) -> float:
    return quantile(values, 0.5)


TAIL_GRID = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest grid percentile with >= 10 samples beyond it."""
    n = len(values)
    for q in TAIL_GRID:
        if n * (1.0 - q) >= 10:
            return q * 100.0, quantile(values, q)
    return None
