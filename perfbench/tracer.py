"""Span recorder for the traced benchmark run.

The recorder wraps public layer functions at the names their callers look
them up under (``repro.jobs.worker.instance_from_dict``,
``repro.core.greedy.lazy_greedy``, ...), so nothing under ``src/`` changes.
Spans stay in memory and are exported once, when the traced process ends.

A span is ``(id, parent_id, op, name, start, end, attrs)``.  The parent
comes from a thread-local stack; ``op`` is the operation id the client sent
in the :data:`OP_HEADER` request header (or that an in-process caller
passed to :meth:`Recorder.root`).  A wrapper records nothing unless a root
span is open on its thread, so requests sent without the header run the
original code behind one attribute check.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

OP_HEADER = "X-Perfbench-Op"

# Span names are layer names; a per-layer time metric is "<name>_ms".
ROOT_HTTP = "service.handle"
ROOT_INPROC = "bench.op"

# A span name, or a function of (stack, args, kwargs) that picks one.
NameSpec = Union[str, Callable[[List[list], tuple, dict], str]]
Span = Tuple[int, Optional[int], str, str, float, float, Dict[str, Any]]


class Recorder:
    """Thread-safe in-memory span store with per-thread nesting stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- spans

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, op: str, name: str, **attrs: Any):
        """Open the root span of operation ``op`` on this thread."""
        stack = self._stack()
        frame = [next(self._ids), None, op, name, time.perf_counter(), 0.0, attrs]
        stack.append(frame)
        try:
            yield frame
        finally:
            self._close(stack, frame)

    def begin(self, name: NameSpec, args: tuple = (), kwargs: Optional[dict] = None) -> Optional[list]:
        """Open a child span, or return ``None`` outside any root span."""
        stack = self._stack()
        if not stack:
            return None
        parent = stack[-1]
        label = name(stack, args, kwargs or {}) if callable(name) else name
        frame = [next(self._ids), parent[0], parent[2], label, time.perf_counter(), 0.0, {}]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        self._close(self._stack(), frame)

    def _close(self, stack: List[list], frame: list) -> None:
        frame[5] = time.perf_counter()
        stack.pop()
        self.spans.append(tuple(frame))  # list.append is atomic under the GIL

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: NameSpec,
        attrs_of: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a function that records a span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = recorder.begin(name, args, kwargs)
            if frame is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    frame[6].update(attrs_of(args, kwargs, result))
                return result
            finally:
                recorder.end(frame)

        self._replace(owner, attr, original, traced)

    def wrap_enter(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs_of: Callable[[Any], Dict[str, Any]],
    ) -> None:
        """Time only the ``__enter__`` of a context-manager factory."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return _TimedEnter(recorder, name, original(*args, **kwargs), attrs_of)

        self._replace(owner, attr, original, traced)

    def wrap_root(self, owner: Any, attr: str) -> None:
        """Wrap ``handle_request``: requests carrying :data:`OP_HEADER` open a root."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(method, path, body, *args, **kwargs):
            headers = kwargs.get("headers")
            op = headers.get(OP_HEADER) if headers is not None else None
            if op is None:
                return original(method, path, body, *args, **kwargs)
            with recorder.root(op, ROOT_HTTP, path=path):
                return original(method, path, body, *args, **kwargs)

        self._replace(owner, attr, original, traced)

    def _replace(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def export(self) -> List[list]:
        return [list(span) for span in self.spans]


class _TimedEnter:
    def __init__(self, recorder: Recorder, name: str, cm: Any, attrs_of) -> None:
        self._recorder, self._name, self._cm, self._attrs_of = recorder, name, cm, attrs_of

    def __enter__(self):
        frame = self._recorder.begin(self._name)
        if frame is None:
            return self._cm.__enter__()
        try:
            value = self._cm.__enter__()
            frame[6].update(self._attrs_of(value))
            return value
        finally:
            self._recorder.end(frame)

    def __exit__(self, *exc_info):
        return self._cm.__exit__(*exc_info)


# ------------------------------------------------------------ layer table


def _greedy_name(stack: List[list], args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "CB")
    return "greedy.uc" if mode == "UC" else "greedy.cb"


def _greedy_attrs(args, kwargs, run) -> Dict[str, Any]:
    return {"evals": int(run.evaluations), "picks": len(run.picks)}


def _scale_attrs(args, kwargs, result) -> Dict[str, Any]:
    report = result[1]
    attrs = {
        "candidate_pairs": int(report.candidate_pairs),
        "kept_pairs": int(report.kept_pairs),
    }
    for phase, seconds in report.phase_seconds.items():
        attrs[f"phase_{phase}"] = float(seconds)
    return attrs


def _ingest_attrs(args, kwargs, result) -> Dict[str, Any]:
    report = result[1]
    return {
        "candidate_pairs": int(report.candidate_pairs),
        "kept_pairs": int(report.kept_pairs),
    }


def _put_name(stack: List[list], args: tuple, kwargs: dict) -> str:
    # The live routes (.../live, .../photos) commit through the same store
    # put as a tenant PUT.
    path = str(stack[0][6].get("path", "")).rstrip("/")
    return "live.commit" if path.endswith(("/live", "/photos")) else "tenants.store_put"


def _decode_name(stack: List[list], args: tuple, kwargs: dict) -> str:
    # repro.tenants decodes both to validate a PUT and to load a cold lease.
    return "serialize.decode" if stack[-1][3] == "tenants.lease" else "tenants.put_validate"


def install_core_layers(recorder: Recorder) -> None:
    """Solver-side layers shared by the service and the in-process workload."""
    core_instance = importlib.import_module("repro.core.instance")
    recorder.wrap(core_instance, "build_incidence", "instance.incidence")
    greedy = importlib.import_module("repro.core.greedy")
    recorder.wrap(greedy, "lazy_greedy", _greedy_name, _greedy_attrs)
    scale = importlib.import_module("repro.scale")
    recorder.wrap(scale, "build_streamed_instance", "scale.build", _scale_attrs)
    solver = importlib.import_module("repro.core.solver")
    recorder.wrap(solver, "score", "objective.score")
    recorder.wrap(solver, "online_bound", "bounds.online_bound")
    bounds = importlib.import_module("repro.core.bounds")
    recorder.wrap(bounds, "online_bound", "bounds.online_bound")


def install_service_layers(recorder: Recorder) -> None:
    """Every layer a request through ``PhocusService`` can reach."""
    install_core_layers(recorder)
    service = importlib.import_module("repro.system.service")
    recorder.wrap_root(service, "handle_request")
    proxy = types.SimpleNamespace(
        **{k: getattr(json, k) for k in dir(json) if not k.startswith("__")}
    )
    recorder.wrap(proxy, "loads", "service.json_decode")
    recorder._replace(service, "json", json, proxy)
    recorder.wrap(service, "execute_solve_payload", "worker.execute_self")

    worker = importlib.import_module("repro.jobs.worker")
    recorder.wrap(worker, "instance_from_dict", "serialize.decode")
    recorder.wrap(worker, "solution_to_dict", "serialize.encode")
    recorder.wrap(worker, "score", "objective.score")

    tenants = importlib.import_module("repro.tenants")
    recorder.wrap(tenants, "instance_from_dict", _decode_name)
    recorder.wrap_enter(
        tenants.Tenants, "lease_for_solve", "tenants.lease", lambda v: {"hit": bool(v[1])}
    )
    store = importlib.import_module("repro.tenants.store")
    recorder.wrap(store.TenantStore, "get", "tenants.store_get")
    recorder.wrap(
        store.TenantStore, "put", _put_name, lambda a, k, meta: {"bytes": int(meta.nbytes)}
    )
    cache = importlib.import_module("repro.tenants.cache")
    recorder.wrap(cache, "SharedInstance", "tenants.pack")

    archive = importlib.import_module("repro.live.archive")
    recorder.wrap(archive.LiveArchive, "ingest", "live.ingest", _ingest_attrs)
    recorder.wrap(archive.LiveArchive, "to_doc", "live.to_doc")
    recorder.wrap(archive, "build_streamed_instance", "scale.build", _scale_attrs)
    recorder.wrap(archive, "instance_from_dict", "serialize.decode")
    manager = importlib.import_module("repro.live.manager")
    recorder.wrap(
        manager,
        "warm_resolve",
        "live.warm_resolve",
        lambda a, k, res: {"evals": int(res.evaluations)},
    )
    resolve = importlib.import_module("repro.live.resolve")
    recorder.wrap(resolve, "lazy_greedy", _greedy_name, _greedy_attrs)
    recorder.wrap(resolve, "online_bound", "bounds.online_bound")


# ------------------------------------------------------------ aggregation


def by_op(spans: Iterable[list]) -> Dict[str, List[list]]:
    """Group exported spans by operation id."""
    groups: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        groups[span[2]].append(span)
    return groups


def self_seconds(spans: Iterable[list]) -> Dict[int, float]:
    """Per span id: its duration minus the time its children cover.

    Children run on their parent's thread inside the parent's interval and
    never overlap one another, so the covered part is the sum of the
    children's durations.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _op, _name, t0, t1, _attrs in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    return {s[0]: (s[5] - s[4]) - child_time[s[0]] for s in spans}
