"""In-memory span tracer and the traced wrappers around each layer.

The traced run wraps the public entry points of every layer from the
benchmark's own files; nothing under ``src/`` changes.  Each wrapper
patches the name *where its caller looks it up* (for example
``plan_search`` in ``repro.service.scheduler``, not in
``repro.core.planner``), records one span per call and, where the call
returns work counts, adds them to exact counters.

A span is ``[id, name, start, end, parent, request_id]``.  The parent is
the innermost open span of the same request when the wrapper knows the
request id (the gateway and router hand requests across an asyncio task
boundary), and otherwise the innermost open span of the calling context.
A layer's self time is its spans' durations minus the part of each
interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_ID, _NAME, _START, _END, _PARENT, _RID = range(6)

#: marks a wrapper so a run can prove none is left installed.
WRAPPED_MARK = "__perfbench_wrapped__"

#: Bytes of one segment row as the user hands it in: eight float64
#: coordinates plus the trajectory and segment ids (int64).
SEGMENT_ROW_BYTES = 80
#: Bytes of one delete as the user hands it in: the trajectory id.
DELETE_USER_BYTES = 8


class Tracer:
    """Collects spans and exact counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._open_by_rid: dict[str, list[list]] = defaultdict(list)
        #: False while the benchmark does its own (referee) work.
        self.active = True

    # -- spans -------------------------------------------------------------

    def open(self, name: str, rid: str | None = None):
        stack = self._open_by_rid.get(rid) if rid is not None else None
        parent = stack[-1] if stack else self._current.get()
        if rid is None:
            rid = parent[_RID] if parent is not None else ""
        span = [len(self.spans), name, time.perf_counter(), None,
                parent[_ID] if parent is not None else None, rid]
        self.spans.append(span)
        self._open_by_rid[rid].append(span)
        return span, self._current.set(span)

    def close(self, handle) -> None:
        span, token = handle
        span[_END] = time.perf_counter()
        self._current.reset(token)
        stack = self._open_by_rid[span[_RID]]
        stack.remove(span)
        if not stack:
            del self._open_by_rid[span[_RID]]

    @contextlib.contextmanager
    def root(self, name: str, rid: str):
        """One operation's root span around the enclosed block."""
        handle = self.open(name, rid)
        try:
            yield
        finally:
            self.close(handle)

    @contextlib.contextmanager
    def suspended(self):
        """Run the enclosed block untraced (the referee's own work)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += int(n)

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[_ID], "name": s[_NAME], "start": s[_START],
                    "end": s[_END], "parent": s[_PARENT],
                    "request_id": s[_RID]}) + "\n")


# -- derivation ---------------------------------------------------------------


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy seconds (inclusive) and self seconds."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[_PARENT] is not None:
            children[s[_PARENT]].append((s[_START], s[_END]))
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                 "root_s": 0.0})
    for s in spans:
        dur = s[_END] - s[_START]
        row = table[s[_NAME]]
        row["calls"] += 1
        row["busy_s"] += dur
        row["self_s"] += dur - _covered(s[_START], s[_END],
                                        children.get(s[_ID], []))
        if s[_PARENT] is None:
            row["root_s"] += dur
    return dict(table)


def child_counts(spans: list[list], parent_name: str,
                 child_name: str) -> int:
    """How many ``child_name`` spans sit directly under a
    ``parent_name`` span."""
    names = {s[_ID]: s[_NAME] for s in spans}
    return sum(1 for s in spans if s[_NAME] == child_name
               and s[_PARENT] is not None
               and names[s[_PARENT]] == parent_name)


# -- the wrappers -------------------------------------------------------------


def _request_rid(args, kwargs, position: int) -> str | None:
    request = kwargs.get("request", args[position]
                         if len(args) > position else None)
    rid = getattr(request, "request_id", None)
    return rid or None


def _engine_name(args) -> str:
    return f"engines.{args[0].name}"


def _after_rtree_query(tracer, args, kwargs, out) -> None:
    tracer.count("indexes.rtree.node_visits", int(out[2].sum()))


def _after_solve(tracer, args, kwargs, out) -> None:
    tracer.count("core.distance.pairs_solved", len(out))
    tracer.count("core.distance.hits", out.num_hits)


def _after_kernel(tracer, args, kwargs, out) -> None:
    tracer.count("gpu.kernel.launches")
    tracer.count("gpu.kernel.comparisons", out.stats.total_comparisons)


def _transfer_bytes(args, kwargs) -> int:
    payload = kwargs.get("payload", args[2] if len(args) > 2 else 0)
    return int(payload.nbytes if isinstance(payload, np.ndarray)
               else payload)


def _after_h2d(tracer, args, kwargs, out) -> None:
    tracer.count("gpu.h2d_bytes", _transfer_bytes(args, kwargs))


def _after_d2h(tracer, args, kwargs, out) -> None:
    tracer.count("gpu.d2h_bytes", _transfer_bytes(args, kwargs))


def _after_gateway(tracer, args, kwargs, out) -> None:
    if not out.ok:
        tracer.count("gateway.refused")


def _after_overlay(tracer, args, kwargs, out) -> None:
    snapshot = kwargs.get("snapshot", args[1] if len(args) > 1 else None)
    if snapshot is not None and not snapshot.clean:
        tracer.count("ingest.delta_rows_scanned",
                     len(snapshot.live_delta()))


def _after_compact(tracer, args, kwargs, out) -> None:
    tracer.count("ingest.compactions")


def _after_checkpoint(tracer, args, kwargs, out) -> None:
    tracer.count("durability.checkpoint.count")
    total = 0
    for root, _dirs, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(root, f))
                     for f in files)
    tracer.count("durability.checkpoint.bytes", total)


def _after_standing(tracer, args, kwargs, out) -> None:
    tracer.count("standing.affected", len(out.affected))
    tracer.count("standing.skipped", out.skipped)


def _wal_user_bytes(op: str, payload: dict) -> int:
    if op == "append":
        return SEGMENT_ROW_BYTES * len(payload["segments"]["seg_ids"])
    if op == "delete":
        return DELETE_USER_BYTES
    return 0


#: (module, owner attribute path, span name, options).  ``owner`` is a
#: dotted path inside the module ("" = the module itself); the last
#: element is the attribute replaced.  Span names are layer names.
TARGETS: list[tuple] = [
    ("repro.gateway.app", "Gateway.search", "gateway",
     {"rid_arg": 2, "after": _after_gateway}),
    ("repro.sharding.router", "ShardedService.submit", "sharding",
     {"rid_arg": 1}),
    ("repro.service.scheduler", "QueryService.submit", "service", {}),
    ("repro.service.scheduler", "QueryService.ingest", "service.write",
     {}),
    ("repro.service.scheduler", "QueryService.delete_trajectory",
     "service.write", {}),
    ("repro.service.scheduler", "plan_search", "core.planner", {}),
    ("repro.service.scheduler", "overlay_search", "ingest.overlay",
     {"after": _after_overlay}),
    ("repro.engines.base", "SearchEngine.from_config", "engines.build",
     {}),
    ("repro.engines.base", "GpuEngineBase.search", _engine_name, {}),
    ("repro.engines.cpu_rtree", "CpuRTreeEngine.search", _engine_name,
     {}),
    ("repro.engines.cpu_scan", "CpuScanEngine.search", _engine_name, {}),
    ("repro.indexes.rtree", "RTree.build", "indexes.rtree.build", {}),
    ("repro.indexes.rtree", "RTree.query_candidates_flat",
     "indexes.rtree.query", {"after": _after_rtree_query}),
    ("repro.engines.base", "pair_coefficients",
     "core.distance.coefficients", {}),
    ("repro.engines.base", "solve_intervals", "core.distance.solve",
     {"after": _after_solve}),
    # compare_pairs looks both names up in its own module.
    ("repro.core.distance", "pair_coefficients",
     "core.distance.coefficients", {}),
    ("repro.core.distance", "solve_intervals", "core.distance.solve",
     {"after": _after_solve}),
    ("repro.gpu.kernel", "KernelLauncher.run", "gpu.kernel",
     {"after": _after_kernel}),
    ("repro.gpu.transfers", "TransferLedger.h2d", None,
     {"after": _after_h2d}),
    ("repro.gpu.transfers", "TransferLedger.d2h", None,
     {"after": _after_d2h}),
    ("repro.ingest.versioned", "VersionedDatabase.compact",
     "ingest.compact", {"after": _after_compact}),
    ("repro.durability.wal", "WriteAheadLog.append",
     "durability.wal.append", {"wal": True}),
    ("repro.durability.manager", "DurabilityManager.checkpoint",
     "durability.checkpoint", {"after": _after_checkpoint}),
    ("repro.standing.manager", "StandingQueryManager.process_epoch",
     "standing.process", {"after": _after_standing}),
]


def _make_wrapper(tracer: Tracer, fn, name, opts: dict):
    rid_arg = opts.get("rid_arg")
    after = opts.get("after")
    is_wal = opts.get("wal", False)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            if not tracer.active:
                return await fn(*args, **kwargs)
            rid = (_request_rid(args, kwargs, rid_arg)
                   if rid_arg is not None else None)
            handle = tracer.open(name, rid)
            try:
                out = await fn(*args, **kwargs)
            finally:
                tracer.close(handle)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        setattr(awrapper, WRAPPED_MARK, True)
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if name is None:  # counter-only wrapper
            out = fn(*args, **kwargs)
            after(tracer, args, kwargs, out)
            return out
        rid = (_request_rid(args, kwargs, rid_arg)
               if rid_arg is not None else None)
        span_name = name(args) if callable(name) else name
        before = args[0].bytes_written if is_wal else 0
        handle = tracer.open(span_name, rid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(handle)
        if is_wal:
            tracer.count("durability.wal.records")
            tracer.count("durability.wal.bytes",
                         args[0].bytes_written - before)
            tracer.count("durability.wal.user_bytes",
                         _wal_user_bytes(out.op, out.payload))
        if after is not None:
            after(tracer, args, kwargs, out)
        return out
    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw value)`` of one entry point; the raw
    value is the class-dictionary entry (so a classmethod stays one).
    Returns None when the entry point no longer exists."""
    try:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        raw = (owner.__dict__[attr] if inspect.isclass(owner)
               else getattr(owner, attr))
    except (AttributeError, KeyError, ImportError):
        return None
    return owner, attr, raw


class Instrumentation:
    """Installs every wrapper on enter and restores the originals on
    exit.  ``missing`` lists entry points that no longer exist (their
    metrics then read 0 and the tests flag them)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def __enter__(self) -> "Instrumentation":
        for module_name, path, name, opts in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                patched = classmethod(_make_wrapper(
                    self.tracer, raw.__func__, name, opts))
            else:
                patched = _make_wrapper(self.tracer, raw, name, opts)
            self._saved.append(found)
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False


def installed_wrappers() -> list[str]:
    """Entry points that currently hold a benchmark wrapper (must be
    empty before any untraced measurement)."""
    found = []
    for module_name, path, _name, _opts in TARGETS:
        entry = _resolve(module_name, path)
        if entry is None:
            continue
        raw = entry[2]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if getattr(fn, WRAPPED_MARK, False):
            found.append(f"{module_name}.{path}")
    return found
