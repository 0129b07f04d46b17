"""The executor worker process: a warm, single-threaded task loop.

One ``worker_main`` runs per pool process.  The loop pulls task tuples
from its private queue, dispatches on the kind tag, and pushes replies
onto its private result queue.  The worker keeps one piece of *warm*
state that outlives individual ``analyze()`` calls, which is the whole
point of the persistent pool: ``scan_cache`` — content key -> slim
:class:`CachedScan`, so a file re-submitted unchanged (a warm daemon, a
second engine over the same tree) skips parse + scan entirely.

Workers never raise out of a task: a handler exception is reported as a
``("error", traceback)`` reply and the parent scans those files on its
serial path.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict

from repro.analysis.barrier_scan import BarrierScanner, ScanLimits
from repro.core.cache import CachedScan
from repro.cparse.parser import ParseError, parse_source
from repro.cparse.typesys import TypeRegistry
from repro.trace.model import SpanRecord

#: Warm-state bound; generous for the corpus scale, small enough that a
#: long-lived daemon worker cannot grow without limit.
SCAN_CACHE_CAP = 1024

#: Exit code of the ``("crash",)`` test hook.
_EXIT_CRASH = 23


class _WorkerState:
    """Everything a worker keeps warm between tasks."""

    def __init__(self) -> None:
        self.defines: dict[str, str] = {}
        self.headers: dict[str, str] = {}
        self.limits = ScanLimits()
        self.epoch: str | None = None
        #: (path, content key) -> CachedScan
        self.scan_cache: "OrderedDict[tuple[str, str], CachedScan]" = \
            OrderedDict()
        self.scan_hits = 0


def _apply_ctx(state: _WorkerState, msg) -> None:
    _, epoch, defines, headers, limits = msg
    state.defines = defines
    state.headers = headers
    state.limits = ScanLimits(
        write_window=limits[0], read_window=limits[1]
    )
    state.epoch = epoch


def _scan_file(state: _WorkerState, path: str, text: str) -> CachedScan:
    """Never-raise per-file scan, mirroring the engine's serial path."""
    from repro.core.engine import _INTERNAL_PREFIX

    try:
        unit = parse_source(
            text, path, defines=state.defines,
            include_resolver=lambda name, sys_inc: state.headers.get(name),
        )
        registry = TypeRegistry()
        registry.add_unit(unit)
        scanner = BarrierScanner(
            unit, registry=registry, limits=state.limits, filename=path
        )
        return CachedScan(filename=path, sites=scanner.scan())
    except ParseError as exc:
        return CachedScan(filename=path, sites=[], parse_error=str(exc))
    except Exception as exc:
        return CachedScan(
            filename=path, sites=[],
            parse_error=f"{_INTERNAL_PREFIX}{type(exc).__name__}: {exc}",
        )


def _handle_scan(state: _WorkerState, jobs: list[tuple[str, str, str]]):
    """jobs: [(path, text, key)] -> (payloads, warm hits)."""
    out: list[CachedScan] = []
    hits = 0
    for path, text, key in jobs:
        cached = state.scan_cache.get((path, key))
        if cached is not None:
            state.scan_cache.move_to_end((path, key))
            hits += 1
        else:
            cached = _scan_file(state, path, text)
            state.scan_cache[(path, key)] = cached
            while len(state.scan_cache) > SCAN_CACHE_CAP:
                state.scan_cache.popitem(last=False)
        out.append(cached)
    state.scan_hits += hits
    return out, hits


def worker_main(worker_id: int, task_q, result_q) -> None:
    """Entry point of one pool process (must be importable for spawn)."""
    state = _WorkerState()
    while True:
        msg = task_q.get()
        kind = msg[0]
        if kind == "exit":
            return
        if kind == "crash":
            os._exit(_EXIT_CRASH)
        if kind == "ctx":
            _apply_ctx(state, msg)
            continue
        # Scan tasks arrive as (kind, batch id, tctx, jobs) where tctx
        # is the parent's (trace id, span id) pair, or None when the
        # request is untraced.
        batch_id = msg[1]
        tctx = msg[2]
        started = time.time()
        opened = time.perf_counter()
        try:
            if kind != "scan":
                raise ValueError(f"unknown task kind {kind!r}")
            payload = _handle_scan(state, msg[3])
            spans = _task_spans(worker_id, kind, tctx, started, opened)
            result_q.put((worker_id, batch_id, "ok", payload, spans))
        except Exception as exc:
            spans = _task_spans(
                worker_id, kind, tctx, started, opened,
                error=type(exc).__name__,
            )
            result_q.put((
                worker_id, batch_id, "error",
                traceback.format_exc(limit=8),
                spans,
            ))


def _task_spans(
    worker_id: int,
    kind: str,
    tctx: tuple[str, str | None] | None,
    started: float,
    opened: float,
    error: str | None = None,
) -> list[dict] | None:
    """One-span list timing this task, or ``None`` when untraced."""
    if tctx is None:
        return None
    meta = {"error": error} if error else {}
    record = SpanRecord(
        name=f"exec.{kind}",
        parent_id=tctx[1],
        start=started,
        duration=time.perf_counter() - opened,
        node=f"exec:{worker_id}",
        meta=meta,
    )
    return [record.as_dict()]
