"""The scan fan-out shared by the process pool and the cluster.

Both executors offload one thing, the per-file parse+scan, and differ
only in transport: :class:`~repro.exec.executor.AnalysisExecutor`
drives worker processes over queues, :class:`~repro.cluster.executor
.ClusterExecutor` drives serve daemons over HTTP.  :func:`fan_out` is
the transport-independent half of their ``scan``.  Given a plan of
*lanes* (one worker process or one node), each with its batches, it

* installs the run's :class:`~repro.exec.protocol.ExecContext` on a
  lane whose epoch differs, and re-installs it once when the lane
  reports it lost the context (:class:`StaleContext`);
* drives every lane on its own thread, each in its own ``contextvars``
  copy, so trace spans opened there parent to the caller's span;
* hands a failed lane's unfinished batches to ``successor(lane,
  tried)`` (a respawned process, or the next live node), at most
  :data:`HOP_LIMIT` times; files still undelivered are the engine's to
  scan serially;
* delivers payloads on the caller's thread, dropping duplicate and
  unknown paths, and absorbs the spans the lanes' replies carry;
* raises :class:`ExecutorClosed` when ``close()`` races the op.

A lane is any object with an ``epoch`` attribute (the context epoch it
holds, ``None`` when unknown), ``install(ctx)`` and ``run(batches,
ctx)``.  ``run`` yields one ``(payloads, hits, spans)`` reply per batch,
in batch order, and raises :class:`LaneDown` when the lane fails.
"""

from __future__ import annotations

import contextvars
import queue
import threading
from typing import Callable

from repro.trace.context import absorb_remote

#: How often one lane's batches may move to a successor before they
#: are left to the engine's serial path.
HOP_LIMIT = 3
_POLL = 0.2
_DONE = object()


class ExecutorClosed(RuntimeError):
    """The executor was closed while (or before) an offload used it.

    Raised instead of degrading to the serial path: a close racing an
    in-flight op means the process is shutting down, and silently
    re-running the analysis serially would hide the shutdown (and stall
    it).  Callers that *want* serial fallback check ``closed`` before
    dispatching — the engine's ``_active_executor`` does exactly that —
    so this only surfaces when the close genuinely interrupted work.
    """


class LaneDown(Exception):
    """A lane died or failed mid-op; its unfinished batches move on."""


class StaleContext(Exception):
    """The lane no longer holds the context epoch a batch names."""


def fan_out(
    plan: list,
    ctx,
    on_result: Callable,
    successor: Callable,
    closed: Callable[[], bool],
) -> dict:
    """Run ``plan`` (``[(lane, [batch, ...])]``, a batch being a list of
    ``(path, text, key)`` jobs) and stream ``on_result(CachedScan,
    key)`` for every file delivered.  Returns the engine's scan stats
    plus ``dropped`` (duplicate or unknown payloads)."""
    if closed():
        raise ExecutorClosed("executor is closed")
    keys = {
        path: key
        for _lane, batches in plan for batch in batches
        for path, _text, key in batch
    }
    stats = {
        "dispatched": len(keys), "completed": 0, "batches": 0,
        "worker_hits": 0, "respawns": 0, "workers_used": len(plan),
        "dropped": 0,
    }
    replies: queue.SimpleQueue = queue.SimpleQueue()
    hop_lock = threading.Lock()

    def drive(lane, batches: list) -> None:
        tried = [lane]
        reinstalled = False
        try:
            while batches and not closed():
                try:
                    if lane.epoch != ctx.epoch:
                        lane.install(ctx)
                        lane.epoch = ctx.epoch
                    for reply in lane.run(batches, ctx):
                        batches = batches[1:]
                        replies.put(reply)
                    return
                except StaleContext:
                    lane.epoch = None
                    if not reinstalled:
                        reinstalled = True
                        continue
                except LaneDown:
                    pass
                with hop_lock:
                    if len(tried) > HOP_LIMIT or closed():
                        return
                    lane = successor(lane, tried)
                    if lane is None:
                        return
                    tried.append(lane)
                    stats["respawns"] += 1
                reinstalled = False
        finally:
            replies.put(_DONE)

    for i, (lane, batches) in enumerate(plan):
        threading.Thread(
            target=contextvars.copy_context().run,
            args=(drive, lane, batches), name=f"fanout-{i}", daemon=True,
        ).start()

    delivered: set[str] = set()

    def deliver(payloads, hits, spans) -> None:
        absorb_remote(spans)
        stats["batches"] += 1
        stats["worker_hits"] += hits
        for cached in payloads:
            path = cached.filename
            if path not in keys or path in delivered:
                stats["dropped"] += 1
                continue
            delivered.add(path)
            on_result(cached, keys[path])
            stats["completed"] += 1

    # A failing ``on_result`` stops delivery but not the lanes: they
    # run out first, so no reply of theirs is left for a later op.
    error: Exception | None = None
    running = len(plan)
    while running:
        if closed():
            raise ExecutorClosed("executor closed while a scan was in flight")
        try:
            reply = replies.get(timeout=_POLL)
        except queue.Empty:
            continue
        if reply is _DONE:
            running -= 1
        elif error is None:
            try:
                deliver(*reply)
            except Exception as exc:
                error = exc
    if error is not None:
        raise error
    return stats
