"""Shard endpoints: one serve daemon as a cluster worker node.

The cluster tier (``repro.cluster``) partitions a tree across N serve
daemons.  Each daemon exposes the executor's scan offload over HTTP —
the same operation a local ``repro.exec`` worker process handles, so a
:class:`ShardService` is literally a
:class:`repro.exec.worker._WorkerState` behind a lock, fed by the
existing worker handler:

====== ========================== =================================
POST   ``/v1/shard/ctx``          install the epoch-tagged context
POST   ``/v1/shard/scan``         parse+scan a batch of files
====== ========================== =================================

Pairing and checking are not shard operations: the coordinator's engine
runs them in-process over the global site set.  Any other op is refused
with ``404`` and a message naming the ops this node serves.

Error contract (the coordinator's retry logic keys off these):

* ``428`` — the request's epoch is not the installed one (node
  restarted, or never saw this tree); re-POST ``/v1/shard/ctx``.
* ``503`` + ``Retry-After`` — draining, or at the concurrent-shard
  admission limit; back off and retry.

Scan results (``CachedScan`` lists) travel as base64(zlib(pickle))
blobs inside the JSON envelope — the same objects that already cross
the executor's process queues and the disk cache.  This makes the shard
protocol a **trusted intra-cluster transport**: the coordinator
unpickles node responses, so cluster ports must only be reachable by
their own coordinator (see docs/architecture.md).
"""

from __future__ import annotations

import base64
import pickle
import threading
import zlib
from typing import Any, Callable

from repro.exec.protocol import ExecContext
from repro.exec.worker import _apply_ctx, _handle_scan, _WorkerState

#: Shard operations the HTTP layer routes (also the endpoint suffixes).
SHARD_OPS = ("ctx", "scan")

#: Concurrent shard requests admitted before ``503`` backpressure.
DEFAULT_MAX_INFLIGHT = 8


def pack(obj: Any) -> str:
    """Pickle → zlib → base64 text, for analysis objects in JSON."""
    return base64.b64encode(zlib.compress(pickle.dumps(obj))).decode("ascii")


def unpack(blob: str) -> Any:
    """Inverse of :func:`pack` (trusted intra-cluster data only)."""
    return pickle.loads(zlib.decompress(base64.b64decode(blob)))


def unknown_op(op: str) -> Exception:
    """The ``404`` a node answers for any op outside :data:`SHARD_OPS`
    (including the pairing/checking shard ops older coordinators sent)."""
    from repro.serve.server import ServeError

    return ServeError(
        404,
        f"no such shard op {op!r}; this node serves "
        f"{', '.join(SHARD_OPS)} (pairing and checking run on the "
        f"coordinator)",
    )


class ShardService:
    """One node's shard-request handler: a locked worker state.

    ``executor`` (the node's own :class:`repro.exec.AnalysisExecutor`,
    when the daemon has one) takes the scan batches, so a node fans
    parse work across its local process pool; otherwise batches are
    scanned on the service thread against the warm worker state.
    ``accepting`` is polled per request so a draining daemon sheds
    shard traffic the same way it sheds job submissions.
    """

    def __init__(
        self,
        executor: object | None = None,
        accepting: Callable[[], bool] | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ):
        self._state = _WorkerState()
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(max(1, max_inflight))
        self._executor = executor
        self._accepting = accepting
        self._counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()

    # -- plumbing ----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counts_lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def _error(self, status: int, message: str,
               retry_after: float | None = None) -> Exception:
        from repro.serve.server import ServeError

        return ServeError(status, message, retry_after=retry_after)

    def _admit(self) -> None:
        if self._accepting is not None and not self._accepting():
            self._count("rejected_draining")
            raise self._error(503, "node is draining; shard ops refused",
                              retry_after=5.0)
        if not self._slots.acquire(blocking=False):
            self._count("rejected_busy")
            raise self._error(503, "shard admission limit reached",
                              retry_after=1.0)

    def _check_epoch(self, payload: dict[str, Any]) -> str:
        epoch = payload.get("epoch")
        if not epoch or epoch != self._state.epoch:
            self._count("epoch_misses")
            raise self._error(
                428,
                "unknown context epoch; POST /v1/shard/ctx first",
            )
        return epoch

    def handle(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        handler = {"ctx": self.install_ctx, "scan": self.scan}.get(op)
        if handler is None:
            raise unknown_op(op)
        self._count(f"ops.{op}")
        return handler(payload)

    # -- operations --------------------------------------------------------

    def install_ctx(self, payload: dict[str, Any]) -> dict[str, Any]:
        epoch = payload.get("epoch")
        if not epoch:
            raise self._error(400, "ctx requires an epoch")
        defines = {str(k): str(v)
                   for k, v in (payload.get("defines") or {}).items()}
        headers = {str(k): str(v)
                   for k, v in (payload.get("headers") or {}).items()}
        limits = (
            int(payload.get("write_window", 5)),
            int(payload.get("read_window", 50)),
        )
        self._admit()
        try:
            with self._lock:
                _apply_ctx(
                    self._state, ("ctx", epoch, defines, headers, limits)
                )
            self._count("ctx_installs")
            return {"ok": True, "epoch": epoch}
        finally:
            self._slots.release()

    def _exec_context(self) -> ExecContext:
        state = self._state
        return ExecContext(
            defines=state.defines, headers=state.headers,
            write_window=state.limits.write_window,
            read_window=state.limits.read_window,
            epoch=state.epoch or "",
        )

    def scan(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._check_epoch(payload)
        raw = payload.get("jobs")
        if not isinstance(raw, list):
            raise self._error(400, "scan requires a jobs list")
        jobs = [(str(p), str(t), str(k)) for p, t, k in raw]
        self._admit()
        try:
            executor = self._executor
            if (
                executor is not None
                and not getattr(executor, "closed", True)
                and len(jobs) > 1
            ):
                payloads, hits = self._scan_via_executor(executor, jobs)
            else:
                with self._lock:
                    payloads, hits = _handle_scan(self._state, jobs)
            self._count("scan_files", len(payloads))
            self._count("scan_warm_hits", hits)
            return {"payloads": pack(payloads), "hits": hits}
        finally:
            self._slots.release()

    def _scan_via_executor(self, executor, jobs):
        """Fan a scan batch across the node's local process pool; any
        file the pool failed to deliver is scanned inline so the
        response is always complete."""
        collected: list = []

        def absorb(cached, _key: str) -> None:
            collected.append(cached)

        stats = executor.scan(jobs, self._exec_context(), absorb)
        hits = stats.get("worker_hits", 0)
        done = {cached.filename for cached in collected}
        leftovers = [job for job in jobs if job[0] not in done]
        if leftovers:
            with self._lock:
                inline, inline_hits = _handle_scan(self._state, leftovers)
            collected.extend(inline)
            hits += inline_hits
        return collected, hits

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._counts_lock:
            counts = dict(self._counts)
        with self._lock:
            scan_cache = len(self._state.scan_cache)
        out = {key: counts.get(key, 0) for key in (
            "ctx_installs", "scan_files", "scan_warm_hits",
            "epoch_misses", "rejected_busy", "rejected_draining",
        )}
        out["ops"] = sum(
            v for k, v in counts.items() if k.startswith("ops.")
        )
        out["scan_cache"] = scan_cache
        return out
