"""The persistent analysis executor: a warm, crash-tolerant process pool.

``AnalysisExecutor`` owns long-lived worker processes (see
``repro.exec.worker``) and exposes the one stage offload the engine
uses: :meth:`scan`, batched parse+scan with results streamed back as
each batch finishes.  Per-file analysis is the part of a run that
parallelizes; pairing and checking are a cheap global pass the engine
runs in-process once the sites exist.

The fan-out itself (context epochs, re-dispatch, duplicate dropping,
``ExecutorClosed``) is :func:`repro.exec.fanout.fan_out`, shared with
the cluster tier; this module is the process transport:

* **Explicit start method.**  ``fork`` where available (fast, Linux),
  ``spawn`` otherwise or via ``REPRO_EXEC_START_METHOD`` — never the
  platform default, so macOS/Linux behave identically and the daemon can
  run under ``spawn``.
* **Lazy start.**  Workers spawn on first use and live until ``close()``.
* **Crash recovery.**  A worker that dies (or stalls for
  :data:`OP_TIMEOUT` seconds) mid-batch is respawned with a fresh
  queue and state, and its unfinished batches re-run on the new one.
* **Never-raise toward the engine** — with one deliberate exception.
  Infrastructure failures surface as incomplete scans and the engine
  scans the missing files serially; but a ``close()`` racing an
  in-flight op raises :class:`ExecutorClosed`.

One executor instance may be shared by many engines and threads (the
serve daemon does exactly that); a single re-entrant lock serializes
ops, so per-worker context epochs stay coherent.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from dataclasses import asdict, dataclass

from repro.exec.fanout import ExecutorClosed, LaneDown, fan_out
from repro.exec.protocol import ExecContext
from repro.trace.context import ship as ship_trace

#: Seconds a worker may go without answering a queued batch before it
#: is treated as dead and respawned.
OP_TIMEOUT = 300.0
_POLL = 0.2


def _start_method(explicit: str | None) -> str:
    if explicit:
        return explicit
    env = os.environ.get("REPRO_EXEC_START_METHOD")
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass
class ExecStats:
    """Lifetime counters (``snapshot()`` feeds ``/metrics``)."""

    spawned: int = 0
    respawns: int = 0
    tasks_completed: int = 0
    batches_sent: int = 0
    worker_scan_hits: int = 0


class _Worker:
    """Parent-side handle of one pool process: a fan-out lane."""

    def __init__(self, wid: int, process, task_q, result_q):
        self.wid = wid
        self.process = process
        self.task_q = task_q
        self.result_q = result_q
        #: Context epoch last shipped to this worker.
        self.epoch: str | None = None
        self.tasks_done = 0

    def install(self, ctx: ExecContext) -> None:
        self.task_q.put((
            "ctx", ctx.epoch, ctx.defines, ctx.headers,
            (ctx.write_window, ctx.read_window),
        ))

    def run(self, batches, ctx: ExecContext):
        # Queue every batch up front so the worker never idles between
        # them; replies come back in queue order.
        tctx = ship_trace()
        for index, batch in enumerate(batches):
            self.task_q.put(("scan", index, tctx, batch))
        pending = len(batches)
        last = time.monotonic()
        while pending:
            try:
                _wid, _index, status, payload, spans = self.result_q.get(
                    timeout=_POLL
                )
            except queue_mod.Empty:
                if not self.process.is_alive():
                    raise LaneDown(f"exec worker {self.wid} died")
                if time.monotonic() - last > OP_TIMEOUT:
                    raise LaneDown(f"exec worker {self.wid} stalled")
                continue
            pending -= 1
            last = time.monotonic()
            self.tasks_done += 1
            payloads, hits = payload if status == "ok" else ([], 0)
            yield payloads, hits, spans


class AnalysisExecutor:
    """Persistent process pool shared by CLI, engine, and serve daemon."""

    def __init__(self, workers: int = 2, start_method: str | None = None):
        self._size = max(1, int(workers))
        self._mp = multiprocessing.get_context(_start_method(start_method))
        self._lock = threading.RLock()
        self._workers: list[_Worker] = []
        self._wid_seq = itertools.count(1)
        self._closed = False
        self.stats = ExecStats()

    # -- lifecycle ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._size

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._mp.get_start_method()

    def ensure_size(self, workers: int) -> None:
        """Grow the target pool size (never shrinks a live pool)."""
        with self._lock:
            if workers > self._size:
                self._size = int(workers)

    def _ensure_started(self) -> None:
        while len(self._workers) < self._size:
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        from repro.exec.worker import worker_main

        wid = next(self._wid_seq)
        task_q, result_q = self._mp.Queue(), self._mp.Queue()
        process = self._mp.Process(
            target=worker_main, args=(wid, task_q, result_q),
            name=f"ofence-exec-{wid}", daemon=True,
        )
        process.start()
        self.stats.spawned += 1
        return _Worker(wid, process, task_q, result_q)

    def _replace(self, worker: _Worker, _tried=None) -> _Worker:
        """Respawn a failed worker (killing it first if it merely
        stalled): fresh process, queues, and warm state."""
        worker.process.kill()
        worker.process.join(timeout=0.1)
        replacement = self._spawn()
        try:
            self._workers[self._workers.index(worker)] = replacement
        except ValueError:
            self._workers.append(replacement)
        self.stats.respawns += 1
        return replacement

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.task_q.put(("exit",))
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers.clear()

    def close(self) -> None:
        # Flag shutdown *before* taking the lock: an in-flight op holds
        # the lock for its whole fan-out, and must observe the flag and
        # raise ExecutorClosed instead of stalling this close.  Teardown
        # below is idempotent.
        self._closed = True
        with self._lock:
            self._shutdown_workers()

    def __enter__(self) -> "AnalysisExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- test/bench hooks --------------------------------------------------

    def inject_worker_crash(self, index: int = 0) -> int:
        """Queue a hard-exit for one live worker (crash-recovery tests).

        The worker processes its queue in order, so tasks dispatched
        after this call but routed to the same worker are lost with it
        and must be re-dispatched — exactly the mid-batch death the
        recovery path exists for.  Returns the doomed worker's id.
        """
        with self._lock:
            self._ensure_started()
            worker = self._workers[index % len(self._workers)]
            worker.task_q.put(("crash",))
            return worker.wid

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "configured_workers": self._size,
                "alive_workers": sum(
                    1 for w in self._workers if w.process.is_alive()
                ),
                "start_method": self.start_method,
                **asdict(self.stats),
                "per_worker_tasks": [w.tasks_done for w in self._workers],
            }

    # -- stage offload -----------------------------------------------------

    def scan(self, jobs, ctx: ExecContext, on_result) -> dict:
        """Batched parse+scan.  ``jobs`` is ``[(path, text, key)]``;
        ``on_result(CachedScan, key)`` is called as payloads stream in.
        Files missing from the stream (worker error, start failure) are
        the caller's to re-scan serially; the returned stats say how
        many completed."""
        with self._lock:
            if self._closed:
                raise ExecutorClosed("executor is closed")
            try:
                self._ensure_started()
            except Exception:
                jobs = []
            # Chunks keep the caller's largest-first order and are dealt
            # round-robin, so every worker starts on a large file.
            size = max(1, min(32, -(-len(jobs) // (self._size * 3))))
            chunks = [jobs[i:i + size] for i in range(0, len(jobs), size)]
            lanes = self._workers[:len(chunks)]
            plan = [(w, chunks[i::len(lanes)]) for i, w in enumerate(lanes)]
            stats = fan_out(
                plan, ctx, on_result, self._replace, lambda: self._closed
            )
            self.stats.batches_sent += len(chunks)
            self.stats.tasks_completed += stats["batches"]
            self.stats.worker_scan_hits += stats["worker_hits"]
            return stats


# ---------------------------------------------------------------------------
# Process-wide default executor
# ---------------------------------------------------------------------------

_DEFAULT_LOCK = threading.Lock()
_DEFAULT: AnalysisExecutor | None = None


def get_default_executor(workers: int = 2) -> AnalysisExecutor:
    """The process-wide shared executor (created lazily, grown on
    demand, closed at interpreter exit).  Engines with ``workers > 1``
    and no explicit ``AnalysisOptions.executor`` use this pool, so
    repeated CLI/engine runs in one process share warm workers."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT.closed:
            _DEFAULT = AnalysisExecutor(workers=max(2, workers))
        else:
            _DEFAULT.ensure_size(workers)
        return _DEFAULT


def close_default_executor() -> None:
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.close()
            _DEFAULT = None


atexit.register(close_default_executor)
