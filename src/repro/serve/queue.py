"""Bounded job queue with micro-batching, backpressure, and drain.

Submissions become :class:`Job` records in a bounded FIFO.  Worker
threads (owned by the service) pull *batches*: the head job plus any
queued ``reanalyze`` jobs for the same tree, so a burst of delta
submissions against one warm engine is coalesced into a single
pool-acquisition — one lock round-trip, maximal reuse of the incremental
pairing index, FIFO order preserved within the batch.  Coalescing only
reaches past jobs for *other* trees, and no batch is handed out while
another batch for its tree is in flight, so same-tree submission order
is preserved across batches and workers as well.

When the queue is full, :meth:`JobQueue.submit` raises
:class:`QueueFull`; the HTTP layer translates it into ``503`` with a
``Retry-After`` hint.  :meth:`JobQueue.drain` flips the queue into
drain mode (new submissions raise :class:`Draining` → 503), waits for
queued and in-flight jobs to finish, and then wakes the workers so they
exit — the graceful-shutdown path behind SIGTERM.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine import AnalysisOptions, AnalysisResult, KernelSource


class QueueFull(Exception):
    """Queue at capacity — retry later."""

    def __init__(self, capacity: int, retry_after: float = 1.0):
        super().__init__(f"job queue full (capacity {capacity})")
        self.retry_after = retry_after


class Draining(Exception):
    """Server is draining — no new work accepted."""

    def __init__(self) -> None:
        super().__init__("server is draining; not accepting new jobs")
        self.retry_after = 5.0


_JOB_IDS = itertools.count(1)


@dataclass
class Job:
    """One queued analysis request."""

    kind: str  # "analyze" | "reanalyze"
    tree_key: str
    source: KernelSource | None = None
    #: Ordered (path, new_text) edits for reanalyze jobs.
    deltas: list[tuple[str, str]] = field(default_factory=list)
    options: AnalysisOptions | None = None
    job_id: str = field(
        default_factory=lambda: f"job-{next(_JOB_IDS)}"
    )
    status: str = "queued"  # queued | running | done | failed
    result: AnalysisResult | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: How many jobs travelled in the same batch (observability).
    batch_size: int = 0
    #: Trace recording this job's spans (``repro.trace.model.Trace``),
    #: set at submission when the request carried ``X-Repro-Trace``.
    trace: Any | None = field(default=None, repr=False, compare=False)
    #: Remote parent span id the job span should attach to, if any.
    trace_parent: str | None = None
    _done: threading.Event = field(default_factory=threading.Event)

    def mark_running(self) -> None:
        self.status = "running"
        self.started_at = time.monotonic()

    def mark_done(self, result: AnalysisResult) -> None:
        self.result = result
        self.status = "done"
        self.finished_at = time.monotonic()
        self._done.set()

    def mark_failed(self, error: str) -> None:
        self.error = error
        self.status = "failed"
        self.finished_at = time.monotonic()
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    @property
    def queue_seconds(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def describe(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "tree_key": self.tree_key,
            "status": self.status,
            "error": self.error,
            "batch_size": self.batch_size,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
        }


class JobQueue:
    """Bounded FIFO of :class:`Job` with same-tree micro-batching."""

    def __init__(self, capacity: int = 32, batch_limit: int = 8):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.batch_limit = max(1, batch_limit)
        self.rejected = 0
        self._pending: deque[Job] = deque()
        self._cond = threading.Condition()
        self._in_flight = 0
        #: Trees with a batch in flight; their queued jobs wait.
        self._busy_trees: set[str] = set()
        self._accepting = True
        self._stopped = False

    # -- producer side -----------------------------------------------------

    def submit(self, job: Job) -> Job:
        with self._cond:
            if not self._accepting:
                raise Draining()
            if len(self._pending) >= self.capacity:
                self.rejected += 1
                # Hint scales with backlog: a deep queue earns a longer
                # back-off than a momentarily full one.
                raise QueueFull(
                    self.capacity,
                    retry_after=max(1.0, 0.25 * len(self._pending)),
                )
            self._pending.append(job)
            self._cond.notify()
        return job

    # -- consumer side -----------------------------------------------------

    def next_batch(self) -> list[Job] | None:
        """Block for work; None when the queue is stopped and empty.

        The head is the oldest queued job whose tree has no batch in
        flight — a job for a busy tree waits, so two workers never run
        one tree's jobs out of submission order.  The batch is the head
        plus later queued reanalyze jobs targeting the same tree
        (original order preserved, capped by ``batch_limit``) — those
        will run back-to-back on one warm engine.  Coalescing only skips
        over jobs for *other* trees: the first queued job for the head's
        tree that is not a coalescible reanalyze (an analyze resetting
        that tree, say) is an ordering barrier — deltas submitted after
        it must not run before it, so collection stops there.
        Full-analyze jobs always batch alone: they (re)build an engine
        and dominate the batch anyway.
        """
        with self._cond:
            while (first := self._first_ready()) is None:
                if self._stopped and not self._pending:
                    return None
                self._cond.wait(timeout=0.5)
            head = self._pending[first]
            taken = [first]
            if head.kind == "reanalyze":
                for index in range(first + 1, len(self._pending)):
                    job = self._pending[index]
                    if len(taken) >= self.batch_limit:
                        break
                    if job.tree_key != head.tree_key:
                        continue
                    if job.kind != "reanalyze":
                        break  # same-tree barrier: stop coalescing
                    taken.append(index)
            batch = [self._pending[index] for index in taken]
            for index in reversed(taken):
                del self._pending[index]
            self._busy_trees.add(head.tree_key)
            self._in_flight += len(batch)
            for job in batch:
                job.batch_size = len(batch)
            return batch

    def _first_ready(self) -> int | None:
        """Index of the oldest queued job whose tree is not busy."""
        return next((
            index for index, job in enumerate(self._pending)
            if job.tree_key not in self._busy_trees
        ), None)

    def done(self, batch: list[Job]) -> None:
        """Retire a batch from :meth:`next_batch` and release its tree."""
        with self._cond:
            self._in_flight -= len(batch)
            self._busy_trees.discard(batch[0].tree_key)
            self._cond.notify_all()

    # -- state -------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def in_flight(self) -> int:
        with self._cond:
            return self._in_flight

    @property
    def accepting(self) -> bool:
        with self._cond:
            return self._accepting

    def snapshot(self) -> dict[str, Any]:
        with self._cond:
            return {
                "depth": len(self._pending),
                "in_flight": self._in_flight,
                "capacity": self.capacity,
                "batch_limit": self.batch_limit,
                "accepting": self._accepting,
                "rejected_total": self.rejected,
            }

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting, wait for queued + in-flight work to finish.

        Returns True when the queue emptied within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._accepting = False
            while self._pending or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining if remaining else 0.5)
            return True

    def stop(self) -> None:
        """Wake the workers so they observe shutdown and exit."""
        with self._cond:
            self._stopped = True
            self._accepting = False
            self._cond.notify_all()
