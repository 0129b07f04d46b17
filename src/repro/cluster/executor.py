"""The cluster executor: the engine's scan offload over N serve daemons.

:class:`ClusterExecutor` implements the same stage-offload interface as
:class:`repro.exec.AnalysisExecutor` — ``scan`` — and the same
fan-out (:func:`repro.exec.fanout.fan_out`), but each lane is a worker
node (a serve daemon exposing the ``/v1/shard/{ctx,scan}`` endpoints)
reached over HTTP instead of a local process.  Plugging it into
:class:`~repro.core.engine.AnalysisOptions.executor` turns any engine
into a cluster coordinator, inheriting all of the engine's parity
machinery for free:

* files are sharded by consistent hash (:class:`~repro.cluster.ring
  .HashRing`), so assignment is deterministic and node-local scan
  caches stay warm across runs;
* pairing and checking are **not** distributed: the coordinator's
  engine runs them in-process over the global site set, exactly as a
  serial run does;
* every failure mode (node down, RPC timeout, error reply) degrades to
  an incomplete scan, whose missing files the engine re-scans serially
  — never a wrong result.

What is specific to HTTP: 428 (the node does not hold the request's
context epoch) surfaces as :class:`~repro.exec.fanout.StaleContext`,
which the fan-out answers with one re-install; 503 backs off per
``Retry-After``; connection-level failures retry with exponential
backoff and then mark the node down.  A failed node's shard moves to
the next live node (``redispatches``).  ``probe()`` re-admits recovered
nodes with their warm state assumed gone.

Tracing: under an active trace each scan RPC is an ``rpc.scan`` span,
the trace context rides the ``X-Repro-Trace`` header (attached by the
underlying HTTP client), and the spans a node returns inline are
absorbed by the fan-out — producing one coherent tree across
coordinator, nodes, and the nodes' exec workers.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster.client import ShardClient
from repro.cluster.ring import HashRing
from repro.exec.fanout import LaneDown, StaleContext, fan_out
from repro.exec.protocol import ExecContext
from repro.serve.client import ClientError
from repro.serve.metrics import LatencyWindow
from repro.serve.shard import unpack
from repro.trace.context import span

#: Connection-level failures: what a dead/dying node looks like.  Note
#: ``http.client.HTTPException`` (e.g. BadStatusLine from a listener
#: closed mid-response) is *not* an OSError.
_CONN_ERRORS = (OSError, http.client.HTTPException)
#: Connection retries before a node is marked down.
NODE_RETRIES = 1
#: 503 answers honoured per call before it counts as a node error.
BUSY_RETRIES = 3
#: First back-off delay and its cap, in seconds.
RETRY_BACKOFF = 0.1
MAX_BACKOFF = 5.0


class NodeDown(LaneDown):
    """A node failed its retry budget for one RPC."""


class _Node:
    """Coordinator-side handle of one worker node: a fan-out lane."""

    def __init__(self, url: str, client: ShardClient,
                 owner: "ClusterExecutor"):
        self.url = url
        self.client = client
        self.owner = owner
        self.up = True
        #: Context epoch installed on this node (this incarnation).
        self.epoch: str | None = None
        self.latency = LatencyWindow()
        self.rpcs = 0
        self.errors = 0

    def install(self, ctx: ExecContext) -> None:
        self.owner._call(self, lambda: self.client.shard_ctx(ctx))

    def run(self, batches, ctx: ExecContext):
        owner = self.owner
        for batch in batches:
            hook = owner.on_scan_dispatch
            if hook is not None:
                hook(self.url)
            with owner._stats_lock:
                owner.stats.count_op("scan")
            started = time.monotonic()
            # The span is active around the call so the HTTP client
            # ships it in X-Repro-Trace: spans the node records for
            # this request parent under this rpc span.
            with span("rpc.scan", target=self.url):
                out = owner._call(
                    self, lambda: self.client.shard_scan(ctx.epoch, batch)
                )
            self.latency.record(time.monotonic() - started)
            with owner._stats_lock:
                self.rpcs += 1
                owner.stats.rpcs += 1
            yield unpack(out["payloads"]), out.get("hits", 0), \
                out.get("spans")


@dataclass
class ClusterStats:
    """Coordinator-side counters (``snapshot()`` feeds ``/metrics``)."""

    rpcs: int = 0
    rpc_errors: int = 0
    redispatches: int = 0
    node_failures: int = 0
    nodes_revived: int = 0
    scan_files_lost: int = 0
    scan_duplicates: int = 0
    ops: dict[str, int] = field(default_factory=dict)

    def count_op(self, name: str) -> None:
        self.ops[name] = self.ops.get(name, 0) + 1


class ClusterExecutor:
    """Scan offload over HTTP worker nodes; engine-executor shaped."""

    def __init__(
        self,
        nodes: list[str],
        timeout: float = 300.0,
        client_factory: Callable[[str], ShardClient] | None = None,
    ):
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        factory = client_factory or (
            lambda url: ShardClient(url, timeout=timeout)
        )
        self._nodes = [_Node(url, factory(url), self) for url in
                       dict.fromkeys(url.rstrip("/") for url in nodes)]
        self._ring = HashRing([n.url for n in self._nodes])
        self._closed = False
        self._stats_lock = threading.Lock()
        self.stats = ClusterStats()
        #: Test hook: called with a node's url just before a scan group
        #: is dispatched to it (outside locks) — crash-injection point:
        #: a node killed here fails that RPC and its group fails over.
        self.on_scan_dispatch: Callable[[str], None] | None = None

    # -- executor interface surface ----------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def workers(self) -> int:
        """Live node count; the engine uses this only as a hint."""
        return max(1, sum(1 for n in self._nodes if n.up))

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ClusterExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- node management ---------------------------------------------------

    def _live(self) -> list[_Node]:
        return [n for n in self._nodes if n.up]

    def probe(self) -> dict[str, bool]:
        """Health-check every node; revive recovered ones (warm state
        presumed lost — the 428 context resync rebuilds it)."""
        status: dict[str, bool] = {}
        for node in self._nodes:
            try:
                node.client.healthz()
                alive = True
            except ClientError as exc:
                # The daemon answered: it exists, but 503 means it is
                # draining and must not be scheduled.
                alive = exc.status != 503
            except _CONN_ERRORS:
                alive = False
            if alive and not node.up:
                node.up = True
                node.epoch = None
                with self._stats_lock:
                    self.stats.nodes_revived += 1
            elif not alive and node.up:
                self._mark_down(node)
            status[node.url] = node.up
        return status

    def _mark_down(self, node: _Node) -> None:
        if node.up:
            node.up = False
            node.epoch = None
            with self._stats_lock:
                self.stats.node_failures += 1

    def _call(self, node: _Node, fn: Callable[[], dict[str, Any]]):
        """One node call with the back-off ladder: 428 →
        :class:`StaleContext`; 503 → honour Retry-After up to
        ``BUSY_RETRIES``; connection failures → exponential backoff up
        to ``NODE_RETRIES``, then the node is down (:class:`NodeDown`).
        Any other error answer fails the call (:class:`LaneDown`)."""
        conn_failures = busy_waits = 0
        delay = RETRY_BACKOFF
        while True:
            try:
                return fn()
            except ClientError as exc:
                if exc.status == 428:
                    raise StaleContext(node.url) from exc
                if exc.status == 503 and busy_waits < BUSY_RETRIES:
                    busy_waits += 1
                    time.sleep(min(exc.retry_after or delay, MAX_BACKOFF))
                    delay = min(delay * 2, MAX_BACKOFF)
                    continue
                self._count_error(node)
                raise LaneDown(f"{node.url}: {exc}") from exc
            except _CONN_ERRORS as exc:
                self._count_error(node)
                if conn_failures >= NODE_RETRIES:
                    self._mark_down(node)
                    raise NodeDown(f"{node.url}: {exc}") from exc
                conn_failures += 1
                time.sleep(min(delay, MAX_BACKOFF))
                delay = min(delay * 2, MAX_BACKOFF)

    def _count_error(self, node: _Node) -> None:
        with self._stats_lock:
            node.errors += 1
            self.stats.rpc_errors += 1

    def _successor(self, node: _Node, tried: list) -> _Node | None:
        """The next live node (list order) not yet tried for a group."""
        nxt = next((n for n in self._live() if n not in tried), None)
        if nxt is not None:
            with self._stats_lock:
                self.stats.redispatches += 1
        return nxt

    # -- stage offload -----------------------------------------------------

    def scan(self, jobs, ctx: ExecContext, on_result) -> dict:
        """Shard ``jobs`` by file path over live nodes, one group per
        node.  Files no node delivers are left undelivered — the engine
        re-scans them serially, so the run stays complete."""
        by_path = {job[0]: job for job in jobs}
        live = {n.url for n in self._live()}
        groups = self._ring.assign(list(by_path), live) if live else {}
        nodes = {n.url: n for n in self._nodes}
        plan = [
            (nodes[url], [[by_path[p] for p in paths]])
            for url, paths in groups.items()
        ]
        stats = fan_out(
            plan, ctx, on_result, self._successor, lambda: self._closed
        )
        with self._stats_lock:
            self.stats.scan_duplicates += stats["dropped"]
            self.stats.scan_files_lost += len(jobs) - stats["completed"]
        return stats

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        """Flat numerics (the ``executor`` gauge group shape)."""
        with self._stats_lock:
            return {
                "nodes": len(self._nodes),
                "nodes_up": sum(1 for n in self._nodes if n.up),
                "rpcs": self.stats.rpcs,
                "rpc_errors": self.stats.rpc_errors,
                "redispatches": self.stats.redispatches,
                "node_failures": self.stats.node_failures,
                "nodes_revived": self.stats.nodes_revived,
                "scan_files_lost": self.stats.scan_files_lost,
                "scan_duplicates": self.stats.scan_duplicates,
            }

    def cluster_snapshot(self) -> dict:
        """The full ``cluster`` gauge group for ``/metrics``
        (``ofence_cluster_*``), including per-node latency series."""
        snap: dict[str, Any] = self.snapshot()
        with self._stats_lock:
            snap["shard_ops"] = dict(self.stats.ops)
        snap["per_node"] = {
            node.url: {
                "up": node.up,
                "rpcs": node.rpcs,
                "errors": node.errors,
                **{
                    key: value
                    for key, value in node.latency.summary().items()
                    if value is not None
                },
            }
            for node in self._nodes
        }
        return snap
