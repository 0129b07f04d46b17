"""``repro.cluster`` — the sharded multi-node analysis tier.

A :class:`ClusterCoordinator` partitions a kernel tree across N worker
nodes (serve daemons exposing ``/v1/shard/{ctx,scan}``; see
``repro.serve.shard``) by consistent hash, fans the engine's per-file
scans out over HTTP, and runs pairing and checking in-process, so the
final report is bit-for-bit the single-node one.  Node failures are handled
by health probes, per-shard retry with backoff, and shard reassignment
to survivors.
"""

from repro.cluster.client import ShardClient
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import ClusterExecutor, NodeDown
from repro.cluster.mode import run_via_cluster
from repro.cluster.ring import HashRing

__all__ = [
    "ClusterCoordinator",
    "ClusterExecutor",
    "HashRing",
    "NodeDown",
    "ShardClient",
    "run_via_cluster",
]
