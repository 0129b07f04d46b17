"""The ``cluster`` run mode: full analysis through a live mini-cluster.

Registered in the engine's run-mode registry and listed in the fuzzing
layer's :data:`~repro.fuzz.differential.DEFAULT_MODES`, so the
differential oracle continuously proves the cluster tier bit-for-bit
against serial mode — including under failure: every run analyzes the
tree twice, once on a healthy cluster and once with a node crashed
mid-analysis (as its scan group is dispatched, so that group fails
over), and requires both results to match before handing either to
the oracle.
"""

from __future__ import annotations

import threading

from repro.cluster.coordinator import ClusterCoordinator
from repro.core.engine import AnalysisOptions, AnalysisResult, KernelSource
from repro.fuzz.differential import run_signature
from repro.serve.server import AnalysisServer


def run_via_cluster(
    source: KernelSource,
    options: AnalysisOptions | None = None,
    nodes: int = 2,
) -> AnalysisResult:
    """Analyze ``source`` on an in-process ``nodes``-node cluster.

    Two coordinated runs: clean, then with node 0 killed as its scan
    group is dispatched (when the tree is too small to send node 0 any
    files, the kill never fires and the second run is simply a rerun —
    still a parity check).  Returns the crash-run result, which
    the caller diffs against other modes.
    """
    servers = [AnalysisServer() for _ in range(nodes)]
    try:
        for server in servers:
            server.start()
        with ClusterCoordinator([s.url for s in servers]) as coord:
            clean = coord.analyze(source, options)

            killed = threading.Event()

            def kill_first_node(url: str) -> None:
                if url == servers[0].url and not killed.is_set():
                    killed.set()
                    servers[0].stop()

            coord.executor.on_scan_dispatch = kill_first_node
            crashed = coord.analyze(source, options)
            coord.executor.on_scan_dispatch = None

            if run_signature(clean) != run_signature(crashed):
                raise RuntimeError(
                    "cluster parity violation: node-crash run diverged "
                    "from the healthy run on the same tree"
                )
        return crashed
    finally:
        for server in servers:
            try:
                server.stop()
            except Exception:
                pass
