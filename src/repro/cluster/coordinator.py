"""The cluster coordinator: an engine front-end over worker nodes.

:class:`ClusterCoordinator` owns a :class:`~repro.cluster.executor
.ClusterExecutor` over a fixed node set and analyzes trees by running a
regular :class:`~repro.core.engine.OFenceEngine` with that executor
plugged into :class:`~repro.core.engine.AnalysisOptions.executor`.
The engine remains the single source of truth for semantics: sharded
scan results feed its normal pipeline, pairing and checking run in the
coordinator process, and every scan the nodes fail to deliver falls
back to the engine's serial path — so the final
:class:`~repro.core.report.CheckReport` is bit-for-bit the single-node
one by construction.

``make_server`` wraps the coordinator in a standard
:class:`~repro.serve.server.AnalysisServer`, which is what
``repro cluster serve`` runs: the public daemon API (submit/jobs/
metrics) in front, scan fan-out behind.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.cluster.executor import ClusterExecutor
from repro.core.engine import (
    AnalysisOptions,
    AnalysisResult,
    KernelSource,
    OFenceEngine,
)


class ClusterCoordinator:
    """Analyzes kernel trees by fanning scan work out to nodes."""

    def __init__(
        self,
        node_urls: list[str],
        options: AnalysisOptions | None = None,
        **executor_kwargs,
    ):
        self.executor = ClusterExecutor(node_urls, **executor_kwargs)
        base = options if options is not None else AnalysisOptions()
        #: Engine options for every coordinated run: the cluster is the
        #: execution vehicle, single-threaded coordinator drives it.
        self.options = dataclasses.replace(
            base, executor=self.executor, workers=None,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- analysis ----------------------------------------------------------

    def analyze(
        self,
        source: KernelSource,
        options: AnalysisOptions | None = None,
    ) -> AnalysisResult:
        """One full coordinated analysis of ``source``."""
        opts = self.options
        if options is not None:
            opts = dataclasses.replace(
                options, executor=self.executor, workers=None,
            )
        return OFenceEngine(source, opts).analyze()

    # -- operations --------------------------------------------------------

    def probe(self) -> dict[str, bool]:
        return self.executor.probe()

    def status(self) -> dict[str, Any]:
        """Node liveness plus the full cluster gauge group."""
        return {
            "nodes": self.probe(),
            "cluster": self.executor.cluster_snapshot(),
        }

    def make_server(
        self, host: str = "127.0.0.1", port: int = 0, **service_kwargs
    ):
        """A standard analysis daemon whose engines coordinate this
        cluster: submissions arrive over the normal serve API and the
        scan work fans out to the nodes."""
        from repro.serve.server import AnalysisServer, AnalysisService

        service = AnalysisService(options=self.options, **service_kwargs)
        return AnalysisServer(service=service, host=host, port=port)
