"""HTTP client for a cluster worker node.

:class:`ShardClient` extends the serve client with the
``/v1/shard/{ctx,scan}`` intra-cluster RPCs (see ``repro.serve.shard``
for the endpoint and error contract).  Scan results travel packed
(base64/zlib/pickle) inside the JSON envelopes; the coordinator unpacks
them with the same helper the node packs them with.
"""

from __future__ import annotations

from typing import Any

from repro.exec.protocol import ExecContext
from repro.serve.client import ServeClient


class ShardClient(ServeClient):
    """One coordinator's handle on one worker node."""

    def shard_ctx(self, ctx: ExecContext) -> dict[str, Any]:
        return self._request("POST", "/v1/shard/ctx", {
            "epoch": ctx.epoch,
            "defines": dict(ctx.defines),
            "headers": dict(ctx.headers),
            "write_window": ctx.write_window,
            "read_window": ctx.read_window,
        })

    def shard_scan(
        self, epoch: str, jobs: list[tuple[str, str, str]]
    ) -> dict[str, Any]:
        return self._request("POST", "/v1/shard/scan", {
            "epoch": epoch,
            "jobs": [[path, text, key] for path, text, key in jobs],
        })
