"""Wire types shared by the executor parent and its worker processes.

Only per-file scan work crosses the process boundary: pairing and
checking are a global pass that the engine runs in-process once every
file's sites exist.  Everything on the queues is plain data, the
:class:`ExecContext` fields, or slim :class:`repro.core.cache.CachedScan`
payloads.

Task messages (parent -> worker), all tuples headed by a kind tag:

====================  ====================================================
``("ctx", ...)``      install epoch-tagged shared context (defines,
                      headers, scan limits); no reply
``("scan", ...)``     parse+scan a batch of files -> slim ``CachedScan``s
``("crash",)``        test hook: ``os._exit`` immediately; no reply
``("exit",)``         shut the worker down cleanly; no reply
====================  ====================================================

``scan`` is shaped ``(kind, batch_id, tctx, jobs)`` where ``batch_id``
is the batch's index within its op and ``tctx`` is the parent's trace
context — a ``(trace id, parent span id)`` pair from
:func:`repro.trace.context.ship`, or ``None`` when the request is
untraced.  ``ctx``/``crash``/``exit`` carry no trace context.

Replies travel on the worker's own result queue, in task order (so the
parent matches them to batches by position), as
``(worker_id, batch_id, status, payload, spans)`` with ``status``
either ``"ok"`` or ``"error"`` (handler raised; payload is the
traceback text — the parent falls back to the serial path).  ``spans``
is a list of span dicts timing the task (see
:class:`repro.trace.model.SpanRecord`) when ``tctx`` was set, else
``None``; the parent absorbs them into the live trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecContext:
    """Shared per-run inputs, shipped once per worker per epoch.

    ``epoch`` is a content token over (defines, headers, limits): the
    executor re-sends the context to a worker only when the epoch it
    last received differs, so back-to-back runs over the same tree pay
    zero context IPC.
    """

    defines: dict[str, str]
    headers: dict[str, str]
    write_window: int
    read_window: int
    epoch: str

    @classmethod
    def build(
        cls,
        defines: dict[str, str],
        headers: dict[str, str],
        write_window: int,
        read_window: int,
    ) -> "ExecContext":
        digest = hashlib.sha256()
        for name, value in sorted(defines.items()):
            digest.update(f"D{name}={value}\n".encode())
        for name, text in sorted(headers.items()):
            digest.update(f"H{name}:{len(text)}\n".encode())
            digest.update(text.encode())
        digest.update(f"W{write_window}:{read_window}".encode())
        return cls(
            defines=defines,
            headers=headers,
            write_window=write_window,
            read_window=read_window,
            epoch=digest.hexdigest(),
        )
