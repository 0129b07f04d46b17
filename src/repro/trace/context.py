"""Ambient trace propagation (contextvars) and the span primitive.

The active trace travels in a :class:`contextvars.ContextVar` as a
``(Trace, current span id, current span record)`` triple, so
instrumentation points never thread a handle through call signatures:

* :func:`span` opens a child of the current span — and is a complete
  no-op (zero allocations beyond the generator) when no trace is
  active;
* :func:`count` adds to a counter in the current span's meta (no-op
  when inactive);
* :func:`activate` installs an existing trace (the serve daemon
  activates a job's trace on the worker thread running it);
* :func:`start_trace` builds a fresh trace with a root span (the CLI's
  ``--trace``);
* :func:`run_span` opens a span in the ambient trace, or as the root of
  a private trace when none is active — every engine run records its
  stages this way, and its ``StageProfile`` is read back from them.

Cross-boundary plumbing: :func:`ship` captures ``(trace id, span id)``
for the exec task protocol, :func:`ship_header`/:func:`parse_header`
do the same for the ``X-Repro-Trace`` HTTP header, and
:func:`absorb_remote` merges span dicts a remote party returned into
the active trace.

Thread fan-outs must give each thread its own context copy
(``contextvars.copy_context().run`` — one Context object cannot be
entered concurrently); the cluster executor does exactly that.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterable

from repro.trace.model import SpanRecord, Trace

_ACTIVE: ContextVar[
    tuple[Trace, str | None, SpanRecord | None] | None
] = ContextVar("repro_trace_active", default=None)


def current() -> tuple[Trace, str | None] | None:
    """The ambient ``(trace, current span id)`` pair, or ``None``."""
    active = _ACTIVE.get()
    return active[:2] if active is not None else None


def current_trace() -> Trace | None:
    active = _ACTIVE.get()
    return active[0] if active is not None else None


@contextmanager
def activate(trace: Trace, parent: str | None = None):
    """Install ``trace`` as the ambient trace for the block.

    ``parent`` seeds the current span id, so spans opened inside parent
    to a span that lives elsewhere (the coordinator's RPC span, say).
    """
    token = _ACTIVE.set((trace, parent, None))
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, node: str | None = None, **meta: Any):
    """Open a timed child span of the current one; no-op when inactive.

    Yields the :class:`SpanRecord` (or ``None`` when tracing is off) so
    callers can attach metadata discovered mid-stage.  An escaping
    exception is recorded as ``meta["error"]`` and re-raised — the span
    still closes, so failure paths never leave dangling spans.
    """
    active = _ACTIVE.get()
    if active is None:
        yield None
        return
    trace, parent, _ = active
    record = SpanRecord(
        name=name, parent_id=parent,
        node=node if node is not None else trace.node, meta=dict(meta),
    )
    trace.add(record)
    token = _ACTIVE.set((trace, record.span_id, record))
    opened = time.perf_counter()
    try:
        yield record
    except BaseException as exc:
        record.meta.setdefault("error", type(exc).__name__)
        raise
    finally:
        record.duration = time.perf_counter() - opened
        _ACTIVE.reset(token)


@contextmanager
def start_trace(
    name: str,
    trace_id: str | None = None,
    node: str = "local",
    **meta: Any,
):
    """A fresh trace with a root span covering the block."""
    trace = Trace(trace_id=trace_id, node=node)
    with activate(trace):
        with span(name, **meta):
            yield trace


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` in the current span's meta.

    Counter names are dotted (``scan.disk_hits``), which is what tells
    them apart from descriptive meta such as ``files``.  A no-op when
    no span of this process is open.
    """
    active = _ACTIVE.get()
    if active is not None and active[2] is not None:
        meta = active[2].meta
        meta[name] = meta.get(name, 0) + amount


@contextmanager
def run_span(name: str, **meta: Any):
    """A span in the ambient trace, else the root of a private trace.

    Yields ``(trace, record)``.  The private trace is dropped with the
    block, so a run records its spans whether or not anyone traces it.
    """
    active = _ACTIVE.get()
    trace, parent = active[:2] if active is not None else (Trace(), None)
    with activate(trace, parent), span(name, **meta) as record:
        yield trace, record


# -- cross-boundary plumbing ------------------------------------------------


def ship() -> tuple[str, str | None] | None:
    """``(trace id, current span id)`` for IPC, or ``None`` when off."""
    active = _ACTIVE.get()
    if active is None:
        return None
    return active[0].trace_id, active[1]


def format_header(trace_id: str, parent: str | None = None) -> str:
    """The ``X-Repro-Trace`` value: ``tid`` or ``tid/parent span``."""
    return f"{trace_id}/{parent}" if parent else trace_id


def ship_header() -> str | None:
    """The header value for the ambient trace, or ``None`` when off."""
    shipped = ship()
    if shipped is None:
        return None
    return format_header(*shipped)


def parse_header(value: str | None) -> tuple[str, str | None] | None:
    """Parse an ``X-Repro-Trace`` value; ``None`` when absent/garbage."""
    if not value or not isinstance(value, str):
        return None
    trace_id, _, parent = value.strip().partition("/")
    if not trace_id:
        return None
    return trace_id, (parent or None)


def absorb_remote(span_dicts: Iterable[dict] | None) -> int:
    """Merge remote span dicts into the ambient trace (no-op when off)."""
    if not span_dicts:
        return 0
    trace = current_trace()
    if trace is None:
        return 0
    return trace.absorb(span_dicts)
