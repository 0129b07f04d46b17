"""Request-scoped structured tracing across every execution tier.

One analysis request — CLI one-shot, daemon job, or cluster submit —
produces one :class:`Trace`: a flat, thread-safe collection of timed
:class:`SpanRecord` entries that reconstruct into a tree by parent id.
The engine opens spans around its stages, the process-pool protocol
carries span context into workers and back, and the serve/cluster HTTP
paths propagate the trace id via the ``X-Repro-Trace`` header — so a
single cluster submission yields one coherent span tree covering the
coordinator, every shard node, and the nodes' exec workers.

Tracing is ambient (a :mod:`contextvars` context variable) and strictly
observational.  Spans are the engine's only instrumentation: each run
records its stages into the ambient trace, or into a private trace
dropped after the run when none is active, and reads its
:class:`~repro.core.profile.StageProfile` back from them.  Outside a
run, with no active trace, every instrumentation point is a no-op.  The
analysis output is bit-for-bit identical with and without an ambient
trace (``tests/test_trace.py`` checks every run mode).

Export formats (:mod:`repro.trace.export`): Chrome ``trace_event`` JSON
(loadable in Perfetto / ``chrome://tracing``) and a compact text tree.
"""

from repro.trace.context import (
    absorb_remote,
    activate,
    count,
    current,
    current_trace,
    format_header,
    parse_header,
    run_span,
    ship,
    ship_header,
    span,
    start_trace,
)
from repro.trace.export import (
    dangling,
    render_tree,
    to_chrome,
    validate_chrome,
)
from repro.trace.model import SpanRecord, Trace, new_id

#: HTTP header carrying ``<trace id>`` or ``<trace id>/<parent span>``.
TRACE_HEADER = "X-Repro-Trace"

__all__ = [
    "SpanRecord",
    "TRACE_HEADER",
    "Trace",
    "absorb_remote",
    "activate",
    "count",
    "current",
    "current_trace",
    "dangling",
    "format_header",
    "new_id",
    "parse_header",
    "render_tree",
    "run_span",
    "ship",
    "ship_header",
    "span",
    "start_trace",
    "to_chrome",
    "validate_chrome",
]
