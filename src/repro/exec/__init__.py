"""``repro.exec`` — the persistent, process-based analysis executor.

A warm worker pool shared by the CLI, the engine, and the serve daemon:
per-file parse+scan dispatches to long-lived worker processes that keep
scan results hot across ``analyze()`` calls, while pairing and checking
stay a serial global pass in the engine.  See :class:`AnalysisExecutor`;
its fan-out (:mod:`repro.exec.fanout`) is shared with the cluster tier.
"""

from repro.exec.executor import (
    AnalysisExecutor,
    ExecStats,
    ExecutorClosed,
    close_default_executor,
    get_default_executor,
)
from repro.exec.protocol import ExecContext

__all__ = [
    "AnalysisExecutor",
    "ExecContext",
    "ExecStats",
    "ExecutorClosed",
    "close_default_executor",
    "get_default_executor",
]
