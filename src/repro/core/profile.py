"""Per-stage timing and counter breakdown for one analysis run.

The engine records nothing but :mod:`repro.trace` spans: each run opens
one run span, every stage and sub-stage below it is an
``engine.<stage>`` span (``engine.scan``, ``engine.pair.sync``), and
event counters (cache hits, worker payloads, pairing candidates reused)
live in those spans' meta.  :class:`StageProfile` is the read-only view
of one run's subtree that ``--profile``, ``/metrics`` and the
benchmarks read; ``AnalysisResult.stage_seconds`` keeps its coarse
top-level stages (scan / pair / check / fingerprint / patch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.trace.model import SpanRecord

#: Span-name prefix of the engine's stages.
STAGE_PREFIX = "engine."


@dataclass(frozen=True)
class StageProfile:
    """Timings (seconds) and counters of one run."""

    stages: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_spans(
        cls, records: Iterable[SpanRecord], run_span_id: str
    ) -> "StageProfile":
        """The view over the spans below ``run_span_id``.

        ``stages[s]`` sums the durations of the run's ``engine.<s>``
        descendants; ``counters`` sums their dotted meta entries (see
        :func:`repro.trace.context.count`).  A span is recorded when it
        opens, so one pass in record order meets parents first.
        """
        inside = {run_span_id}
        stages: dict[str, float] = {}
        counters: dict[str, int] = {}
        for record in records:
            if record.parent_id not in inside:
                continue
            inside.add(record.span_id)
            if not record.name.startswith(STAGE_PREFIX):
                continue
            stage = record.name[len(STAGE_PREFIX):]
            stages[stage] = stages.get(stage, 0.0) + record.duration
            for name, value in record.meta.items():
                if "." in name:
                    counters[name] = counters.get(name, 0) + value
        return cls(stages, counters)

    def coarse(self) -> dict[str, float]:
        """Top-level stages only (no dotted sub-stages)."""
        return {
            name: seconds
            for name, seconds in self.stages.items()
            if "." not in name
        }

    def render(self, title: str = "Stage profile") -> str:
        lines = [title, "-" * len(title)]
        width = max(
            (len(name) for name in (*self.stages, *self.counters)),
            default=0,
        )
        for name in sorted(
            self.stages, key=lambda n: (n.split(".")[0], n.count("."), n)
        ):
            indent = "  " if "." in name else ""
            lines.append(
                f"{indent}{name:<{width}}  {self.stages[name] * 1000:10.2f} ms"
            )
        if self.counters:
            lines.append("")
            for name in sorted(self.counters):
                lines.append(f"{name:<{width}}  {self.counters[name]:>10}")
        return "\n".join(lines)
