"""Evaluation reporting: the tables and figure data of §6.

``EvaluationReport`` aggregates one analysis run (plus optional ground
truth) into the paper's evaluation artifacts:

* Table 3 — breakdown of ordering bugs found (ground-truth confirmed),
  next to the raw ordering findings per bucket;
* §6.1 — files analyzed / skipped, run time;
* §6.3 — unneeded barriers;
* §6.4 — pairings, coverage, false-positive ratios;
* Figure 6 — pairings vs. write-window sweep (see
  :func:`sweep_write_window`);
* Figure 7 — read-side distance histogram (see
  :func:`read_distance_histogram`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def render_table(title: str, rows: list[tuple[str, object]]) -> str:
    """Fixed-width two-column table used by the CLI and benchmarks."""
    width = max((len(label) for label, _ in rows), default=10)
    lines = [title, "-" * max(len(title), width + 12)]
    for label, value in rows:
        lines.append(f"{label.ljust(width)}  {value}")
    return "\n".join(lines)


@dataclass
class EvaluationReport:
    """Rendered view of one analysis run."""

    result: "AnalysisResult"
    score: "RunScore | None" = None

    # -- individual artifacts ---------------------------------------------------

    def table3(self) -> str:
        """Table 3 and the raw ordering findings per bucket.

        Table 3 counts bugs the ground truth confirms, so it is rendered
        only when a score is present; the raw counts also include the
        expected false-positive patches and get their own title.
        """
        findings = render_table(
            "Ordering findings by kind",
            list(self.result.report.table3_breakdown().items()),
        )
        if self.score is None:
            return findings
        bugs = render_table(
            "Table 3: breakdown of bugs found in the kernel",
            list(self.score.detected_table3().items()),
        )
        return f"{bugs}\n\n{findings}"

    def section_6_1(self) -> str:
        result = self.result
        rows: list[tuple[str, object]] = [
            ("Files containing barriers", result.files_with_barriers),
            ("Files analyzed (config-enabled)", result.files_analyzed),
            ("Files skipped by config", len(result.files_skipped_by_config)),
            ("Files failing to parse", len(result.files_failed)),
            ("Full analysis time (s)", f"{result.elapsed_seconds:.2f}"),
        ]
        for stage, seconds in result.stage_seconds.items():
            rows.append((f"  stage: {stage} (s)", f"{seconds:.2f}"))
        return render_table("Section 6.1: setup and analysis time", rows)

    def section_6_3(self) -> str:
        rows = [
            ("Unneeded barriers removed",
             len(self.result.report.unneeded_findings)),
        ]
        return render_table("Section 6.3: unneeded barriers", rows)

    def section_6_4(self) -> str:
        result = self.result
        rows: list[tuple[str, object]] = [
            ("Barriers found", result.total_barriers),
            ("Pairings", len(result.pairing.pairings)),
            ("Multi-barrier pairings",
             sum(1 for p in result.pairing.pairings if p.is_multi)),
            ("Barrier coverage", f"{result.pairing_coverage:.1%}"),
            ("Implicit-IPC writers", len(result.pairing.implicit_ipc)),
            ("Unpaired barriers", len(result.pairing.unpaired)),
        ]
        if self.score is not None:
            score = self.score
            rows += [
                ("Correct pairings", score.correct_pairings),
                ("Incorrect pairings", score.incorrect_pairings),
                ("Bugs detected", len(score.detected_bugs)),
                ("Bugs missed", len(score.missed_bugs)),
                ("False-positive patches",
                 len(score.expected_fp_findings)
                 + len(score.unexpected_findings)),
                ("Patch FP ratio",
                 f"{score.patch_false_positive_ratio:.0%}"),
            ]
        return render_table(
            "Section 6.4: pairings, false positives and coverage", rows
        )

    def section_7(self) -> str:
        rows = [
            ("READ_ONCE/WRITE_ONCE findings",
             len(self.result.report.annotation_findings)),
        ]
        return render_table("Section 7: annotation extension", rows)

    def render(self) -> str:
        parts = [
            self.section_6_1(), self.table3(), self.section_6_3(),
            self.section_6_4(), self.section_7(),
        ]
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------


@dataclass
class WindowSweepPoint:
    """One point of the Figure 6 sweep."""

    write_window: int
    pairings: int
    incorrect_pairings: int | None = None


def sweep_to_csv(points: list[WindowSweepPoint]) -> str:
    """Figure 6 data as CSV (for external plotting)."""
    lines = ["write_window,pairings,incorrect_pairings"]
    for point in points:
        incorrect = "" if point.incorrect_pairings is None \
            else point.incorrect_pairings
        lines.append(f"{point.write_window},{point.pairings},{incorrect}")
    return "\n".join(lines) + "\n"


def sweep_write_window(
    source,
    windows: list[int],
    truth=None,
    read_window: int = 50,
) -> list[WindowSweepPoint]:
    """Figure 6: pairings found as the write-barrier window varies."""
    from repro.analysis.barrier_scan import ScanLimits
    from repro.core.engine import AnalysisOptions, OFenceEngine
    from repro.corpus.groundtruth import score_run

    points: list[WindowSweepPoint] = []
    for window in windows:
        options = AnalysisOptions(
            limits=ScanLimits(write_window=window, read_window=read_window),
            annotate=False,
        )
        result = OFenceEngine(source, options).analyze()
        incorrect = None
        if truth is not None:
            incorrect = score_run(result, truth).incorrect_pairings
        points.append(
            WindowSweepPoint(
                write_window=window,
                pairings=len(result.pairing.pairings),
                incorrect_pairings=incorrect,
            )
        )
    return points


@dataclass
class DistanceHistogram:
    """Figure 7 data: distances of read-side shared objects."""

    bin_edges: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for (low, high), count in zip(
            zip(self.bin_edges, self.bin_edges[1:]), self.counts
        ):
            bar = "#" * min(count, 60)
            rows.append((f"{low:>3}-{high - 1:<3}", f"{count:<6} {bar}"))
        return render_table(
            "Figure 7: distance between read barriers and read shared "
            "objects", rows,
        )

    def to_csv(self) -> str:
        """Histogram data as CSV (for external plotting)."""
        lines = ["bin_low,bin_high,count"]
        for (low, high), count in zip(
            zip(self.bin_edges, self.bin_edges[1:]), self.counts
        ):
            lines.append(f"{low},{high - 1},{count}")
        return "\n".join(lines) + "\n"


def read_distance_histogram(
    result, bin_width: int = 5, max_distance: int = 50
) -> DistanceHistogram:
    """Distances of reads of pairing objects from their read barriers."""
    distances: list[int] = []
    for pairing in result.pairing.pairings:
        common = set(pairing.common_objects)
        for barrier in pairing.barriers:
            if not barrier.is_read_barrier:
                continue
            for use in barrier.uses:
                if use.key in common and use.kind.reads \
                        and use.inlined_from is None:
                    distances.append(min(use.distance, max_distance))
    edges = list(range(0, max_distance + bin_width, bin_width))
    counts = [0] * (len(edges) - 1)
    for distance in distances:
        index = min(distance // bin_width, len(counts) - 1)
        counts[index] += 1
    return DistanceHistogram(bin_edges=edges, counts=counts)


def write_distance_histogram(
    result, bin_width: int = 1, max_distance: int = 10
) -> DistanceHistogram:
    """Companion data for Figure 6's claim: write-side objects cluster
    within five statements of the write barrier."""
    distances: list[int] = []
    for pairing in result.pairing.pairings:
        common = set(pairing.common_objects)
        for barrier in pairing.barriers:
            if not barrier.is_write_barrier:
                continue
            for use in barrier.uses:
                if use.key in common and use.kind.writes \
                        and use.inlined_from is None:
                    distances.append(min(use.distance, max_distance))
    edges = list(range(0, max_distance + bin_width, bin_width))
    counts = [0] * (len(edges) - 1)
    for distance in distances:
        index = min(distance // bin_width, len(counts) - 1)
        counts[index] += 1
    return DistanceHistogram(bin_edges=edges, counts=counts)
