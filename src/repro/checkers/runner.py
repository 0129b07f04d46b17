"""Runs the registered checkers in the order the deviations compose (§5).

Composition and ordering are registry-driven (see
:mod:`repro.checkers.registry`): ordering-bucket checkers run first with
claims threaded between them (a re-read or publish-before-init object is
patched at its own deviation, so the misplaced checker must not also
move it), unneeded-barrier detection runs on the barriers pairing left
alone, and annotation proposals (§7) run last, only on pairings with no
ordering findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checkers import registry
from repro.checkers.annotate import AnnotationChecker
from repro.checkers.misplaced import MisplacedAccessChecker
from repro.checkers.model import Finding
from repro.checkers.reread import RepeatedReadChecker
from repro.checkers.seqcount import SeqcountChecker
from repro.checkers.unneeded import UnneededBarrierChecker
from repro.checkers.wrong_type import WrongBarrierTypeChecker
from repro.pairing.model import PairingResult

__all__ = [
    "ALL_CHECKS", "CheckerFailure", "CheckerSuite", "CheckReport",
    "AnnotationChecker", "MisplacedAccessChecker", "RepeatedReadChecker",
    "SeqcountChecker", "UnneededBarrierChecker", "WrongBarrierTypeChecker",
]


@dataclass
class CheckerFailure:
    """One checker that raised; surfaced instead of crashing the run."""

    checker: str
    error: str

    def describe(self) -> str:
        return f"checker {self.checker} failed: {self.error}"


@dataclass
class CheckReport:
    """All findings of one analysis run, bucketed."""

    ordering_findings: list[Finding] = field(default_factory=list)
    unneeded_findings: list[Finding] = field(default_factory=list)
    annotation_findings: list[Finding] = field(default_factory=list)
    #: Checkers that raised on this input (never-raise guarantee: a
    #: crashing checker degrades to a structured entry, not an abort).
    checker_failures: list[CheckerFailure] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        return (
            self.ordering_findings
            + self.unneeded_findings
            + self.annotation_findings
        )

    def table3_breakdown(self) -> dict[str, int]:
        """Counts per Table 3 bucket (derived from the registry)."""
        buckets: dict[str, int] = {
            name: 0 for name in registry.table3_buckets()
        }
        for finding in self.ordering_findings:
            bucket = finding.kind.table3_bucket
            if bucket is not None:
                buckets[bucket] += 1
        return buckets


#: Names accepted by ``CheckerSuite(checks=...)`` — every registered
#: checker.
ALL_CHECKS = registry.all_names()

#: Bucket of :class:`CheckReport` each registry bucket fills.
_BUCKET_FIELDS = {
    registry.ORDERING: "ordering_findings",
    registry.UNNEEDED: "unneeded_findings",
    registry.ANNOTATION: "annotation_findings",
}


class CheckerSuite:
    """Composes the registered checkers over a pairing result.

    ``checks`` selects the enabled checkers by name (see
    :data:`ALL_CHECKS`); unknown names raise ``ValueError``.  The
    ``annotate`` flag is kept for backwards compatibility and maps to
    the "annotate" check.
    """

    def __init__(self, cfg_lookup=None, annotate: bool = True,
                 checks: set[str] | frozenset[str] | None = None):
        self._cfg_lookup = cfg_lookup
        if checks is None:
            checks = set(registry.all_names())
            if not annotate:
                checks.discard("annotate")
        self._checks = registry.validate_checks(checks)

    def enabled(self, name: str) -> bool:
        return name in self._checks

    def run(self, result: PairingResult) -> CheckReport:
        report = CheckReport()

        # Multi pairings where every function holds exactly one barrier
        # are overlapping simple pairs ("broadcast" shape: one protocol,
        # several writers/readers); slice them into writer×reader duos
        # so the single-pair checkers apply.  Figure 5-style pairings
        # (two barriers in one function) stay whole for the seqcount
        # checker.
        check_list = list(result.pairings)
        for pairing in result.pairings:
            check_list.extend(_broadcast_slices(pairing))

        ctx = registry.CheckContext(
            pairings=list(result.pairings),
            check_list=check_list,
            unpaired=result.unpaired + result.implicit_ipc,
            cfg_lookup=self._cfg_lookup,
        )

        for spec in registry.bucket_specs(registry.ORDERING):
            if not self.enabled(spec.name):
                continue
            ran = self._guarded(
                report, spec.name, lambda spec=spec: spec.run(ctx)
            )
            if ran is None:
                continue
            findings, claimed = ran
            report.ordering_findings.extend(findings)
            ctx.claimed |= claimed

        report.ordering_findings = _dedupe_findings(
            report.ordering_findings
        )

        for spec in registry.bucket_specs(registry.UNNEEDED):
            if not self.enabled(spec.name):
                continue
            ran = self._guarded(
                report, spec.name, lambda spec=spec: spec.run(ctx)
            )
            if ran is not None:
                report.unneeded_findings.extend(ran[0])

        for finding in report.ordering_findings:
            if finding.pairing is None:
                continue
            ctx.buggy_pairings.add(id(finding.pairing))
            if finding.pairing.parent is not None:
                ctx.buggy_pairings.add(id(finding.pairing.parent))
        for spec in registry.bucket_specs(registry.ANNOTATION):
            if not self.enabled(spec.name):
                continue
            ran = self._guarded(
                report, spec.name, lambda spec=spec: spec.run(ctx)
            )
            if ran is not None:
                report.annotation_findings.extend(ran[0])

        report.ordering_findings.sort(
            key=lambda f: (f.filename, f.function, f.line)
        )
        return report

    @staticmethod
    def _guarded(report: CheckReport, name: str, run):
        """Run one checker; a raise becomes a :class:`CheckerFailure`."""
        try:
            return run()
        except Exception as exc:
            report.checker_failures.append(
                CheckerFailure(name, f"{type(exc).__name__}: {exc}")
            )
            return None


def _broadcast_slices(pairing) -> list:
    """Writer×reader sub-pairings of a broadcast-shaped multi pairing."""
    from collections import Counter

    from repro.pairing.model import Pairing

    if not pairing.is_multi:
        return []
    per_function = Counter(
        (b.filename, b.function) for b in pairing.barriers
    )
    if any(count > 1 for count in per_function.values()):
        return []  # Figure 5 shape: the seqcount checker owns it
    writers = [b for b in pairing.barriers if b.is_write_barrier]
    readers = [b for b in pairing.barriers if b.is_read_barrier]
    slices = []
    for writer in writers:
        for reader in readers:
            if writer.barrier_id == reader.barrier_id:
                continue
            common = sorted(
                writer.keys() & reader.keys()
                & set(pairing.common_objects),
                key=lambda k: (k.struct, k.field),
            )
            if len(common) < 2:
                continue
            slices.append(
                Pairing(
                    barriers=[writer, reader],
                    common_objects=common,
                    weight=pairing.weight,
                    parent=pairing,
                )
            )
    return slices


def _dedupe_findings(findings: list[Finding]) -> list[Finding]:
    """Drop duplicate findings produced by overlapping slices."""
    seen: set[tuple] = set()
    out: list[Finding] = []
    for finding in findings:
        key = (
            finding.kind, finding.filename, finding.function,
            finding.line,
            str(finding.object_key) if finding.object_key else "",
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out
