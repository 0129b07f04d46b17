"""Differential oracle: every run mode must agree with serial.

The performance layer (PR 1) added parallel scanning, an on-disk scan
cache, and incremental re-analysis; all of them must be invisible in
the output.  ``check_differential`` runs one source tree through every
registered run mode and diffs a full observable signature — sites,
pairings, findings (with line numbers: the input is byte-identical
across modes), patches, failure entries, and checker failures.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import (
    AnalysisOptions,
    AnalysisResult,
    KernelSource,
    run_in_mode,
)

#: Modes exercised by default; "serial" is the reference.  "executor"
#: runs cold and then warm through the default process pool.  "serve"
#: submits the tree to an in-process ``repro.serve`` daemon over real
#: HTTP, so the wire codec, queue, and engine pool are all under the
#: differential oracle.  "cluster" coordinates a live two-node
#: mini-cluster over the shard protocol — including a node crash
#: injected mid-analysis — so sharding, merge, and failover are under
#: the oracle too.  "store" records the serial result into a throwaway
#: findings store twice and asserts the store's own diff sees no drift,
#: so the fingerprint/record/diff round-trip is under the oracle too.
DEFAULT_MODES: tuple[str, ...] = (
    "serial", "cached", "incremental", "serve", "executor", "cluster",
    "store",
)


def run_signature(result: AnalysisResult) -> dict:
    """Everything observable about one run, in comparable form."""
    return {
        "files_with_barriers": result.files_with_barriers,
        "files_analyzed": result.files_analyzed,
        "files_skipped": sorted(result.files_skipped_by_config),
        "files_failed": sorted(
            (str(entry), entry.stage, entry.error)
            for entry in result.files_failed
        ),
        "sites": [site.barrier_id for site in result.sites],
        "pairings": sorted(p.describe()
                           for p in result.pairing.pairings),
        "unpaired": sorted(s.barrier_id
                           for s in result.pairing.unpaired),
        "implicit_ipc": sorted(s.barrier_id
                               for s in result.pairing.implicit_ipc),
        "findings": sorted(f.describe()
                           for f in result.report.all_findings),
        "fingerprints": sorted(
            f.fingerprint or "" for f in result.report.all_findings
        ),
        "checker_failures": sorted(
            cf.describe() for cf in result.report.checker_failures
        ),
        "patches": sorted((p.filename, p.applied, p.render())
                          for p in result.patches),
    }


def _diff_signatures(base: dict, other: dict) -> list[str]:
    diffs: list[str] = []
    for key in base:
        if base[key] == other[key]:
            continue
        if isinstance(base[key], list):
            lost = [x for x in base[key] if x not in other[key]]
            gained = [x for x in other[key] if x not in base[key]]
            detail = []
            if lost:
                detail.append(f"lost {lost[:2]}")
            if gained:
                detail.append(f"gained {gained[:2]}")
            diffs.append(f"{key}: " + "; ".join(detail))
        else:
            diffs.append(f"{key}: {base[key]!r} != {other[key]!r}")
    return diffs


def check_differential(
    source_factory: Callable[[], KernelSource],
    modes: tuple[str, ...] = DEFAULT_MODES,
    options: AnalysisOptions | None = None,
) -> list[str]:
    """Run every mode on a fresh source; return divergence descriptions.

    ``source_factory`` must build a *new* :class:`KernelSource` per call
    so per-instance memos (barrier pre-filter, engine caches) cannot
    leak between modes.  An exception inside a mode is reported as a
    divergence of that mode, not raised — the crash oracle runs serial
    mode separately first.
    """
    base = run_signature(run_in_mode("serial", source_factory(), options))
    problems: list[str] = []
    for mode in modes:
        if mode == "serial":
            continue
        try:
            result = run_in_mode(mode, source_factory(), options)
        except Exception as exc:
            problems.append(
                f"{mode}: raised {type(exc).__name__}: {exc}"
            )
            continue
        for diff in _diff_signatures(base, run_signature(result)):
            problems.append(f"{mode}: {diff}")
    return problems
