"""§6.1 — analysis time: full run vs. incremental single-file update.

Paper: the full Linux analysis takes 8 minutes on a 16-core machine;
re-analyzing after modifying a single file takes under 30 seconds (50 s
for two driver files).  Absolute numbers differ on our substrate; the
shape to reproduce is *incremental ≪ full* and the 614-of-669 file
selection.
"""

import itertools

from repro.core.engine import KernelSource, OFenceEngine
from repro.core.report import render_table


def full_analysis(source):
    return OFenceEngine(source).analyze()


def test_sec61_full_analysis(benchmark, paper_corpus, emit):
    result = benchmark.pedantic(
        full_analysis, args=(paper_corpus.source,), rounds=2, iterations=1
    )
    rows = [
        ("Files containing barriers",
         f"paper=669  measured={result.files_with_barriers}"),
        ("Files analyzed",
         f"paper=614  measured={result.files_analyzed}"),
        ("Files skipped by config",
         f"paper=55   measured={len(result.files_skipped_by_config)}"),
        ("Full analysis (s)", f"{result.elapsed_seconds:.2f}"),
    ]
    emit("sec61_full", render_table(
        "Section 6.1: full-kernel analysis", rows
    ))
    assert result.files_with_barriers == 669
    assert result.files_analyzed == 614
    assert len(result.files_skipped_by_config) == 55
    assert not result.files_failed


def test_sec61_incremental_update(benchmark, paper_corpus, emit):
    source = KernelSource(
        files=dict(paper_corpus.source.files),
        headers=paper_corpus.source.headers,
        file_options=paper_corpus.source.file_options,
    )
    engine = OFenceEngine(source)
    full = engine.analyze()
    # A config-enabled file: a skipped one would time no scan at all.
    path = engine.selected_files()[0][0]
    original = source.files[path]
    edits = itertools.count(1)

    def edit_file():
        # A trailing comment changes the file's scan key but none of its
        # sites, so every round re-scans exactly this file.
        return (path, f"{original}\n/* edit {next(edits)} */\n"), {}

    result = benchmark.pedantic(
        engine.reanalyze_file, setup=edit_file, rounds=3, iterations=1
    )
    assert result.profile.counters.get("scan.scanned") == 1
    rows = [
        ("Full scan stage (s)", f"{full.stage_seconds['scan']:.2f}"),
        ("Incremental scan stage (s)",
         f"{result.stage_seconds['scan']:.4f}"),
        ("Speedup (scan stage)",
         f"{full.stage_seconds['scan'] / max(result.stage_seconds['scan'], 1e-9):.0f}x"),
    ]
    emit("sec61_incremental", render_table(
        "Section 6.1: incremental re-analysis of one file", rows
    ))
    # The shape: re-scanning one file is far cheaper than the full scan.
    assert result.stage_seconds["scan"] < full.stage_seconds["scan"] / 10
    # Pairing results stay identical after a site-preserving edit.
    assert len(result.pairing.pairings) == len(full.pairing.pairings)
