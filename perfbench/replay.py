"""Traced per-layer replay of the OFence pipeline.

``ReplayEngine`` re-drives the work of ``OFenceEngine.analyze`` and
``OFenceEngine.reanalyze_file`` (serial, no disk cache) through the
public entry point of each layer and times every call from here, so
the per-layer numbers come from the benchmark's own files, not from
instrumentation inside the program:

=========================  ==============================================
layer metric prefix        entry point
=========================  ==============================================
``cparse.lexer``           ``repro.cparse.lexer.tokenize``
``cparse.preprocessor``    ``Preprocessor.preprocess`` (minus own lexing)
``cparse.parser``          ``Parser.parse_translation_unit``
``cparse.typesys``         ``TypeRegistry.add_unit``
``cfg``                    ``BarrierScanner(...)`` (CFG + accesses)
``analysis.barrier_scan``  ``BarrierScanner.scan``
``core.cache``             ``header_closure`` + ``scan_key``
``pairing``                ``PairingIndex`` sync + ``PairingEngine.pair``
``checkers``               ``CheckerSuite.run``
``store.fingerprint``      ``attach_fingerprints``
``patching``               ``PatchGenerator.generate_all``
=========================  ==============================================

The replay builds a real :class:`AnalysisResult`, so its
``run_signature`` can be compared with the engine's on the same input:
equal signatures mean the replay did the same work.  The file is lexed
once more on its own to time the lexer; that extra pass is excluded
from :meth:`LayerClock.layer_sum`, which is what ``trace.gap_s`` is
computed from.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.analysis.barrier_scan import BarrierScanner
from repro.checkers.runner import CheckerSuite
from repro.core.cache import header_closure, scan_key
from repro.core.engine import (
    AnalysisOptions,
    AnalysisResult,
    FileFailure,
    KernelSource,
)
from repro.cparse.lexer import tokenize
from repro.cparse.parser import KERNEL_TYPEDEFS, ParseError, Parser
from repro.cparse.preprocessor import Preprocessor
from repro.cparse.typesys import TypeRegistry
from repro.pairing.algorithm import PairingEngine, PairingIndex
from repro.patching.generate import PatchGenerator
from repro.store.fingerprint import attach_fingerprints

#: Busy-time metrics whose sum is the traced layer total (the lexer and
#: the preprocessor's self time together make up preprocessing).
SUMMED_LAYERS = (
    "cparse.lexer.busy_s",
    "cparse.preprocessor.self_s",
    "cparse.parser.busy_s",
    "cparse.typesys.busy_s",
    "cfg.busy_s",
    "analysis.barrier_scan.busy_s",
    "core.cache.key_busy_s",
    "pairing.busy_s",
    "checkers.busy_s",
    "store.fingerprint.busy_s",
    "patching.busy_s",
)

#: The engine's marker for failures that are not parse errors.
_INTERNAL_PREFIX = "internal-error: "


class LayerClock:
    """Accumulated busy seconds and event counts, keyed by metric name."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy[name] += time.perf_counter() - start

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def layer_sum(self) -> float:
        return sum(self.busy.get(name, 0.0) for name in SUMMED_LAYERS)


class _FileState:
    __slots__ = ("key", "scanner", "sites", "error")

    def __init__(self, key, scanner, sites, error):
        self.key = key
        self.scanner = scanner
        self.sites = sites
        self.error = error


class ReplayEngine:
    """Serial pipeline replay over one :class:`KernelSource`.

    Like the engine, it keeps per-file scan results, a persistent
    :class:`PairingIndex` and a patch memo across runs, so
    :meth:`reanalyze_file` replays the incremental mode.
    """

    def __init__(self, source: KernelSource, clock: LayerClock,
                 options: AnalysisOptions | None = None):
        self.source = source
        self.clock = clock
        self.options = options if options is not None else AnalysisOptions()
        self._files: dict[str, _FileState] = {}
        self._closures: dict[str, tuple[int, list]] = {}
        self._index = PairingIndex()
        self._patch_memo: dict = {}

    def selected_files(self) -> tuple[list[str], list[str]]:
        analyzed: list[str] = []
        skipped: list[str] = []
        for path in self.source.files_with_barriers():
            option = self.source.file_options.get(path)
            if option is not None and \
                    not self.options.config.is_enabled(option):
                skipped.append(path)
            else:
                analyzed.append(path)
        return analyzed, skipped

    # -- runs --------------------------------------------------------------

    def analyze(self) -> AnalysisResult:
        start = time.perf_counter()
        selected, skipped = self.selected_files()
        for path in selected:
            self._refresh(path)
        return self._finish(selected, skipped, start)

    def reanalyze_file(self, path: str,
                       new_text: str | None = None) -> AnalysisResult:
        start = time.perf_counter()
        if new_text is not None:
            self.source.files[path] = new_text
        selected, skipped = self.selected_files()
        if path in selected:
            self._refresh(path)
        else:
            self._files.pop(path, None)
        return self._finish(selected, skipped, start)

    # -- scan --------------------------------------------------------------

    def _refresh(self, path: str) -> None:
        key = self._key(path)
        cached = self._files.get(path)
        if cached is not None and cached.key == key:
            self.clock.count("core.cache.memory_hits")
            return
        self.clock.count("core.cache.misses")
        self._files[path] = self._scan(path, key)

    def _key(self, path: str) -> str:
        text = self.source.files[path]
        with self.clock.timed("core.cache.key_busy_s"):
            token = hash(text)
            memo = self._closures.get(path)
            if memo is None or memo[0] != token:
                memo = (token, header_closure(
                    text, self.source.resolve_include
                ))
                self._closures[path] = memo
            return scan_key(
                text, self.options.config.defines(), memo[1],
                self.options.limits,
            )

    def _scan(self, path: str, key: str) -> _FileState:
        clock = self.clock
        text = self.source.files[path]
        try:
            start = time.perf_counter()
            own_tokens = tokenize(text, path)
            lex_s = time.perf_counter() - start
            clock.busy["cparse.lexer.busy_s"] += lex_s
            clock.count("cparse.lexer.tokens", len(own_tokens))

            start = time.perf_counter()
            tokens = Preprocessor(
                self.options.config.defines(), self.source.resolve_include
            ).preprocess(text, path)
            clock.busy["cparse.preprocessor.self_s"] += \
                time.perf_counter() - start - lex_s
            clock.count("cparse.preprocessor.tokens_out", len(tokens))

            with clock.timed("cparse.parser.busy_s"):
                unit = Parser(tokens, KERNEL_TYPEDEFS) \
                    .parse_translation_unit()
            clock.count("cparse.parser.functions", len(unit.functions))

            with clock.timed("cparse.typesys.busy_s"):
                registry = TypeRegistry()
                registry.add_unit(unit)

            with clock.timed("cfg.busy_s"):
                scanner = BarrierScanner(
                    unit, registry=registry, limits=self.options.limits,
                    filename=path,
                )
            scans = (scanner.function_scan(fn.name) for fn in unit.functions)
            clock.count("cfg.statements", sum(
                len(scan.cfg.linear) for scan in scans if scan is not None
            ))

            with clock.timed("analysis.barrier_scan.busy_s"):
                sites = scanner.scan()
            clock.count("analysis.barrier_scan.sites", len(sites))
        except Exception as exc:  # mirrors the engine's never-raise scan
            error = (
                str(exc) if isinstance(exc, ParseError)
                else f"{_INTERNAL_PREFIX}{type(exc).__name__}: {exc}"
            )
            return _FileState(key, None, [], error)
        return _FileState(key, scanner, sites, None)

    def _cfg_lookup(self, filename: str, function: str):
        state = self._files.get(filename)
        if state is None or state.scanner is None:
            return None
        scan = state.scanner.function_scan(function)
        return scan.cfg if scan is not None else None

    def _file_key(self, path: str) -> str | None:
        state = self._files.get(path)
        return state.key if state is not None else None

    # -- whole-tree tail -----------------------------------------------------

    def _finish(self, selected: list[str], skipped: list[str],
                start: float) -> AnalysisResult:
        clock = self.clock
        sites = []
        failed = []
        for path in selected:
            state = self._files.get(path)
            if state is None:
                continue
            sites.extend(state.sites)
            if state.error is not None:
                internal = state.error.startswith(_INTERNAL_PREFIX)
                failed.append(FileFailure(
                    path, "internal" if internal else "parse",
                    state.error[len(_INTERNAL_PREFIX):] if internal
                    else state.error,
                ))

        with clock.timed("pairing.busy_s"):
            updated = self._sync_index(selected)
            pairer = PairingEngine(index=self._index)
            pairing = pairer.pair()
        clock.count("pairing.files_updated", updated)
        clock.count("pairing.pairings", len(pairing.pairings))
        clock.count("pairing.candidates_reused",
                    pairer.stats.get("candidates_reused", 0))

        with clock.timed("checkers.busy_s"):
            report = CheckerSuite(
                self._cfg_lookup, annotate=self.options.annotate,
                checks=self.options.checks,
            ).run(pairing)
        findings = report.all_findings
        clock.count("checkers.findings", len(findings))
        clock.count("checkers.failures", len(report.checker_failures))

        with clock.timed("store.fingerprint.busy_s"):
            attach_fingerprints(findings, self.source.files)
        clock.count("store.fingerprint.findings", len(findings))

        with clock.timed("patching.busy_s"):
            generator = PatchGenerator(
                self.source.files, self._cfg_lookup,
                memo=self._patch_memo, file_key=self._file_key,
            )
            patches = generator.generate_all(findings)
        clock.count("patching.patches", len(patches))
        clock.count("patching.memo_hits", generator.memo_hits)
        clock.count("patching.failed", len(generator.failures))

        return AnalysisResult(
            files_with_barriers=len(selected) + len(skipped),
            files_analyzed=len(selected),
            files_skipped_by_config=skipped,
            files_failed=failed,
            sites=sites,
            pairing=pairing,
            report=report,
            patches=patches,
            elapsed_seconds=time.perf_counter() - start,
            stage_seconds={},
        )

    def _sync_index(self, selected: list[str]) -> int:
        """File-level deltas into the persistent pairing index."""
        index = self._index
        selected_set = set(selected)
        for path in index.files():
            if path not in selected_set:
                index.remove_file(path)
        updated = 0
        for path in selected:
            state = self._files.get(path)
            file_sites = state.sites if state is not None else []
            if not file_sites:
                index.remove_file(path)
            elif index.update_file(path, file_sites):
                updated += 1
        return updated
