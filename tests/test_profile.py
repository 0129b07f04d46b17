"""Tests for the stage profile (repro.core.profile): a read-only view
over one run's ``engine.*`` trace spans."""

import tempfile

from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.core.profile import StageProfile
from repro.corpus import CorpusSpec, generate_corpus
from repro.trace import count, run_span, span, start_trace


def _profile_of(build) -> StageProfile:
    """Run ``build`` under a run span and view that run's subtree."""
    with run_span("run") as (trace, run):
        build()
    return StageProfile.from_spans(trace.records(), run.span_id)


class TestStageProfile:
    def test_stage_context_manager_accumulates(self):
        def build():
            for _ in range(2):
                with span("engine.scan"):
                    pass

        profile = _profile_of(build)
        assert profile.stages["scan"] >= 0.0
        assert len(profile.stages) == 1

    def test_coarse_hides_substages(self):
        profile = StageProfile(
            stages={"scan": 1.0, "scan.keys": 0.25, "pair": 0.5}
        )
        assert profile.coarse() == {"scan": 1.0, "pair": 0.5}

    def test_counters_accumulate(self):
        def build():
            with span("engine.scan", files=3):
                count("scan.memory_hits")
            with span("engine.pair"):
                count("scan.memory_hits", 3)

        profile = _profile_of(build)
        # Undotted meta (``files``) describes a span; it is no counter.
        assert profile.counters == {"scan.memory_hits": 4}

    def test_view_covers_only_the_run_subtree(self):
        with start_trace("ambient") as trace:
            with span("engine.scan"):
                count("scan.scanned", 5)
            with run_span("run") as (_, run):
                with span("rpc.scan"):
                    with span("engine.scan"):
                        count("scan.scanned")
        profile = StageProfile.from_spans(trace.records(), run.span_id)
        assert profile.counters == {"scan.scanned": 1}
        assert set(profile.stages) == {"scan"}

    def test_render_lists_stages_and_counters(self):
        profile = StageProfile(
            stages={"scan": 0.5, "scan.keys": 0.1},
            counters={"scan.disk_hits": 7},
        )
        text = profile.render()
        assert "Stage profile" in text
        assert "scan" in text and "scan.keys" in text
        assert "scan.disk_hits" in text and "7" in text


class TestEngineProfile:
    SRC = {
        "w.c": "struct s { int a; int b; };\n"
               "void w(struct s *p) { p->a = 1; smp_wmb(); p->b = 1; }\n",
    }

    def test_result_carries_profile(self):
        result = OFenceEngine(KernelSource(files=dict(self.SRC))).analyze()
        assert result.profile.coarse() == result.stage_seconds
        assert set(result.stage_seconds) == {
            "scan", "pair", "check", "fingerprint", "patch"
        }
        assert "pair.sync" in result.profile.stages
        assert result.profile.counters["scan.scanned"] == 1

    def test_incremental_run_reports_index_reuse(self):
        engine = OFenceEngine(KernelSource(files=dict(self.SRC)))
        engine.analyze()
        again = engine.reanalyze_file("w.c")
        counters = again.profile.counters
        assert counters.get("pair.files_updated", 0) == 0
        assert counters.get("scan.memory_hits") == 1


_PAIR = {"pair.candidates_computed", "pair.candidates_reused",
         "pair.files_updated"}
_TAIL = {"pair", "pair.sync", "check", "fingerprint", "patch"}


class TestProfileNames:
    """The stage and counter names each run shape reports are pinned:
    ``perfbench``, ``/metrics`` and the tests read them by name."""

    @staticmethod
    def _source():
        corpus = generate_corpus(CorpusSpec.small(), seed=3)
        return KernelSource(
            files=dict(corpus.source.files),
            headers=dict(corpus.source.headers),
            file_options=dict(corpus.source.file_options),
        )

    def test_names_of_four_run_shapes(self):
        engine = OFenceEngine(self._source())
        runs = {"cold": engine.analyze()}
        path = engine.selected_files()[0][0]
        runs["reanalyze"] = engine.reanalyze_file(path)
        with tempfile.TemporaryDirectory() as tmp:
            options = AnalysisOptions(cache_dir=tmp)
            OFenceEngine(self._source(), options).analyze()
            runs["cache_dir"] = OFenceEngine(self._source(), options).analyze()
        runs["workers2"] = OFenceEngine(
            self._source(), AnalysisOptions(workers=2)
        ).analyze()
        expected = {
            "cold": (
                _TAIL | {"scan", "scan.keys"},
                _PAIR | {"scan.scanned"},
            ),
            "reanalyze": (
                _TAIL | {"scan"},
                _PAIR | {"patch.memo_hits", "scan.memory_hits"},
            ),
            "cache_dir": (
                _TAIL | {"scan", "scan.keys"},
                _PAIR | {"check.rehydrated_files", "scan.disk_hits",
                         "scan.scanned"},
            ),
            "workers2": (
                _TAIL | {"scan", "scan.keys", "scan.exec"},
                _PAIR | {"check.rehydrated_files", "exec.batches",
                         "exec.dispatched", "exec.scan_warm_hits",
                         "exec.workers_used", "scan.scanned"},
            ),
        }
        for name, (stages, counters) in expected.items():
            profile = runs[name].profile
            assert set(profile.stages) == stages, name
            assert set(profile.counters) == counters, name

    def test_stages_equal_the_runs_span_durations(self):
        source = self._source()
        engine = OFenceEngine(source)
        with start_trace("ambient") as trace:
            results = [engine.analyze(), engine.reanalyze_file(
                engine.selected_files()[0][0]
            )]
        records = trace.records()
        runs = [r for r in records
                if r.name in ("engine.analyze", "engine.reanalyze")]
        assert [r.name for r in runs] == ["engine.analyze",
                                          "engine.reanalyze"]
        assert {"engine.fingerprint", "engine.scan.keys",
                "engine.pair.sync"} <= {r.name for r in records}
        by_id = {r.span_id: r for r in records}
        sums: dict[str, dict[str, float]] = {r.span_id: {} for r in runs}
        for record in records:
            if not record.name.startswith("engine.") \
                    or record.span_id in sums:
                continue
            run = record
            while run.parent_id not in sums:
                run = by_id[run.parent_id]
            stage = record.name[len("engine."):]
            stages = sums[run.parent_id]
            stages[stage] = stages.get(stage, 0.0) + record.duration
        for run, result in zip(runs, results):
            assert result.profile.stages == sums[run.span_id]
