"""The three benchmark workloads, their correctness gate and set-up.

Every workload is a closed loop driven by one client thread: the next
operation starts only when the previous one has returned.  Inputs are
generated from the run seed; the program only ever sees the generated
trees.  Each timed result is checked outside the timed region, and each
check that fails is recorded as a problem of the run.

* ``cold-tree`` — a fresh serial engine per tree, one analysis at a
  time, every tree from a seed no earlier tree used (§6.1's full run).
* ``edit-loop`` — one warm serial engine, a seeded sequence of one-file
  ``reanalyze_file`` edits, each reverted right after (§6.1's
  incremental mode).
* ``serve-exec`` — an in-process ``AnalysisServer`` with two executor
  workers (``repro serve --exec-workers 2``) and one ``ServeClient``;
  each cycle sends a cold submit of an unseen tree, one-file deltas and
  a full resubmit of the unedited tree under the same key.

Every timed operation runs through :meth:`hostspeed.HostSpeed.timed`:
sample lists hold its wall time scaled to the reference host speed, and
``<sample>.wall`` lists the wall time itself.

With ``traced=True`` the same loops run with a :class:`ReplayEngine`
beside the system under test; the replay's signature must equal the
engine's on every operation.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import re
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from hostspeed import HostSpeed
from replay import LayerClock, ReplayEngine

from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.corpus import CorpusSpec, generate_corpus, score_run
from repro.fuzz.differential import run_signature
from repro.kernel.barriers import BARRIER_PRIMITIVES
from repro.serve import AnalysisServer, ServeClient

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Executor workers of the served workload (the host has two cores).
EXEC_WORKERS = 2

#: Warm engines the served pool keeps.  One cycle works on one tree, so
#: one is enough; the default of four would let the pool (and peak RSS)
#: grow with the number of cycles a run gets through.
POOL_CAPACITY = 1

#: Counts the spec fixes for every seed of ``CorpusSpec.paper()``.
PAPER_GOLDEN = {
    "pairings": 456,
    "incorrect_pairings": 15,
    "unneeded": 53,
    "table3": {
        "Misplaced memory access": 8,
        "Racy variable re-read after the read barrier": 3,
        "Read barrier used instead of a write barrier": 1,
    },
}


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Samples, attempted/failed operations and correctness problems."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)
    cycles: int = 0
    #: ``peak_rss_mb()`` when the first cycle ended: the same work in
    #: every run, however many cycles the run gets through.
    peak_rss_mb: float = 0.0
    #: Host-normalized and wall seconds of each set-up.
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: Traced runs only: the replay's layer clock, the untraced time of
    #: the operations it replayed, and the number of those operations.
    clock: LayerClock = field(default_factory=LayerClock)
    replayed_s: float = 0.0
    replayed_ops: int = 0
    #: Files whose CFGs the system under test re-materialized to check.
    rehydrated_files: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problem(f"failed: {what}")

    def problem(self, what: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problem(f"check: {what}")

    def expect_none(self, problems: list[str], context: str) -> None:
        """One check that passes when ``problems`` is empty."""
        self.checks += 1
        for problem in problems:
            self.problem(f"check: {context}: {problem}")


def quantile(samples: list[float], q: float) -> float:
    """Median for q=0.5 (interpolated), nearest rank otherwise."""
    if q == 0.5:
        return statistics.median(samples)
    ordered = sorted(samples)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


def result_failures(result) -> list[str]:
    """Operation-level failures carried by one ``AnalysisResult``."""
    out = [f"files_failed {entry.describe()}" for entry in result.files_failed]
    out += [cf.describe() for cf in result.report.checker_failures]
    patch_failed = result.profile.counters.get("patch.failed", 0)
    if patch_failed:
        out.append(f"{patch_failed} patch generation failures")
    return out


def golden_problems(result, corpus) -> list[str]:
    """Differences from the counts the corpus spec fixes."""
    score = score_run(result, corpus.truth)
    problems = []
    if score.recall != 1.0:
        problems.append(f"recall {score.recall}")
    unneeded = len(result.report.unneeded_findings)
    if unneeded != corpus.truth.expected_unneeded:
        problems.append(f"{unneeded} unneeded barriers, expected "
                        f"{corpus.truth.expected_unneeded}")
    if corpus.spec == CorpusSpec.paper():
        got = {
            "pairings": len(result.pairing.pairings),
            "incorrect_pairings": score.incorrect_pairings,
            "unneeded": unneeded,
            "table3": score.detected_table3(),
        }
        problems += [
            f"{name} = {got[name]}, expected {want}"
            for name, want in PAPER_GOLDEN.items() if got[name] != want
        ]
    return problems


def scaled_spec(spec: CorpusSpec, factor: float) -> CorpusSpec:
    """``spec`` with every pattern and file count scaled by ``factor``."""
    counts = {
        f.name: max(1, round(getattr(spec, f.name) * factor))
        for f in dataclasses.fields(spec)
        if isinstance(getattr(spec, f.name), int) and getattr(spec, f.name)
    }
    return dataclasses.replace(spec, **counts)


def copy_source(source: KernelSource) -> KernelSource:
    return KernelSource(
        files=dict(source.files), headers=dict(source.headers),
        file_options=dict(source.file_options),
    )


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process plus its live child
    processes (the executor's workers), from ``VmHWM`` in ``/proc``;
    pages shared after ``fork`` count in each process.  Without
    ``/proc``, this process's peak alone."""
    total_kb = 0
    pids = ["self"] + [str(c.pid) for c in multiprocessing.active_children()]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            if pid == "self":
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return total_kb / 1024


class TreeSeeds:
    """Distinct tree seeds drawn from the run seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"trees-{seed}")
        self._used: set[int] = set()

    def next(self) -> int:
        while True:
            value = self._rng.randrange(1, 2**31)
            if value not in self._used:
                self._used.add(value)
                return value


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------

_FUNCTION_RE = re.compile(
    r"^(?P<head>[A-Za-z_][^\n;{}]*?\b(?P<name>[A-Za-z_]\w*)\s*\([^\n;{}]*\))"
    r"\n\{\n.*?^\}\n",
    re.MULTILINE | re.DOTALL,
)
_BARRIER_CALL_RE = re.compile(
    r"\b(?:" + "|".join(sorted(BARRIER_PRIMITIVES)) + r")\s*\("
)


@dataclass(frozen=True)
class Edit:
    path: str
    text: str
    kind: str
    #: Whether the edit leaves the file's barrier sites unchanged.
    keeps_sites: bool


class EditPlanner:
    """A seeded sequence of one-file edits on config-enabled files.

    Kinds rotate in a fixed order so every run has the same mix:
    ``comment`` and ``decl`` append text that leaves the file's barrier
    sites unchanged; ``add-fn`` appends a renamed copy of one of the
    file's barrier-bearing functions and ``remove-fn`` deletes one, which
    changes sites, pairings and findings.
    """

    KINDS = ("comment", "add-fn", "decl", "remove-fn")

    def __init__(self, seed: int):
        self._rng = random.Random(f"edits-{seed}")
        self._n = 0

    def next(self, source: KernelSource, targets: list[str],
             avoid=()) -> Edit:
        """The next edit of one of ``targets`` (never one in ``avoid``)."""
        kind = self.KINDS[self._n % len(self.KINDS)]
        self._n += 1
        while True:
            path = self._rng.choice(targets)
            if path in avoid:
                continue
            text = source.files[path]
            functions = [
                m for m in _FUNCTION_RE.finditer(text)
                if _BARRIER_CALL_RE.search(m.group(0))
            ]
            if functions or kind in ("comment", "decl"):
                break
        tag = f"pb{self._n}"
        if kind == "comment":
            return Edit(path, text + f"\n/* perfbench edit {tag} */\n",
                        kind, True)
        if kind == "decl":
            return Edit(path, text + f"\nstatic int perfbench_{tag};\n",
                        kind, True)
        fn = self._rng.choice(functions)
        if kind == "add-fn":
            head = fn.group("head")
            name = fn.group("name")
            clone = fn.group(0).replace(
                head, head.replace(f"{name}(", f"{name}_{tag}(", 1), 1
            )
            return Edit(path, text + "\n" + clone, kind, False)
        return Edit(path, text[:fn.start()] + text[fn.end():], kind, False)


# ---------------------------------------------------------------------------
# Served system
# ---------------------------------------------------------------------------


class ServeSession:
    """One in-process daemon with an executor, driven by one client.

    Every request is timed at the client; the executor and serve layer
    numbers are read from each job's ``AnalysisResult.profile``, the
    job's queue/run seconds, ``/metrics`` and ``PoolStats``.
    """

    def __init__(self, warmup_source: KernelSource, speed: HostSpeed):
        self.speed = speed
        self.server = AnalysisServer(
            options=AnalysisOptions(), exec_workers=EXEC_WORKERS,
            pool_capacity=POOL_CAPACITY,
        ).start()
        self.client = ServeClient(self.server.url, timeout=170)
        self.layers = LayerClock()
        self.requests = 0
        try:
            # Spawns the workers and fills lazy imports on both sides.
            response = self.client.analyze(warmup_source)
            if response.get("status") != "done":
                raise RuntimeError(f"warm-up submit failed: {response}")
            self._base = self._server_totals()
        except BaseException:
            self.server.stop()
            raise

    def close(self) -> None:
        self.server.stop()

    def _server_totals(self) -> dict[str, float]:
        snapshot = self.client.metrics()
        jobs = snapshot.get("jobs", {})
        stats = self.server.service.pool.stats
        return {
            "job_ms": sum(w["count"] * (w["mean_ms"] or 0.0)
                          for w in jobs.values()),
            "pool_hits": stats.hits,
            "reconverged": stats.reconverged,
        }

    def request(self, tally: Tally, send):
        """Run one timed request; returns (AnalysisResult, wall seconds,
        normalized seconds, response) or None when it failed."""
        tally.attempted += 1
        self.requests += 1
        try:
            response, elapsed, normalized = \
                self.speed.timed(lambda: send(self.client))
        except Exception as exc:
            tally.fail(f"request raised {type(exc).__name__}: {exc}")
            return None
        if response.get("status") != "done":
            tally.fail(f"job {response.get('job_id')} is "
                       f"{response.get('status')}: {response.get('error')}")
            return None
        result = self.server.service.job(response["job_id"]).result
        failures = result_failures(result)
        if failures:
            tally.fail(f"job {response['job_id']}: {failures[0]}")
            return None
        run_s = response.get("run_seconds") or 0.0
        queue_s = response.get("queue_seconds") or 0.0
        self.layers.busy["serve.queue_wait_ms"] += queue_s * 1000
        self.layers.busy["serve.wire_ms"] += \
            (elapsed - run_s - queue_s) * 1000
        stages = result.profile.stages
        counters = result.profile.counters
        for metric, stage in (("exec.scan_s", "scan.exec"),
                              ("exec.pair_s", "pair.exec"),
                              ("exec.check_s", "check.exec")):
            self.layers.busy[metric] += stages.get(stage, 0.0)
        for metric, counter in (("exec.dispatched", "exec.dispatched"),
                                ("exec.batches", "exec.batches"),
                                ("exec.worker_hits", "exec.scan_warm_hits"),
                                ("exec.respawns", "exec.respawns")):
            self.layers.count(metric, counters.get(counter, 0))
        tally.rehydrated_files += counters.get("check.rehydrated_files", 0)
        return result, elapsed, normalized, response

    def layer_metrics(self) -> dict[str, float]:
        """Per-request executor and serve metrics since the warm-up."""
        totals = self._server_totals()
        n = max(1, self.requests)
        out = {name: value / n for name, value in self.layers.busy.items()}
        out.update(
            (name, value / n) for name, value in self.layers.counts.items()
        )
        out["serve.job_ms"] = (totals["job_ms"] - self._base["job_ms"]) / n
        for name in ("pool_hits", "reconverged"):
            out[f"serve.{name}"] = (totals[name] - self._base[name]) / n
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, a timed closed loop, and the final checks of one run."""

    name = ""
    #: Sample list whose p50 is the run's ``op_norm_ms.p50``.
    op_samples = ""
    #: Size of the workload's trees relative to the given spec.
    tree_scale = 1.0

    def __init__(self, seed: int, spec: CorpusSpec, traced: bool):
        self.seed = seed
        self.spec = spec if self.tree_scale == 1.0 \
            else scaled_spec(spec, self.tree_scale)
        self.traced = traced
        self.tally = Tally()
        self.trees = TreeSeeds(seed)
        self.serve: ServeSession | None = None
        self.speed = HostSpeed()
        #: Traced runs: per-request executor and serve layer metrics.
        self.serve_layers: dict[str, float] = {}

    def corpus(self):
        return generate_corpus(self.spec, seed=self.trees.next())

    def warmup_source(self) -> KernelSource:
        return generate_corpus(CorpusSpec.small(), seed=self.seed).source

    def run(self, seconds: float) -> Tally:
        try:
            for rep in range(SETUP_REPS):
                if rep:
                    self.teardown()
                _, wall, normalized = self.speed.timed(self.setup)
                self.tally.setup_s.append(normalized)
                self.tally.setup_wall_s.append(wall)
            if self.traced:
                self.prepare_trace()
            # Whole cycles until ``seconds`` have passed: a run measures
            # at least that long, and at most one cycle longer.
            start = time.perf_counter()
            while True:
                self.cycle()
                self.tally.cycles += 1
                if self.tally.cycles == 1:
                    self.tally.peak_rss_mb = peak_rss_mb()
                if time.perf_counter() - start >= seconds:
                    break
            self.finish()
            if self.traced and self.serve is not None:
                self.serve_layers = self.serve.layer_metrics()
        finally:
            self.teardown()
        return self.tally

    def setup(self) -> None:
        """Everything before the first timed operation."""
        raise NotImplementedError

    def prepare_trace(self) -> None:
        """Traced runs: untimed preparation after the last set-up."""

    def cycle(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks on the final state, after the timed loop."""

    def teardown(self) -> None:
        if self.serve is not None:
            self.serve.close()
            self.serve = None

    # -- timed operations ----------------------------------------------------

    def record(self, sample: str, scale: float, wall: float,
               normalized: float) -> None:
        self.tally.samples[sample].append(normalized * scale)
        self.tally.samples[f"{sample}.wall"].append(wall * scale)

    def timed_engine_op(self, fn, sample: str, scale: float):
        """Time one engine call; returns (result, wall seconds,
        normalized seconds) or None."""
        tally = self.tally
        tally.attempted += 1
        try:
            result, elapsed, normalized = self.speed.timed(fn)
        except Exception as exc:
            tally.fail(f"raised {type(exc).__name__}: {exc}")
            return None
        failures = result_failures(result)
        if failures:
            tally.fail(failures[0])
            return None
        self.record(sample, scale, elapsed, normalized)
        tally.rehydrated_files += \
            result.profile.counters.get("check.rehydrated_files", 0)
        return result, elapsed, normalized

    def replayed(self, untraced_s: float, replay_fn, reference) -> None:
        """Run ``replay_fn`` under the layer clock and require its
        signature to equal ``reference``'s."""
        result = replay_fn()
        self.tally.replayed_s += untraced_s
        self.tally.replayed_ops += 1
        self.tally.check(
            run_signature(result) == run_signature(reference),
            "replay signature differs from the engine's",
        )

    def probe_serve(self, source: KernelSource, edit: Edit | None) -> None:
        """Serial workloads, traced: send this workload's first tree (and
        one edit and its revert) through ``repro serve`` with executor
        workers, so exec and serve layers are measured on its inputs."""
        self.serve = ServeSession(self.warmup_source(), self.speed)
        probe = Tally()
        sent = self.serve.request(probe, lambda c: c.analyze(source))
        if sent is not None and edit is not None:
            key = sent[3]["tree_key"]
            for text in (edit.text, source.files[edit.path]):
                self.serve.request(
                    probe,
                    lambda c, t=text: c.reanalyze(key, [(edit.path, t)]),
                )
        self.tally.attempted += probe.attempted
        self.tally.failed += probe.failed
        self.tally.problems += probe.problems


class ColdTree(Workload):
    name = "cold-tree"
    op_samples = "cold_analyze_s"

    def setup(self) -> None:
        OFenceEngine(self.warmup_source()).analyze()
        self.next_corpus = self.corpus()

    def prepare_trace(self) -> None:
        self.probe_serve(copy_source(self.next_corpus.source), None)

    def cycle(self) -> None:
        corpus = self.next_corpus
        done = self.timed_engine_op(
            lambda: OFenceEngine(corpus.source).analyze(),
            "cold_analyze_s", 1.0,
        )
        if done is not None:
            result, elapsed, normalized = done
            self.record("cycle_s", 1.0, elapsed, normalized)
            self.tally.expect_none(golden_problems(result, corpus),
                                   f"tree {corpus.seed}")
            if self.traced:
                replay = ReplayEngine(copy_source(corpus.source),
                                      self.tally.clock)
                self.replayed(elapsed, replay.analyze, result)
        self.next_corpus = self.corpus()


class EditLoop(Workload):
    name = "edit-loop"
    op_samples = "reanalyze_ms"

    def setup(self) -> None:
        corpus = self.corpus()
        self.engine = OFenceEngine(copy_source(corpus.source))
        base = self.engine.analyze()
        self.base_source = corpus.source
        self.base_sig = run_signature(base)
        self.base_sites = len(base.sites)
        self.last = base
        self.tally.expect_none(
            golden_problems(base, corpus) + result_failures(base),
            "warm-up analysis",
        )
        self.targets = self.engine.selected_files()[0]
        self.planner = EditPlanner(self.seed)

    def prepare_trace(self) -> None:
        self.replay = ReplayEngine(copy_source(self.base_source),
                                   LayerClock())
        self.replay.analyze()
        self.replay.clock = self.tally.clock
        probe_edit = EditPlanner(self.seed + 1).next(
            self.base_source, self.targets
        )
        self.probe_serve(copy_source(self.base_source), probe_edit)

    def apply(self, path: str, text: str):
        done = self.timed_engine_op(
            lambda: self.engine.reanalyze_file(path, text),
            "reanalyze_ms", 1000.0,
        )
        if done is not None:
            self.last = done[0]
            if self.traced:
                self.replayed(
                    done[1],
                    lambda: self.replay.reanalyze_file(path, text), done[0],
                )
        return done

    def cycle(self) -> None:
        tally = self.tally
        edit = self.planner.next(self.engine.source, self.targets)
        original = self.engine.source.files[edit.path]
        spent = [0.0, 0.0]  # wall, normalized seconds
        done = self.apply(edit.path, edit.text)
        if done is not None:
            spent[0] += done[1]
            spent[1] += done[2]
            if edit.keeps_sites:
                tally.check(
                    run_signature(done[0]) == self.base_sig,
                    f"{edit.kind} edit of {edit.path} changed the result",
                )
            else:
                tally.check(
                    len(done[0].sites) != self.base_sites,
                    f"{edit.kind} edit of {edit.path} left the sites as-is",
                )
        done = self.apply(edit.path, original)
        if done is not None:
            spent[0] += done[1]
            spent[1] += done[2]
            tally.check(
                run_signature(done[0]) == self.base_sig,
                f"revert of {edit.path} did not restore the result",
            )
        self.record("cycle_s", 1.0, *spent)

    def finish(self) -> None:
        fresh = OFenceEngine(copy_source(self.engine.source)).analyze()
        self.tally.check(
            run_signature(fresh) == run_signature(self.last),
            "final state differs from a fresh serial analysis",
        )


class ServeExec(Workload):
    name = "serve-exec"
    op_samples = "serve_delta_ms"
    # Half-paper trees: a paper-scale cycle takes ~25 s on two cores, so
    # a run would hold one cold submit, a few deltas and one resubmit.
    # Half-scale deltas stay on the slow sharded check path like paper
    # ones; quarter-scale deltas flip between ~85 ms and ~700 ms.
    tree_scale = 0.5
    #: Files the editor changes per cycle; all but the last are reverted,
    #: so a cycle sends 2 × EDITED_FILES - 1 deltas.
    EDITED_FILES = 4

    def setup(self) -> None:
        self.serve = ServeSession(self.warmup_source(), self.speed)
        self.next_corpus = self.corpus()
        self.planner = EditPlanner(self.seed)

    def mirror(self, source: KernelSource):
        """The serial reference the served results must equal: the
        engine untraced, the layer replay traced."""
        if self.traced:
            return ReplayEngine(source, self.tally.clock)
        return OFenceEngine(source)

    def request(self, send, sample: str, scale: float):
        sent = self.serve.request(self.tally, send)
        if sent is None:
            return None
        result, elapsed, normalized, response = sent
        self.record(sample, scale, elapsed, normalized)
        if self.traced:
            self.tally.replayed_s += elapsed
            self.tally.replayed_ops += 1
        return result, elapsed, normalized, response

    def cycle(self) -> None:
        tally = self.tally
        corpus = self.next_corpus
        source = corpus.source
        mirror = self.mirror(copy_source(source))
        spent = [0.0, 0.0]  # wall, normalized seconds

        sent = self.request(lambda c: c.analyze(source), "serve_cold_s", 1.0)
        reference = mirror.analyze()
        if sent is None:
            self.next_corpus = self.corpus()
            return
        result, elapsed, normalized, response = sent
        spent[0] += elapsed
        spent[1] += normalized
        key = response["tree_key"]
        cold_sig = run_signature(result)
        tally.check(cold_sig == run_signature(reference),
                    f"cold submit of tree {corpus.seed} differs from serial")
        tally.expect_none(golden_problems(result, corpus),
                          f"tree {corpus.seed}")

        # The editor: edit a file and revert it, again with another file,
        # then edit a last one, so the resubmit below finds exactly one
        # drifted file.
        targets = mirror.selected_files()[0]
        edits: list[Edit] = []
        for _ in range(self.EDITED_FILES):
            edits.append(self.planner.next(
                mirror.source, targets, avoid=[e.path for e in edits]
            ))
        writes = [(e, t) for e in edits[:-1]
                  for t in (e.text, source.files[e.path])]
        writes.append((edits[-1], edits[-1].text))
        for edit, text in writes:
            sent = self.request(
                lambda c: c.reanalyze(key, [(edit.path, text)]),
                "serve_delta_ms", 1000.0,
            )
            expected = mirror.reanalyze_file(edit.path, text)
            if sent is not None:
                spent[0] += sent[1]
                spent[1] += sent[2]
                tally.check(
                    run_signature(sent[0]) == run_signature(expected),
                    f"delta {edit.kind} on {edit.path} differs from serial",
                )

        sent = self.request(
            lambda c: c.analyze(source), "serve_resubmit_ms", 1000.0
        )
        # The pool converges the drifted file back, then re-analyzes.
        last = edits[-1].path
        mirror.reanalyze_file(last, source.files[last])
        expected = mirror.analyze()
        if sent is not None:
            spent[0] += sent[1]
            spent[1] += sent[2]
            signature = run_signature(sent[0])
            tally.check(signature == cold_sig,
                        "resubmit of the unedited tree differs from cold")
            tally.check(signature == run_signature(expected),
                        "resubmit differs from serial")
        self.record("cycle_s", 1.0, *spent)
        self.next_corpus = self.corpus()


WORKLOAD_CLASSES = {cls.name: cls for cls in (ColdTree, EditLoop, ServeExec)}
