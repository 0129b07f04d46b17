"""Executor performance: warm pool amortization and the in-process tail.

Three claims from the persistent-executor layer:

* a **warm pool** beats a pool-per-call baseline by at least 2x — the
  per-call variant pays process spawn plus a cold parse of every file,
  the warm variant reuses live workers whose scan caches already hold
  the tree (the paper's daemon usage pattern);
* **pairing + checking stay in-process** — only the scan is offloaded,
  so at 4 workers the pair+check stages do the serial work plus lazily
  re-parsing the files whose CFGs a checker asks for (the workers send
  back sites only), and no ``pair.exec``/``check.exec`` stage appears;
* the **serve daemon** keeps its request throughput when dispatching
  CPU-bound work through the shared executor.

Results render as a table (``benchmarks/output/executor.txt``) and as a
machine-readable artifact (``benchmarks/output/BENCH_executor.json``,
also printed as a ``BENCH`` line).

``REPRO_BENCH_SMOKE=1`` shrinks the corpus and skips the timing
assertions (CI smoke runs on small shared runners); ``python
benchmarks/bench_executor.py`` runs standalone without pytest.
"""

import json
import os
import time

from bench_scaling import _scaled_spec
from conftest import OUTPUT_DIR

from repro.core.engine import AnalysisOptions, OFenceEngine
from repro.core.report import render_table
from repro.corpus import generate_corpus
from repro.exec import AnalysisExecutor
from repro.fuzz.differential import run_signature

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FACTOR = 1.0 if SMOKE else 4.0
ROUNDS = 2 if SMOKE else 3
SERVE_ROUNDS = 3 if SMOKE else 8


def _analyze(source, **options):
    start = time.perf_counter()
    result = OFenceEngine(source, AnalysisOptions(**options)).analyze()
    return result, time.perf_counter() - start


def _pair_check_seconds(result) -> float:
    return result.stage_seconds["pair"] + result.stage_seconds["check"]


def _serve_rps(source) -> tuple[float, int]:
    """Warm-resubmission requests/second through the service with a
    shared executor, plus the executor's completed-task count."""
    from repro.serve.server import AnalysisService
    from repro.serve.wire import encode_source

    service = AnalysisService(exec_workers=2)
    try:
        payload = {"source": encode_source(source)}
        job = service.submit_analyze(payload)  # cold: builds the engine
        assert job.wait(600) and job.status == "done", job.error
        start = time.perf_counter()
        for _ in range(SERVE_ROUNDS):
            job = service.submit_analyze(payload)
            assert job.wait(600) and job.status == "done", job.error
        elapsed = time.perf_counter() - start
        tasks = service.metrics_gauges()["executor"]["tasks_completed"]
    finally:
        service.close()
    return SERVE_ROUNDS / elapsed, tasks


def run_bench(emit):
    corpus = generate_corpus(_scaled_spec(FACTOR), seed=5)
    source = corpus.source

    serial, t_serial = _analyze(source)

    # Pool-per-call baseline: spawn, analyze cold, tear down — the cost
    # the persistent executor exists to amortize.
    percall = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with AnalysisExecutor(workers=2) as ex:
            result, _ = _analyze(
                source, workers=2, executor=ex
            )
        percall.append(time.perf_counter() - start)
    assert run_signature(result) == run_signature(serial)
    t_percall = min(percall)

    # Warm pool: one executor, workers already hold the tree.
    with AnalysisExecutor(workers=2) as ex:
        _analyze(source, workers=2, executor=ex)  # warm
        warm = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            result, _ = _analyze(
                source, workers=2, executor=ex
            )
            warm.append(time.perf_counter() - start)
        warm_hits = ex.snapshot()["worker_scan_hits"]
    assert run_signature(result) == run_signature(serial)
    t_warm = min(warm)
    pool_speedup = t_percall / t_warm

    # Pairing + checking at 4 workers: in-process, next to serial.
    with AnalysisExecutor(workers=4) as ex:
        result4, _ = _analyze(source, workers=4, executor=ex)
        # Second run isolates the stage cost from cold-parse noise.
        result4, _ = _analyze(source, workers=4, executor=ex)
    assert run_signature(result4) == run_signature(serial)
    offloaded = {"pair.exec", "check.exec"} & set(result4.profile.stages)
    assert not offloaded, f"pair/check left the process: {offloaded}"
    t_stage_serial = _pair_check_seconds(serial)
    t_stage_exec = _pair_check_seconds(result4)
    stage_ratio = t_stage_exec / max(t_stage_serial, 1e-9)
    rehydrated = result4.profile.counters.get("check.rehydrated_files", 0)

    rps, serve_tasks = _serve_rps(source)

    cores = os.cpu_count() or 1
    rows = [
        (f"serial ({serial.files_analyzed} files)", f"{t_serial:.2f}s"),
        ("pool-per-call (spawn + cold parse each run)",
         f"{t_percall:.2f}s"),
        ("warm pool (persistent workers, hot scan caches)",
         f"{t_warm:.2f}s  ({warm_hits} worker cache hits)"),
        ("warm pool vs pool-per-call", f"{pool_speedup:.1f}x faster"),
        ("pair+check serial", f"{t_stage_serial:.3f}s"),
        ("pair+check in-process (4-worker scan)",
         f"{t_stage_exec:.3f}s  ({rehydrated} files rehydrated)"),
        ("pair+check executor / serial",
         f"{stage_ratio:.2f}x ({cores} cores available)"),
        (f"serve warm resubmission x{SERVE_ROUNDS} (shared executor)",
         f"{rps:.1f} req/s"),
    ]
    emit("executor", render_table(
        "Persistent executor: warm pool, in-process tail, serve RPS", rows
    ))

    payload = {
        "bench": "executor",
        "smoke": SMOKE,
        "cpu_count": cores,
        "corpus_factor": FACTOR,
        "rounds": ROUNDS,
        "serial_seconds": round(t_serial, 4),
        "pool_per_call_seconds": round(t_percall, 4),
        "warm_pool_seconds": round(t_warm, 4),
        "warm_pool_speedup": round(pool_speedup, 2),
        "worker_scan_hits": warm_hits,
        "pair_check_serial_seconds": round(t_stage_serial, 4),
        "pair_check_executor_seconds": round(t_stage_exec, 4),
        "pair_check_executor_ratio": round(stage_ratio, 2),
        "rehydrated_files": rehydrated,
        "serve_req_per_sec": round(rps, 2),
        "serve_executor_tasks": serve_tasks,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_executor.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print("BENCH " + json.dumps(payload))

    if not SMOKE:
        assert pool_speedup >= 2, (
            f"warm pool must be >=2x faster than pool-per-call; got "
            f"{pool_speedup:.1f}x ({t_warm:.3f}s vs {t_percall:.3f}s)"
        )
    return payload


def test_executor_performance(emit):
    run_bench(emit)


if __name__ == "__main__":
    def _emit(name, text):
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    run_bench(_emit)
