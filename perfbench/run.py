"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cold-tree --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same loop with the per-layer replay beside it and
prints the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check of the correctness gate passed.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> unit of every end-to-end metric (``--trace 0``).  Times are
#: host-normalized (``perfbench/hostspeed.py``): wall time scaled to the
#: reference host speed; the wall times are printed beside them.
END_TO_END = {
    "op_norm_ms.p50": "ms",
    "cycle_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (``--trace 1``).  Busy times
#: and counts are per workload operation: per tree, edit or request.
PER_LAYER = {
    "cparse.lexer.busy_s": "s",
    "cparse.lexer.tokens": "count",
    "cparse.lexer.tokens_per_s": "1/s",
    "cparse.preprocessor.self_s": "s",
    "cparse.preprocessor.tokens_out": "count",
    "cparse.parser.busy_s": "s",
    "cparse.parser.functions": "count",
    "cparse.typesys.busy_s": "s",
    "cfg.busy_s": "s",
    "cfg.statements": "count",
    "analysis.barrier_scan.busy_s": "s",
    "analysis.barrier_scan.sites": "count",
    "core.cache.key_busy_s": "s",
    "core.cache.memory_hits": "count",
    "core.cache.misses": "count",
    "pairing.busy_s": "s",
    "pairing.pairings": "count",
    "pairing.files_updated": "count",
    "pairing.candidates_reused": "count",
    "checkers.busy_s": "s",
    "checkers.findings": "count",
    "checkers.failures": "count",
    "checkers.rehydrated_files": "count",
    "store.fingerprint.busy_s": "s",
    "store.fingerprint.findings": "count",
    "patching.busy_s": "s",
    "patching.patches": "count",
    "patching.memo_hits": "count",
    "patching.failed": "count",
    "exec.scan_s": "s",
    "exec.pair_s": "s",
    "exec.check_s": "s",
    "exec.dispatched": "count",
    "exec.batches": "count",
    "exec.worker_hits": "count",
    "exec.respawns": "count",
    "serve.job_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.pool_hits": "count",
    "serve.reconverged": "count",
    "trace.gap_s": "s",
}

#: Per-workload timings printed by their own names, with sample counts,
#: in the human-readable lines: (sample list, unit, quantiles).
NAMED_TIMINGS = {
    "cold-tree": [("cold_analyze_s", "s", (0.5,))],
    "edit-loop": [("reanalyze_ms", "ms", (0.5, 0.9))],
    "serve-exec": [
        ("serve_cold_s", "s", (0.5,)),
        ("serve_delta_ms", "ms", (0.5, 0.9)),
        ("serve_resubmit_ms", "ms", (0.5,)),
    ],
}


def end_to_end_metrics(workload, tally) -> dict:
    ops = tally.samples[workload.op_samples]
    scale = 1000.0 if workload.op_samples.endswith("_s") else 1.0
    return {
        "op_norm_ms.p50": statistics.median(ops) * scale,
        "cycle_norm_s": statistics.median(tally.samples["cycle_s"]),
        "setup_s": statistics.median(tally.setup_s),
        "peak_rss_mb": tally.peak_rss_mb,
    }


def per_layer_metrics(workload, tally) -> dict:
    clock = tally.clock
    ops = max(1, tally.replayed_ops)
    out = {name: 0.0 for name in PER_LAYER}
    for name, value in clock.busy.items():
        out[name] = value / ops
    for name, value in clock.counts.items():
        out[name] = value / ops
    lexer_s = clock.busy.get("cparse.lexer.busy_s", 0.0)
    out["cparse.lexer.tokens_per_s"] = (
        clock.counts.get("cparse.lexer.tokens", 0) / lexer_s
        if lexer_s else 0.0
    )
    out["checkers.rehydrated_files"] = tally.rehydrated_files / ops
    out.update(workload.serve_layers)
    out["trace.gap_s"] = (clock.layer_sum() - tally.replayed_s) / ops
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-tree", "edit-loop", "serve-exec"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.corpus import CorpusSpec
    from workloads import WORKLOAD_CLASSES

    outcome = run(WORKLOAD_CLASSES[args.workload], args.seed, args.seconds,
                  bool(args.trace), CorpusSpec.paper())
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


def run(workload_cls, seed: int, seconds: float, traced: bool, spec) -> dict:
    """Run one workload; returns the printed lines and the result."""
    from hostspeed import REFERENCE_S
    from workloads import quantile

    workload = workload_cls(seed, spec, traced)
    tally = workload.run(seconds)
    lines = [
        f"workload {workload.name}  seed {seed}  seconds {seconds:g}  "
        f"trace {int(traced)}  cpu_count {os.cpu_count()}  "
        f"cycles {tally.cycles}",
    ]
    for sample, unit, qs in NAMED_TIMINGS[workload.name]:
        for kind, suffix in (("normalized", ""), ("wall", ".wall")):
            values = tally.samples[sample + suffix]
            for q in qs:
                value = quantile(values, q) if values else float("nan")
                lines.append(f"{sample}{suffix}.p{int(q * 100)} = "
                             f"{value:.4f} {unit}  (n={len(values)}, {kind})")
    for name, values in (("cycle_s.wall", tally.samples["cycle_s.wall"]),
                         ("setup_s.wall", tally.setup_wall_s)):
        if values:
            lines.append(f"{name}.p50 = {statistics.median(values):.4f} s  "
                         f"(n={len(values)}, wall)")
    calibration = workload.speed.samples
    lines.append(f"host calibration pass p50 = "
                 f"{statistics.median(calibration) * 1000:.3f} ms  "
                 f"(n={len(calibration)}, reference "
                 f"{REFERENCE_S * 1000:g} ms)")
    lines.append(f"failed_ratio = {tally.failed / max(1, tally.attempted)}"
                 f"  ({tally.failed}/{tally.attempted})")
    lines.append(f"correctness checks = {tally.checks}  "
                 f"problems = {len(tally.problems)}")
    lines += [f"  problem: {p}" for p in tally.problems]

    measured = bool(tally.samples[workload.op_samples])
    correct = measured and tally.checks > 0 and not tally.problems
    if traced:
        values, units = per_layer_metrics(workload, tally), PER_LAYER
    elif measured:
        values = end_to_end_metrics(workload, tally)
        units = END_TO_END
    else:
        values, units = {}, END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "lines": lines,
        "tally": tally,
        "result": {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
