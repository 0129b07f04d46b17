"""Fast smoke test of the benchmark on ``CorpusSpec.small()`` trees.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs briefly, untraced and traced, and must print every
metric ``BENCHMARK.json`` names, with its unit, after a correctness gate
that actually ran checks.  A run whose reference result is tampered with
must come out incorrect.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
from hostspeed import INTERVAL_S, REFERENCE_S, HostSpeed  # noqa: E402
from workloads import WORKLOAD_CLASSES, EditLoop  # noqa: E402

from repro.corpus import CorpusSpec  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_the_runner():
    assert _units("end_to_end") == bench.END_TO_END
    assert _units("per_layer") == bench.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == \
        list(WORKLOAD_CLASSES)


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOAD_CLASSES))
def test_workload_prints_every_metric(name, traced):
    outcome = bench.run(WORKLOAD_CLASSES[name], seed=3, seconds=0.2,
                        traced=traced, spec=CorpusSpec.small())
    result = outcome["result"]
    assert result["correct"], outcome["lines"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert outcome["tally"].checks > 0
    expected = _units("per_layer" if traced else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if traced:
        assert outcome["tally"].replayed_ops >= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = "\n".join(outcome["lines"])
    for sample, unit, _qs in bench.NAMED_TIMINGS[name]:
        assert f"{sample}.p50 = " in printed and f" {unit}  (n=" in printed
    assert "failed_ratio = 0.0" in printed


class _TamperedEditLoop(EditLoop):
    def setup(self) -> None:
        super().setup()
        self.base_sig = {**self.base_sig, "pairings": []}


def test_gate_rejects_a_wrong_result():
    outcome = bench.run(_TamperedEditLoop, seed=3, seconds=0.2,
                        traced=False, spec=CorpusSpec.small())
    assert not outcome["result"]["correct"]
    assert any("did not restore" in line for line in outcome["lines"])


def test_host_speed_scales_wall_time_by_the_calibration():
    speed = HostSpeed()
    result, wall, normalized = speed.timed(
        lambda: time.sleep(3.5 * INTERVAL_S) or "done"
    )
    assert result == "done" and wall >= 3.5 * INTERVAL_S
    # Before, at least two passes of the sampler thread, after.
    assert len(speed.samples) >= 4
    ratio = REFERENCE_S / (normalized / wall)
    assert min(speed.samples) <= ratio <= max(speed.samples)
