"""Cluster stress: concurrent submissions with a node dying mid-run.

Satellite for the cluster tier: a 3-node harness takes several
concurrent submissions of *distinct* trees (distinct so the warm engine
pool cannot short-circuit the shard traffic), one node is killed while
shard RPCs are in flight, and afterwards every job must have completed
with a result bit-for-bit equal to its serial reference — no shard
lost, none double-absorbed — and the cluster counters must be
internally consistent.
"""

import threading

import pytest

from tests.cluster_harness import ClusterHarness
from repro.core.engine import OFenceEngine, run_in_mode
from repro.corpus import CorpusSpec, generate_corpus
from repro.fuzz.differential import run_signature
from repro.fuzz.generate import generate_case
from repro.serve.client import ServeClient

#: Distinct fuzz seeds submitted concurrently.
SEEDS = (11, 12, 13, 14, 15)


@pytest.fixture(scope="module")
def cases():
    return {seed: generate_case(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def serial_signatures(cases):
    return {
        seed: run_signature(run_in_mode("serial", case.source))
        for seed, case in cases.items()
    }


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec.small(), seed=31)


@pytest.fixture(scope="module")
def corpus_signature(corpus):
    return run_signature(OFenceEngine(corpus.source).analyze())


def test_concurrent_submits_survive_node_death(
    cases, serial_signatures, corpus, corpus_signature
):
    with ClusterHarness(nodes=3) as harness:
        doomed_url = harness.urls[2]
        killed = threading.Event()

        def kill_doomed_node(_url: str) -> None:
            # Fires on the first scan group dispatched to any node — the
            # earliest mid-run moment — so the doomed node dies while
            # the concurrent jobs still have scans routed to it.
            if not killed.is_set():
                killed.set()
                harness.kill(2)

        harness.executor.on_scan_dispatch = kill_doomed_node

        server = harness.coordinator.make_server(workers=2)
        server.start()
        try:
            client = ServeClient(server.url)
            responses: dict[int, dict] = {}
            errors: list[Exception] = []

            def submit(seed: int) -> None:
                try:
                    responses[seed] = client.submit_with_retry(
                        lambda: client.analyze(
                            cases[seed].source, wait=True
                        )
                    )
                except Exception as exc:  # surfaced in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(seed,))
                for seed in SEEDS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert errors == []
            assert set(responses) == set(SEEDS)

            # Every job completed, and its *engine-produced* result
            # (from the in-process job table, not the wire summary) is
            # bit-for-bit the serial reference for that tree.
            for seed, response in responses.items():
                assert response["status"] == "done", (
                    f"seed {seed}: {response.get('error')}"
                )
                job = server.service.job(response["job_id"])
                assert job.result is not None
                assert run_signature(job.result) == \
                    serial_signatures[seed], f"seed {seed} diverged"
        finally:
            server.stop()

        assert killed.is_set(), "the kill hook never fired"
        # The concurrent trees are tiny, so whether their remaining
        # scans happened to route through the dead node depends on the
        # (port-derived) ring layout.  A full-corpus run cannot miss
        # it: its files hash onto every node believed up, so the dead
        # node is dispatched to, fails, and is failed over — while the
        # result still matches serial.
        result = harness.coordinator.analyze(corpus.source)
        assert run_signature(result) == corpus_signature

        snap = harness.executor.snapshot()
        cluster = harness.executor.cluster_snapshot()

    # No shard was double-absorbed and none silently vanished: every
    # lost scan file was re-scanned by the engine (parity above proves
    # completeness; the counter proves the path was the failover one).
    assert snap["scan_duplicates"] == 0
    assert snap["nodes_up"] == 2
    assert snap["node_failures"] == 1
    assert snap["redispatches"] >= 1
    # Counter consistency: the aggregate RPC count is exactly the sum
    # of the per-node counts, and only live nodes report as up.
    per_node = cluster["per_node"]
    assert snap["rpcs"] == sum(n["rpcs"] for n in per_node.values())
    assert sum(1 for n in per_node.values() if n["up"]) == 2
    assert per_node[doomed_url]["up"] is False
