"""Unit tests for the scan fan-out shared by both executors.

``repro.exec.fanout.fan_out`` owns the transport-independent half of a
scan: context epochs, re-dispatch of a failed lane's batches, duplicate
dropping and ``ExecutorClosed``.  Fake lanes stand in for worker
processes and nodes here, so every failure path runs without processes
or sockets; ``test_executor.py`` and ``test_cluster.py`` cover the real
transports.
"""

import sys
import threading
import time

import pytest

from repro.cluster import ClusterExecutor
from repro.core.cache import CachedScan
from repro.core.engine import AnalysisOptions, OFenceEngine, run_in_mode
from repro.exec.fanout import (
    HOP_LIMIT,
    ExecutorClosed,
    LaneDown,
    StaleContext,
    fan_out,
)
from repro.exec.protocol import ExecContext
from repro.fuzz.differential import run_signature
from repro.fuzz.generate import generate_case
from repro.serve.client import ClientError

CTX = ExecContext.build({}, {}, 5, 50)


def _job(path: str) -> tuple[str, str, str]:
    return (path, "int x;\n", f"key:{path}")


class FakeLane:
    """A lane that answers each batch with one empty scan per file.

    ``fail_at`` is the number of batches it answers before it dies
    (``None``: never), ``stale`` how many answers in a row say it lost
    the context, and ``extra`` payloads ride along with its first reply.
    """

    def __init__(self, name, fail_at=None, stale=0, extra=(), gate=None):
        self.name = name
        self.epoch = None
        self.installs = 0
        self.fail_at = fail_at
        self.stale = stale
        self.extra = list(extra)
        self.gate = gate
        self.ran: list[list] = []

    def install(self, ctx):
        self.installs += 1

    def run(self, batches, ctx):
        for batch in batches:
            if self.gate is not None:
                self.gate.wait(5)
            if self.stale:
                self.stale -= 1
                raise StaleContext(self.name)
            if self.fail_at is not None and len(self.ran) >= self.fail_at:
                raise LaneDown(self.name)
            self.ran.append(batch)
            payloads = [CachedScan(filename=p, sites=[]) for p, _, _ in batch]
            payloads += self.extra
            self.extra = []
            yield payloads, len(batch), None


def _no_successor(lane, tried):
    return None


def _next_of(lanes):
    """Successor walking ``lanes`` in order, skipping tried ones."""
    return lambda lane, tried: next(
        (other for other in lanes if other not in tried), None
    )


def _scan(plan, successor=_no_successor, closed=lambda: False):
    delivered: dict[str, str] = {}

    def on_result(cached, key):
        assert cached.filename not in delivered
        delivered[cached.filename] = key

    stats = fan_out(plan, CTX, on_result, successor, closed)
    return stats, delivered


class TestDelivery:
    def test_every_file_delivered_once_with_its_key(self):
        a, b = FakeLane("a"), FakeLane("b")
        plan = [
            (a, [[_job("a1.c"), _job("a2.c")], [_job("a3.c")]]),
            (b, [[_job("b1.c")]]),
        ]
        stats, delivered = _scan(plan)
        assert delivered == {
            p: f"key:{p}" for p in ("a1.c", "a2.c", "a3.c", "b1.c")
        }
        assert stats["dispatched"] == stats["completed"] == 4
        assert stats["batches"] == 3
        assert stats["worker_hits"] == 4
        assert stats["workers_used"] == 2
        assert stats["respawns"] == stats["dropped"] == 0

    def test_context_installed_only_on_epoch_change(self):
        lane = FakeLane("a")
        _scan([(lane, [[_job("a.c")]])])
        _scan([(lane, [[_job("a.c")]])])
        assert lane.installs == 1
        lane.epoch = "another"
        _scan([(lane, [[_job("a.c")]])])
        assert lane.installs == 2

    def test_duplicate_and_unknown_payloads_are_dropped(self):
        lane = FakeLane("a", extra=[
            CachedScan(filename="a.c", sites=[]),
            CachedScan(filename="unknown.c", sites=[]),
        ])
        stats, delivered = _scan([(lane, [[_job("a.c")]])])
        assert delivered == {"a.c": "key:a.c"}
        assert stats["completed"] == 1
        assert stats["dropped"] == 2

    def test_empty_plan_returns_zero_stats(self):
        stats, delivered = _scan([])
        assert delivered == {}
        assert stats["completed"] == stats["workers_used"] == 0


class TestFailover:
    def test_lane_dying_mid_batch_is_replaced(self):
        doomed = FakeLane("a", fail_at=1)
        respawned = FakeLane("a2")
        batches = [[_job("1.c"), _job("2.c")], [_job("3.c")], [_job("4.c")]]
        stats, delivered = _scan(
            [(doomed, batches)], successor=lambda lane, tried: respawned
        )
        assert set(delivered) == {"1.c", "2.c", "3.c", "4.c"}
        assert doomed.ran == batches[:1]
        assert respawned.ran == batches[1:]
        assert respawned.installs == 1  # fresh lane, fresh context
        assert stats["respawns"] == 1

    def test_down_lane_without_replacement_moves_to_next_live(self):
        down, live = FakeLane("a", fail_at=0), FakeLane("b")
        stats, delivered = _scan(
            [(down, [[_job("a.c")]]), (live, [[_job("b.c")]])],
            successor=_next_of([down, live]),
        )
        assert set(delivered) == {"a.c", "b.c"}
        assert sorted(b[0][0] for b in live.ran) == ["a.c", "b.c"]
        assert stats["respawns"] == 1

    def test_every_lane_down_leaves_an_incomplete_scan(self):
        lanes = [FakeLane("a", fail_at=0), FakeLane("b", fail_at=0)]
        stats, delivered = _scan(
            [(lanes[0], [[_job("a.c")]]), (lanes[1], [[_job("b.c")]])],
            successor=_next_of(lanes),
        )
        assert delivered == {}
        assert stats["dispatched"] == 2
        assert stats["completed"] == 0

    def test_hops_are_bounded(self):
        spawned: list[FakeLane] = []

        def always_failing(lane, tried):
            spawned.append(FakeLane(f"r{len(spawned)}", fail_at=0))
            return spawned[-1]

        stats, delivered = _scan(
            [(FakeLane("a", fail_at=0), [[_job("a.c")]])],
            successor=always_failing,
        )
        assert delivered == {}
        assert len(spawned) == stats["respawns"] == HOP_LIMIT


    def test_many_lanes_failing_at_once_count_every_hop(self):
        # More lanes than cores, each dying after one batch and replaced,
        # with a tiny switch interval: a lost update to the shared hop
        # count or a lost reply would break the totals.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            lanes = [FakeLane(f"l{i}", fail_at=1) for i in range(16)]
            plan = [
                (lane, [[_job(f"{lane.name}-{j}.c")] for j in range(4)])
                for lane in lanes
            ]
            stats, delivered = _within(20, lambda: _scan(
                plan, successor=lambda lane, tried: FakeLane("r"),
            ))
        finally:
            sys.setswitchinterval(interval)
        assert len(delivered) == stats["completed"] == 64
        assert stats["respawns"] == 16
        assert stats["batches"] == 64


class TestStaleContext:
    def test_one_stale_answer_reinstalls_and_retries(self):
        lane = FakeLane("a", stale=1)
        stats, delivered = _scan([(lane, [[_job("a.c")]])])
        assert delivered == {"a.c": "key:a.c"}
        assert lane.installs == 2
        assert stats["respawns"] == 0

    def test_second_stale_answer_fails_over(self):
        stuck, live = FakeLane("a", stale=100), FakeLane("b")
        stats, delivered = _scan(
            [(stuck, [[_job("a.c")]])], successor=_next_of([stuck, live]),
        )
        assert delivered == {"a.c": "key:a.c"}
        assert stuck.installs == 2  # the one bounded re-install
        assert stats["respawns"] == 1


class TestClose:
    def test_closed_at_entry_raises(self):
        with pytest.raises(ExecutorClosed):
            _scan([(FakeLane("a"), [[_job("a.c")]])], closed=lambda: True)

    def test_close_during_inflight_op_raises(self):
        gate = threading.Event()
        closed = threading.Event()
        lane = FakeLane("a", gate=gate)
        threading.Timer(0.1, closed.set).start()
        started = time.monotonic()
        try:
            with pytest.raises(ExecutorClosed):
                _scan([(lane, [[_job("a.c")]])], closed=closed.is_set)
        finally:
            gate.set()
        assert time.monotonic() - started < 4

    def test_close_from_on_result_raises(self):
        closed = threading.Event()
        lane = FakeLane("a")

        def close_on_first(cached, key):
            closed.set()

        with pytest.raises(ExecutorClosed):
            fan_out(
                [(lane, [[_job("a.c")], [_job("b.c")]])], CTX,
                close_on_first, _no_successor, closed.is_set,
            )

    def test_failing_on_result_raises_after_lanes_run_out(self):
        lane = FakeLane("a")
        batches = [[_job("a.c")], [_job("b.c")], [_job("c.c")]]

        def boom(cached, key):
            raise ValueError("absorb failed")

        with pytest.raises(ValueError):
            fan_out([(lane, batches)], CTX, boom, _no_successor,
                    lambda: False)
        assert lane.ran == batches


# ---------------------------------------------------------------------------
# Regression: a node that keeps answering 428 must not loop forever
# ---------------------------------------------------------------------------


class AlwaysStaleClient:
    """A node whose installed context is always someone else's: every
    scan answers 428, as when two jobs with different contexts keep
    evicting each other's epoch on a shared node."""

    def __init__(self, url: str):
        self.url = url
        self.installs = 0

    def shard_ctx(self, ctx):
        self.installs += 1
        return {"ok": True, "epoch": ctx.epoch}

    def shard_scan(self, epoch, jobs):
        raise ClientError(428, "unknown context epoch")

    def healthz(self):
        return {"status": "ok"}


def _within(seconds: float, fn):
    """``fn()`` on a daemon thread; fail if it has not returned in time."""
    out: dict = {}
    thread = threading.Thread(
        target=lambda: out.setdefault("value", fn()), daemon=True
    )
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"did not return within {seconds} s"
    return out["value"]


class TestStaleNodeRegression:
    NODES = ["http://node-a:1", "http://node-b:2"]

    def test_scan_returns_incomplete(self):
        clients: dict[str, AlwaysStaleClient] = {}
        executor = ClusterExecutor(
            self.NODES,
            client_factory=lambda url: clients.setdefault(
                url, AlwaysStaleClient(url)
            ),
        )
        jobs = [_job(f"f{i}.c") for i in range(8)]
        stats = _within(5, lambda: executor.scan(
            jobs, CTX, lambda *args: None
        ))
        assert stats["completed"] == 0
        # One install plus one re-install per node a group visits.
        assert sum(c.installs for c in clients.values()) <= 2 * 2 * 2
        assert executor.snapshot()["scan_files_lost"] == len(jobs)
        assert executor.snapshot()["nodes_up"] == 2

    def test_engine_result_equals_serial(self):
        case = generate_case(10)  # three files with barriers
        executor = ClusterExecutor(
            self.NODES, client_factory=AlwaysStaleClient
        )
        options = AnalysisOptions(executor=executor)
        result = _within(
            5, lambda: OFenceEngine(case.source, options).analyze()
        )
        assert "scan.exec" in result.profile.stages
        assert result.profile.counters.get("exec.dispatched", 0) == 0
        serial = run_in_mode("serial", case.source)
        assert run_signature(result) == run_signature(serial)
