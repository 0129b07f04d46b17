"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core changes under the benchmark: a
fixed pure-Python loop can take 30 ms for some seconds and 50 ms for the
next ones, with CPU time equal to wall time and no steal.  A wall-clock
latency then says as much about the neighbours as about the program.

:class:`HostSpeed` times a fixed calibration kernel: pure Python in the
style of the analyzer, defined here and independent of the program.  It
mixes three kinds of work that a shared host slows down differently:
regex lexing into small objects, dicts and a recursive walk (core
speed); pointer chasing through a heap of a few MB (more than a core's
L2 cache, less than the shared L3); and ``difflib`` sequence matching.
:meth:`HostSpeed.timed` samples the host speed before and after one
operation (on every CPU the process may run on, the fastest of
:data:`PASSES` passes each, garbage collection off) and every
:data:`INTERVAL_S` during it from a sampler thread (one pass, on each CPU
in turn).  It scales the operation's wall time to the host speed at
which one calibration pass takes :data:`REFERENCE_S`::

    normalized = wall × REFERENCE_S / median(calibration samples)

Passes are timed in thread CPU time, so a pass that waits for a CPU or
for the GIL while the program runs is not charged as a slow host; the
median drops the odd pass that a garbage collection of the program's
heap lands in.  The sampler holds the GIL for one pass per interval,
which slows an operation by a few percent, the same in every run.

A change that makes the program faster lowers ``wall`` and leaves the
calibration alone, so the normalized time moves with the program and
not with the host.
"""

from __future__ import annotations

import difflib
import gc
import hashlib
import os
import random
import re
import statistics
import threading
import time

#: Seconds one calibration pass takes at the reference host speed, about
#: the fastest the 2-core host this benchmark was sized on ran it.
REFERENCE_S = 0.0030

#: Passes per CPU in one sample taken between operations; the fastest
#: one counts.
PASSES = 2

#: Seconds between samples of the sampler thread during an operation.
INTERVAL_S = 0.1

_WORDS = ("smp_wmb", "smp_rmb", "READ_ONCE", "WRITE_ONCE", "flag", "data",
          "struct", "int", "if", "return", "p", "q", "next", "len", "i")


def _calibration_text() -> str:
    rng = random.Random(20230501)
    lines = []
    for n in range(25):
        a, b = rng.choice(_WORDS), rng.choice(_WORDS)
        lines.append(f"static int fn_{n}(struct s *p) {{ if (p->{a} > "
                     f"{rng.randrange(1000)}) {b}(p->{a}); return {n}; }}")
    return "\n".join(lines)


_TEXT = _calibration_text()
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+|->|[{}()\[\];,<>=+*-]|\S")
_WORDS_A = _TOKEN_RE.findall(_TEXT)[:400]
_WORDS_B = [w if n % 7 else "edit" for n, w in enumerate(_WORDS_A)]

#: Nodes of the pointer-chasing heap, and steps of one chase.
HEAP_NODES = 60_000
CHASE_STEPS = 6_000

#: ``[next index, payload]`` nodes in one random cycle; built by the
#: first :class:`HostSpeed`.
_heap: list[list[int]] = []


def _build_heap() -> None:
    if _heap:
        return
    order = list(range(HEAP_NODES))
    random.Random(7).shuffle(order)
    nodes: list[list[int]] = [[]] * HEAP_NODES
    for n, slot in enumerate(order):
        nodes[slot] = [order[(n + 1) % HEAP_NODES], n & 7]
    _heap.extend(nodes)


class _Token:
    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind: int, text: str):
        self.kind = kind
        self.text = text
        self.kids: list[_Token] = []


def _depth(token: _Token) -> int:
    return 1 + max((_depth(kid) for kid in token.kids), default=0)


def _kernel() -> int:
    """One calibration pass (a few milliseconds)."""
    counts: dict[str, int] = {}
    stack = [_Token(0, "")]
    for match in _TOKEN_RE.finditer(_TEXT):
        text = match.group(0)
        counts[text] = counts.get(text, 0) + 1
        token = _Token(1 if text[0].isalpha() else 2, text)
        if text in "{(":
            stack[-1].kids.append(token)
            stack.append(token)
        elif text in "})" and len(stack) > 1:
            stack.pop()
        else:
            stack[-1].kids.append(token)
    digest = hashlib.sha1(
        "|".join(f"{k}:{v}" for k, v in sorted(counts.items())).encode()
    ).hexdigest()
    at, total = 0, 0
    for _ in range(CHASE_STEPS):
        node = _heap[at]
        at = node[0]
        total += node[1]
    opcodes = difflib.SequenceMatcher(None, _WORDS_A, _WORDS_B).get_opcodes()
    return _depth(stack[0]) + len(digest) + total + len(opcodes)


class HostSpeed:
    """Calibration samples and host-normalized timing of operations."""

    def __init__(self):
        _build_heap()
        try:
            self._cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, self._cpus)
        except (AttributeError, OSError):
            self._cpus = []  # no pinning: sample wherever the OS runs us
        #: Every calibration sample taken, in seconds per pass.
        self.samples: list[float] = []

    @staticmethod
    def _pass() -> float:
        start = time.thread_time()
        _kernel()
        return time.thread_time() - start

    def _fastest(self) -> float:
        return min(self._pass() for _ in range(PASSES))

    def sample(self) -> float:
        """Seconds one calibration pass takes now, averaged over CPUs."""
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            if len(self._cpus) > 1:
                try:
                    for cpu in self._cpus:
                        os.sched_setaffinity(0, {cpu})
                        times.append(self._fastest())
                finally:
                    os.sched_setaffinity(0, self._cpus)
            else:
                times.append(self._fastest())
        finally:
            if enabled:
                gc.enable()
        value = sum(times) / len(times)
        self.samples.append(value)
        return value

    def _sample_until(self, stop: threading.Event, out: list[float]):
        cpus = self._cpus if len(self._cpus) > 1 else [None]
        turn = 0
        while not stop.wait(INTERVAL_S):
            cpu = cpus[turn % len(cpus)]
            turn += 1
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})  # this thread only
            out.append(self._pass())

    def timed(self, fn):
        """Run ``fn()``; returns (result, wall seconds, normalized
        seconds).  Exceptions of ``fn`` propagate."""
        samples = [self.sample()]
        during: list[float] = []
        stop = threading.Event()
        sampler = threading.Thread(target=self._sample_until,
                                   args=(stop, during), daemon=True)
        sampler.start()
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            stop.set()
            sampler.join()
        self.samples += during
        samples += during
        samples.append(self.sample())
        return result, wall, wall * REFERENCE_S / statistics.median(samples)
