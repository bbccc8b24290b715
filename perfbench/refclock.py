"""Times at reference CPU speed.

The benchmark host shares its cores with other tenants, and the speed a
single thread gets swings by up to 1.8x within minutes.  Every time the
benchmark reports is therefore scaled by how fast a fixed reference kernel
ran right next to it:

    reported = measured * nominal kernel time / kernel time nearby

so the unit stays seconds, at the speed where the kernel takes its nominal
time.  The kernel mixes the kinds of work istruct does (a breadth-first
search over tuples, small dense linear algebra, batched row norms in cache,
and for the quadrature workloads a stream over an array larger than the
caches), so it slows down with the same contention istruct does.  It never
calls istruct, so a change to the program cannot change it.  Any fixed
kernel leaves the ratio of two programs' times unbiased; a better matched
one only makes it less noisy.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

_M = np.random.default_rng(0).standard_normal((4, 4))
_ROWS = np.random.default_rng(1).standard_normal((2048, 4))
_STREAM = np.random.default_rng(2).standard_normal(1 << 18)


class RefClock:
    """The reference kernel of one workload, and scaling by it.

    ``stream`` adds a pass over a 2 MB array to the kernel, for workloads
    whose time goes to the quadrature's big chunks (memory-bound) rather than
    to the interpreter.  The nominal time is the kernel's time on a quiet
    core of the machine the benchmark was built on.
    """

    def __init__(self, stream: bool):
        self.stream = stream
        self.nominal_s = 0.004 if stream else 0.0025

    def sample(self) -> float:
        """Wall time of one run of the kernel (2.5 ms, or 4 ms with the stream)."""
        start = time.perf_counter()
        seen = {(): None}
        frontier = deque([()])
        while frontier and len(seen) < 1500:
            e = frontier.popleft()
            for r in range(4):
                n = tuple(sorted(e + (r,)))[:6]
                if n not in seen:
                    seen[n] = e
                    frontier.append(n)
        for _ in range(25):
            s = np.linalg.svd(_M, compute_uv=False)
            np.max(np.abs(np.linalg.inv(_M + np.eye(4) * s[0]) @ _M))
        for _ in range(6):
            v = np.sum(np.abs(_ROWS * 1.0001), axis=1)
            np.sum(v * v) + np.sum(np.max(np.abs(_ROWS), axis=1))
        if self.stream:
            np.sum(np.abs(_STREAM * 1.0001))
        return time.perf_counter() - start

    def median(self, runs: int = 7) -> float:
        return statistics.median(self.sample() for _ in range(runs))

    def factor(self, reference: float) -> float:
        """Multiplier that takes a time measured next to ``reference`` to
        reference speed."""
        return self.nominal_s / reference
