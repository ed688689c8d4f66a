"""Host-speed probe and the order statistics the benchmark reports."""

from __future__ import annotations

import math
import time

import numpy as np

TAIL_MIN_BEYOND = 10
TAIL_MAX = 99.9

# Median probe time on the reference host (2-vCPU x86_64 Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread). Normalised timings read as
# milliseconds on that host at that speed.
PROBE_REF_MS = 0.72


def tail_percentile(n: int) -> float:
    """Highest percentile, in steps of 0.1, with at least ten of ``n``
    samples beyond it; the median when fewer than 20 samples exist."""
    p = math.floor(1000.0 * (1.0 - TAIL_MIN_BEYOND / n)) / 10.0
    return min(max(p, 50.0), TAIL_MAX)


def tail(values) -> tuple[float, float, int]:
    """(percentile, value at it, sample count) by the tail rule."""
    p = tail_percentile(len(values))
    return p, float(np.percentile(values, p)), len(values)


class Probe:
    """A fixed, benchmark-owned workload whose time tracks host speed.

    It mixes the three kinds of cost the workloads are made of: a float64
    depthwise-convolution einsum like ``kernels.conv2d``, a run of small
    numpy calls dominated by per-call overhead, and a pure-Python loop.
    Timed around each session, it turns raw milliseconds into
    milliseconds at the speed the reference host had when
    ``PROBE_REF_MS`` was measured.
    """

    def __init__(self, reps: int = 5):
        gen = np.random.default_rng(0)
        self.reps = reps
        self._win = gen.standard_normal((8, 8, 1, 16, 16, 3, 3))
        self._kern = gen.standard_normal((8, 1, 1, 3, 3))
        self._small = gen.standard_normal((48, 32)).astype(np.float32)

    def _work(self) -> int:
        np.einsum("ngchwij,gfcij->ngfhw", self._win, self._kern)
        for _ in range(40):
            (self._small.astype(np.float64) * 0.5).sum(axis=0).astype(np.float32)
        acc = 0
        for i in range(3000):
            acc += i * i
        return acc

    def __call__(self) -> float:
        """Median of ``reps`` timings, in ms."""
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return 1e3 * sorted(times)[len(times) // 2]
