"""Host-speed calibration: a fixed kernel timed between the benchmark's ops.

The benchmark runs on shared virtual machines whose speed drifts while it
runs: on the 2-core machine it was built on, the same solve took from 1.0 to
2.1 seconds, with slow spells from a fraction of a second to whole minutes,
and a fixed kernel slowed down in step with it.  So every timed op is
bracketed by two timings of a fixed kernel and reported at the reference
speed::

    normalized = seconds * REFERENCE_S / mean(kernel before, kernel after)

The kernel is dense Gauss-Jordan pivoting on a small matrix: numpy row
operations on small arrays driven by a Python loop, the same mix of
interpreter and numpy call overhead as the program's stage LPs, and it uses
no code of the program, so any change to the program shows in full in the
normalized time.  Over 359 alternating timings of a 0.1 s solve and the
kernel, log solve time followed log kernel time with slope 0.96 and
correlation 0.91; the interquartile range of the solve time over its median
fell from 0.52 to 0.07 once normalized.  In lightly loaded spells the kernel
follows the program less closely (correlation about 0.7), and a short kernel
adds jitter of its own, so it runs for 30 ms: over 35 repeated 1.2 s solves,
one 10 ms run on each side left an interquartile range of 0.18 of the
median, eight runs 0.15.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the kernel takes on an unloaded core of the machine the benchmark
# was built on; normalized times are seconds at that speed.
REFERENCE_S = 0.030
WARMUP = 5


def kernel() -> float:
    """Fixed pivoting work; returns a checksum so nothing is optimised away."""
    rng = np.random.default_rng(12345)
    base = rng.uniform(-1.0, 1.0, (24, 36)) + 4.0 * np.eye(24, 36)
    acc = 0.0
    for _ in range(120):
        a = base.copy()
        for k in range(24):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if p != k:
                a[[k, p]] = a[[p, k]]
            a[k] /= a[k, k]
            f = a[:, k].copy()
            f[k] = 0.0
            a -= np.outer(f, a[k])
            acc += float(a[k].dot(a[k]))
        acc += sum(sorted(float(v) for v in a[:, -1])[:5])
    return acc


def time_kernel() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class HostSpeed:
    """Times the kernel between ops and scales op times to the reference speed."""

    def __init__(self):
        for _ in range(WARMUP):
            time_kernel()
        self.last = time_kernel()
        self.samples = [self.last]

    def refresh(self) -> None:
        """Time the kernel now: call right before an op after untimed work."""
        self.last = time_kernel()
        self.samples.append(self.last)

    def normalize(self, seconds: float) -> float:
        """Scale the time of the op that just ended, using the kernel around it.

        The last kernel timing (after the previous op, or a refresh) is this
        op's "before"; the kernel is timed again now for its "after".
        """
        before = self.last
        self.refresh()
        return seconds * REFERENCE_S / (0.5 * (before + self.last))

    def median_s(self) -> float:
        return statistics.median(self.samples)
