"""CPU-speed calibration for wall-clock metrics.

On a shared host the effective speed of a vCPU drifts by 20 % and more over
tens of seconds, so two passes of the same exact work can differ that much
in raw wall time.  A fixed pure-Python kernel, timed many times during the
same interval, tracks that drift: on a 2-vCPU Xeon VM the raw wall time of
`quotient --sqrt-q 8 --d 19` ranged over 28-37 s in five passes
(IQR/median 0.29 over an earlier five), while its ratio to the sampled
kernel time spread by 4 %.

A time t measured while the kernel took k on average is reported as
t * REF_KERNEL_S / k: the time at the reference speed.  REF_KERNEL_S only
fixes the unit: it is the kernel's time on that VM in its fast state.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_KERNEL_S = 1.0e-3
SAMPLE_PERIOD_S = 0.2


def kernel() -> int:
    # dict churn, like the package's Python-level field arithmetic; it
    # tracked the workloads' drift better than a bare integer loop.  A dict
    # of ints is not tracked by the cyclic collector, so the kernel never
    # triggers a collection of the measured program's heap.
    d: dict = {}
    for i in range(6000):
        k = i * 7 % 1009
        d[k] = d.get(i % 101, 0) + (i ^ 5)
    return len(d)


def time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def kernel_now(n: int = 15) -> float:
    """Median kernel time over n back-to-back runs (about 25 ms)."""
    return statistics.median(time_kernel() for _ in range(n))


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REF_KERNEL_S / kernel_s


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S of wall time, from a SIGALRM
    handler in the measured process itself, so no thread or process is
    added.  The handler runs between bytecodes, so a long native call only
    delays a sample.  Costs about 1 % of the interval."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_s(self) -> float:
        """Mean sampled kernel time, without the slowest and fastest 5 %.

        The host switches between speed states within a pass; samples are
        evenly spaced in wall time, so their mean tracks the pass's average
        speed where a median would pick one state.  One extra sample covers
        intervals shorter than the period."""
        xs = sorted(self.samples or [time_kernel()])
        cut = len(xs) // 20
        return statistics.fmean(xs[cut:len(xs) - cut])
