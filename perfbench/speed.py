"""Host-speed correction for pass times.

On the shared virtual machines this benchmark runs on, the speed of the
host drifts by up to 2x within seconds and between minutes, in CPU time as
well as in wall time.  A wall-clock pass time then says more about the
neighbours than about the program.

A Speedometer interrupts the pass every PERIOD_S seconds (SIGALRM) and times
a fixed pure-Python kernel.  Between two samples the program's wall time is
scaled by REFERENCE_KERNEL_S over the kernel's time there, which gives the
time the interval would have taken on a host running the kernel in
REFERENCE_KERNEL_S.  The sampler never touches the program's state; it
costs about 1% of a pass.
"""

import signal
import statistics
import time

PERIOD_S = 0.05
# kernel() on an unloaded 2-vCPU Intel Xeon VM with Python 3.11
REFERENCE_KERNEL_S = 0.00025


def kernel():
    total = 0
    for k in range(5000):
        total += k * k
    return total


class Speedometer:
    def __init__(self):
        self.samples = []  # (start, kernel seconds)
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def reference_seconds(self, begin, end):
        """Time of the window [begin, end] at the reference speed, without
        the sampler's own kernels."""
        total = 0.0
        for (t0, k0), (t1, k1) in zip(self.samples, self.samples[1:]):
            overlap = min(end, t1) - max(begin, t0 + k0)
            if overlap > 0:
                total += overlap * REFERENCE_KERNEL_S / ((k0 + k1) / 2)
        return total

    def median_kernel_s(self):
        return statistics.median(k for _, k in self.samples)
