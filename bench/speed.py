"""Machine-speed reference: timings calibrated against fixed work.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute, and every kind of code (interpreter loops, allocation,
numpy, process start-up) slows down and speeds up together. A fixed
reference, timed right before and after every sample, tracks that speed. It
has two parts: an in-process kernel, the reference for in-process samples,
and the start of a bare interpreter, which fresh-process samples add to the
kernel because they spend most of their time starting up and importing. A
sample's calibrated time is its wall time scaled by the reference's nominal
time over the mean of the two reference times around it: the seconds it
would have taken with the reference at its nominal speed. The host's drift
cancels in the ratio; a change to the program does not, because the
reference is the benchmark's own code and never calls gravclock.

The virtual CPUs of such a host drift independently, so the benchmark pins
itself to one CPU (pin_one_cpu) and its child processes inherit the pin:
the reference then measures the CPU the timed code ran on. A change that
only helps by running on more cores does not show in these figures.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal times of the reference's parts, each the median of REF_REPEATS
# runs; the scale of calibrated seconds.
KERNEL_NOMINAL_S = 0.012
START_NOMINAL_S = 0.012
REF_REPEATS = 3

BARE_INTERPRETER = (sys.executable, "-I", "-S", "-c", "pass")

_ARRAY = np.linspace(0.0, 40.0, 2000)


def kernel() -> float:
    """A fixed mix of interpreter, allocation and numpy work, about 12 ms."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    values = np.cos(_ARRAY * 0.37).tolist()
    mixed = 0.0
    for _ in range(30):
        mixed += math.fsum(values)
        mixed += float(np.sin(_ARRAY + mixed).sum())
    rows = [f"{v:.6g}" for v in values[:2000]]
    return total + mixed + len(",".join(rows))


def pin_one_cpu() -> str:
    """Pin this process, and the children it starts later, to one CPU.

    Returns a description for the environment line.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        return f"not pinned ({exc.strerror}), {len(allowed)} CPUs allowed"
    return f"pinned to CPU {cpu} of {len(allowed)} allowed"


def _median_time(run) -> float:
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_s() -> tuple[float, float]:
    """(kernel, bare interpreter start): each the median of REF_REPEATS runs."""
    return (
        _median_time(kernel),
        _median_time(lambda: subprocess.run(BARE_INTERPRETER, check=True)),
    )


class Calibrator:
    """Turns wall times of consecutive samples into calibrated seconds.

    Call calibrate right after each sample; the reference measured then
    also serves as the "before" reference of the next sample.
    """

    def __init__(self) -> None:
        kernel()
        self.last = reference_s()
        self.factors: list[float] = []

    def calibrate(self, wall: float, fresh: bool = False) -> float:
        """wall in calibrated seconds; fresh for a fresh-process sample."""
        ref = reference_s()
        if fresh:
            nominal = KERNEL_NOMINAL_S + START_NOMINAL_S
            measured = sum(self.last) + sum(ref)
        else:
            nominal = KERNEL_NOMINAL_S
            measured = self.last[0] + ref[0]
        factor = nominal / (0.5 * measured)
        self.last = ref
        self.factors.append(factor)
        return wall * factor
