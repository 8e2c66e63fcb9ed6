"""Host-speed calibration: scales timings to a fixed reference speed.

The benchmark shares its host with other tenants, and their load changes
how fast the same work runs by up to 2x over minutes.  Between operations
the run times a fixed task that executes no majorana_pt code (a Python
loop, dict updates and small dense eigensolves, the same mix as the
program's own work) and divides each operation's time by the ratio of
that task's time to ``REFERENCE_S``.  A change to the program moves the
operation times and not the task, so it shows in the scaled figures; a
change in host load moves both and cancels.  Raw times are reported next
to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Seconds the task takes on the reference host: an idle 2-vCPU x86_64 VM
#: with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31.
REFERENCE_S = 0.007
#: Longest stretch of operation time between two calibrations.
EVERY_S = 0.25
#: Task runs per calibration; the median is kept.
REPEATS = 3

_MATRIX = np.exp(1j * (np.arange(48 * 48).reshape(48, 48) % 17)) * np.arange(1, 49)


def task_seconds() -> float:
    """Median time of ``REPEATS`` runs of the fixed calibration task."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(30000):
            total += (i * i) % 7
        counts: dict[int, int] = {}
        for i in range(5000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(3):
            np.linalg.eigvals(_MATRIX)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostSpeed:
    """Calibrates before an operation once ``EVERY_S`` of operation time has passed.

    An operation is scaled by the mean of the calibrations just before and
    just after the stretch it ran in, so a long operation is scaled by the
    host's speed over its whole run, not only at its start.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._since = math.inf
        self._ops: list[tuple[float, int]] = []

    def before_op(self) -> None:
        if self._since >= EVERY_S:
            self.samples.append(task_seconds())
            self._since = 0.0

    def after_op(self, seconds: float) -> None:
        self._since += seconds
        self._ops.append((seconds, len(self.samples) - 1))

    def scaled(self) -> list[float]:
        """Every operation's time divided by the host's slowdown while it ran."""
        self.samples.append(task_seconds())
        return [seconds * 2 * REFERENCE_S / (self.samples[k] + self.samples[k + 1])
                for seconds, k in self._ops]
