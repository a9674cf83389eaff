"""Host speed, measured beside the workload.

On a shared host the speed of a core swings from one second to the next:
a fixed pure-Python loop on a 2-vCPU Xeon KVM guest took anywhere from
2.4 to 4.4 ms per run, in runs of a few seconds each, with no other process
in the guest.  Process CPU time swings the same way (the neighbours share
the physical core and its caches), so neither wall nor CPU time of one run
compares with another run's.

A fixed reference task, timed between requests every :data:`PERIOD_S`
seconds, follows those swings.  Each request's time is scaled by
``REFERENCE_MS / (median reference time around it)``: times are reported
at a fixed host speed, the speed at which the reference task takes
:data:`REFERENCE_MS`.  The reference task does not call the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: The reference task's time, in ms, at the host speed times are
#: reported at.  On the 2-vCPU Xeon KVM guest the benchmark was built on
#: it took 1.3-1.5 ms in quiet stretches and 2.3-2.8 ms in busy ones.
REFERENCE_MS = 2.0

#: Least time between two probes, in seconds (probes take 3-5% of a run).
PERIOD_S = 0.05

#: Probes whose median gives the host speed at one moment.
NEIGHBOURS = 15


def reference_task() -> int:
    """Fixed dictionary, tuple and integer work, 1.3-2.8 ms."""
    table = {}
    total = 0
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        total += len(table)
    return total


class SpeedProbe:
    """Reference-task timings, and the time scale they give."""

    def __init__(self):
        self.times: List[float] = []      # probe midpoints (perf_counter)
        self.durations: List[float] = []  # seconds
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time the reference task if :data:`PERIOD_S` has passed since
        the last probe, or if *force*."""
        if not force and time.perf_counter() - self._last < PERIOD_S:
            return
        started = time.perf_counter()
        reference_task()
        ended = time.perf_counter()
        self.times.append((started + ended) / 2)
        self.durations.append(ended - started)
        self._last = ended

    def scale(self, moment: float) -> float:
        """Factor taking a time measured at *moment* to the reference
        speed: :data:`REFERENCE_MS` over the median reference time of the
        :data:`NEIGHBOURS` probes nearest *moment*."""
        times, count = self.times, len(self.times)
        if not count:
            raise RuntimeError("no reference probe was taken")
        low = high = bisect.bisect_left(times, moment)
        while high - low < min(NEIGHBOURS, count):
            if high == count or (low > 0 and
                                 moment - times[low - 1] <= times[high] - moment):
                low -= 1
            else:
                high += 1
        return REFERENCE_MS / 1e3 / statistics.median(self.durations[low:high])

    def median_ms(self) -> float:
        """The reference task's median time over every probe, in ms."""
        return statistics.median(self.durations) * 1e3 if self.durations else 0.0
