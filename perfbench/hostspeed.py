"""The host's speed, probed during a run, and time in reference seconds.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 1.7x within a minute and by a few percent from one tenth of a
second to the next.  It is not steal time: process CPU time stretches
with wall time, so the same work takes longer in a slow stretch, and
every timing metric of a run follows the speed of the moment rather
than the program.

A :class:`HostSpeed` runs a fixed reference kernel, about a millisecond
of plain Python that shares no code with the program, every
``PROBE_EVERY_S`` of a measured phase.  The kernel's time against its
nominal time, :data:`NOMINAL_S`, gives the speed of the host around each
probe.  :meth:`HostSpeed.ref` maps a wall-clock instant to reference
seconds: wall time weighted by that speed, with the probes themselves
left out.  A reference second is a second of the host running the kernel
in :data:`NOMINAL_S`, so the timing metrics are what a run would show on
a host of constant speed.  A change to the program moves them in full;
a change in the host's speed does not.

The probes block the event loop for their millisecond; an operation in
flight across one sees that as added wall time, which the mapping takes
out again.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

_clock = time.perf_counter
#: Kernel time, in seconds, on a 2-vCPU Xeon at its typical speed.
NOMINAL_S = 1.0e-3
#: Loop iterations in one kernel run (about NOMINAL_S on that host).
KERNEL_ITERATIONS = 5000
#: Probe interval within a measured phase.  Short, to follow the host
#: under operations of a few milliseconds: at 0.1 s (and before the run
#: collected the set-up's garbage) the TCP p99 spreads were up to twice
#: as wide; on loopback 0.1 s made no difference.
PROBE_EVERY_S = 0.05
#: Probes on each side of a probe whose kernel times are pooled (their
#: median) for its speed.
SMOOTH = 2

_TABLE = {i: (i * 2654435761) % 1000003 for i in range(256)}


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """The reference work: dict lookups and integer arithmetic."""
    table = _TABLE
    total = 0
    for i in range(iterations):
        total = (total + table[i & 255] * i) % 1000003
    return total


class HostSpeed:
    """Probes of the host's speed over one phase, and the time they give."""

    def __init__(self) -> None:
        #: (start, end, cpu seconds) of every probe, in order.
        self.probes: List[Tuple[float, float, float]] = []
        self._frozen = False

    def probe(self) -> None:
        """Time one run of the reference kernel."""
        cpu = time.process_time()
        start = _clock()
        kernel()
        end = _clock()
        self.probes.append((start, end, time.process_time() - cpu))
        self._frozen = False

    def maybe_probe(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if not self.probes or _clock() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def _freeze(self) -> None:
        if self._frozen:
            return
        if len(self.probes) < 2:
            raise ValueError("a phase needs a probe at each end")
        times = [end - start for start, end, _ in self.probes]
        self._speed = [
            NOMINAL_S / statistics.median(times[max(0, k - SMOOTH):k + SMOOTH + 1])
            for k in range(len(times))
        ]
        self._starts = [start for start, _, _ in self.probes]
        self._ends = [end for _, end, _ in self.probes]
        self._cum = [0.0]
        for k in range(len(self.probes) - 1):
            gap = self._starts[k + 1] - self._ends[k]
            self._cum.append(self._cum[-1] + gap * self._between(k))
        self._frozen = True

    def _between(self, k: int) -> float:
        return (self._speed[k] + self._speed[k + 1]) / 2

    def ref(self, instant: float) -> float:
        """Reference seconds from the end of the first probe to ``instant``.

        Between two probes wall time counts at the mean of their speeds;
        time inside a probe does not count.  Before the first probe and
        after the last, the nearest probe's speed applies.
        """
        self._freeze()
        k = bisect.bisect_right(self._ends, instant) - 1
        if k < 0:
            return (instant - self._ends[0]) * self._speed[0]
        if k == len(self._ends) - 1:
            return self._cum[k] + (instant - self._ends[k]) * self._speed[k]
        into = min(instant, self._starts[k + 1]) - self._ends[k]
        return self._cum[k] + into * self._between(k)

    def speed_over(self, opens: float, closes: float) -> float:
        """Mean speed between two instants, probes left out."""
        wall = closes - opens - self.probe_s(opens, closes)
        return (self.ref(closes) - self.ref(opens)) / wall

    def probe_s(self, opens: float, closes: float) -> float:
        """Wall seconds spent probing between two instants."""
        return sum(
            min(end, closes) - max(start, opens)
            for start, end, _ in self.probes
            if start < closes and end > opens
        )

    def median_speed(self) -> float:
        """Speed from the median kernel time of every probe so far."""
        times = [end - start for start, end, _ in self.probes]
        return NOMINAL_S / statistics.median(times)

    def probe_cpu_s(self, opens: float, closes: float) -> float:
        """CPU seconds of the probes that started between two instants."""
        return sum(
            cpu for start, _, cpu in self.probes if opens <= start < closes
        )

