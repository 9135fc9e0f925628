"""Host-speed reference for the end-to-end times.

The host this benchmark was built on shares its cores with other
machines.  A fixed pure-Python loop there runs up to 1.5x faster or
slower from one second to the next, in spells that can outlast a whole
run, so raw op times spread by 20-30% between runs of the same code.
Averaging inside a run cannot remove a spell that covers the run.

So the benchmark samples the host's speed while it runs: after a timed
call, outside the timed region and at most every ``INTERVAL`` seconds,
it times a fixed reference kernel.  Each timed call is then reported at
the speed of a reference host, one that runs the kernel in
``REFERENCE_SECONDS``: its raw time is scaled by ``REFERENCE_SECONDS``
over the median kernel time of the samples nearest to the call.  The
kernel is plain interpreter work (calls, attribute and dict access,
integer arithmetic) that allocates nothing the garbage collector tracks,
so it slows down with the host and not with the program's heap.  Raw
times are printed beside the adjusted ones.
"""

from __future__ import annotations

import bisect
import statistics

#: Seconds between kernel samples, at most.
INTERVAL = 0.01
#: Kernel time on the reference host: roughly the median on the 2-vCPU
#: host the bounds in BENCHMARK.json were set on.
REFERENCE_SECONDS = 6.0e-05
#: Samples on each side of a call that its speed estimate uses.
NEIGHBOURS = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def step(self, k: int) -> int:
        return (self.x * k + self.y) & 0xFFFF


_TABLE = {key: key * 7 + 1 for key in range(64)}
_POINT = _Point(3, 5)


def kernel() -> int:
    """The fixed reference work (about 60 µs on the reference host)."""
    table = _TABLE
    point = _POINT
    total = 0
    for i in range(250):
        total = (total + point.step(table[i & 63])) & 0xFFFFF
    return total


class HostSpeed:
    """Kernel samples over a run, and the speed factor at any instant."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless the last sample is recent."""
        clock = self.clock
        start = clock()
        if not force and start < self._due:
            return
        kernel()
        end = clock()
        self.stamps.append(start)
        self.seconds.append(end - start)
        self._due = end + INTERVAL

    def factor(self, at: float) -> float:
        """Reference speed over host speed around instant ``at``."""
        index = bisect.bisect_left(self.stamps, at)
        window = self.seconds[max(0, index - NEIGHBOURS): index + NEIGHBOURS + 1]
        return REFERENCE_SECONDS / statistics.median(window)
