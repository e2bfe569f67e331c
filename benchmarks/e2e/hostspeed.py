"""A clock that reads host seconds rescaled to a reference host speed.

On a shared host the same trial can take twice as long in one minute as
in the next: a neighbour's load slows every instruction, and CPU time
slows with it. No choice of workload or statistic inside one run removes
a slowdown that lasts the whole run. :class:`ReferenceClock` measures it
instead and takes it out.

While the clock runs, a ``SIGPROF`` timer interrupts the process every
``INTERVAL_S`` seconds of CPU time, and the handler times :func:`probe`,
a fixed piece of work shaped like the simulator's (slotted objects, dict
lookups, a heap, a generator, small numpy operations, many short-lived
allocations). The clock
advances by host seconds times ``REFERENCE_PROBE_S / p``, where ``p`` is
the median of the last ``WINDOW`` probe times: on a host where the probe
takes ``REFERENCE_PROBE_S`` (the baseline host when it is quiet) a
reference second is a host second. The handler's own time is left out.

The probe is frozen benchmark code, so a change that speeds up the
simulator does not speed it up: the rescaled time falls. The probe
touches no simulator state and draws no random numbers, so it cannot
change a trial's outcome (the pinned digests check that).
"""

from __future__ import annotations

import heapq
import signal
import statistics
from collections import deque
from time import perf_counter

#: Median probe time on the baseline host when quiet (seconds).
REFERENCE_PROBE_S = 0.005
#: CPU seconds between probes.
INTERVAL_S = 0.1
#: Probe times the current speed is the median of.
WINDOW = 5


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.next = None


def _ticks(n: int):
    for i in range(n):
        yield i


def probe(rounds: int = 1500) -> float:
    """A fixed piece of interpreter-, allocation- and numpy-bound work;
    returns a checksum so that none of it can be skipped."""
    import numpy as np  # not at module import: run.py caps numpy's threads first

    table: dict[int, _Node] = {}
    heap: list[tuple[float, int]] = []
    column = np.zeros(32)
    total = 0.0
    for i in _ticks(rounds):
        node = _Node(i, i * 0.5)
        node.next = table.get((i * 31) % 257)
        table[i % 257] = node
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.25, i))
        if len(heap) > 48:
            total += heapq.heappop(heap)[0]
        if i % 8 == 0:
            column[i % 32] += node.value
            total += float(column[column > 1.0].sum())
    # Many short-lived objects, as building a cluster makes: a probe of
    # interpreter work alone slows less than the simulator on a busy host.
    nodes = [_Node(i, [i]) for i in range(3 * rounds)]
    for node in nodes:
        node.next = {"key": node.key, "peers": node.value}
    index = {node.key: node for node in nodes}
    return total + len(index)


class ReferenceClock:
    """Reference seconds; see the module docstring.

    Call :meth:`start` before timing and :meth:`stop` after. A clock
    that is not running reads plain host seconds (``perf_counter``).
    """

    def __init__(self) -> None:
        self.running = False
        self.samples: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._scale = 1.0
        self._busy = False
        self._last = perf_counter()
        self._reading = 0.0
        self._previous = None

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        self._last = perf_counter()
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.running = False

    def __call__(self) -> float:
        if not self.running:
            return perf_counter()
        self._busy = True  # a probe now would land between the two reads
        try:
            now = perf_counter()
            self._reading += (now - self._last) * self._scale
            self._last = now
            return self._reading
        finally:
            self._busy = False

    def _sample(self) -> None:
        t0 = perf_counter()
        probe()
        took = perf_counter() - t0
        self.samples.append(took)
        self._recent.append(took)
        self._scale = REFERENCE_PROBE_S / statistics.median(self._recent)

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._reading += (perf_counter() - self._last) * self._scale
            self._sample()
        finally:
            self._last = perf_counter()
            self._busy = False
