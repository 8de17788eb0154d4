"""Operation timing scaled to the host's quiet speed.

The shared host this benchmark was built on (a 2-vCPU Xeon VM) has slow
phases: for seconds to minutes, all code runs 1.5 to 2 times slower on
both vCPUs, with no steal time showing in /proc/stat. A 25 s run can sit
wholly inside one, so raw times moved by half between runs of identical
work.

So every ``PROBE_EVERY_NS`` of measured operation time, the timer runs a
fixed probe, about a third of a millisecond of interpreter and small-numpy
work of the kind the simulator does. Each operation time is multiplied by
``PROBE_REF_NS / probe time`` from the latest probe. ``PROBE_REF_NS`` is the
probe's time in a quiet phase on that host, so a time reads as host time
at quiet speed. On other hardware it is a fixed rescaling that leaves
comparisons between commits intact. The probe does not call the simulator,
so a change to the simulator does not change the scale.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_NS = 330_000
PROBE_EVERY_NS = 50_000_000
PROBE_REPEATS = 3

clock = time.perf_counter_ns


def _probe_once(cells, sink) -> int:
    t0 = clock()
    x = 0x9E3779B97F4A7C15
    for i in range(64):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        bits = np.unpackbits(np.frombuffer(x.to_bytes(8, "little"),
                                           dtype=np.uint8), bitorder="little")
        old = cells[i:i + 64]
        sink[i & 15] = int(np.count_nonzero(old != bits))
        cells[i:i + 64] = bits
        sink[16 + (i & 7)] = int.from_bytes(
            np.packbits(old, bitorder="little").tobytes(), "little")
    return clock() - t0


def speed_factor() -> float:
    """PROBE_REF_NS over the fastest of a few probe runs now."""
    cells = np.zeros(128, dtype=np.uint8)
    sink = [0] * 24
    return PROBE_REF_NS / min(_probe_once(cells, sink)
                              for _ in range(PROBE_REPEATS))


class OpTimer:
    """Times tree calls from outside, in nanoseconds at quiet host speed.

    Usage: ``t0 = timer.start(); <calls>; timer.stop(t0, samples)``.
    """

    def __init__(self):
        self.factor = speed_factor()
        self._since = 0

    def start(self) -> int:
        return clock()

    def stop(self, t0: int, samples: list) -> None:
        dt = clock() - t0
        samples.append(dt * self.factor)
        self._since += dt
        if self._since >= PROBE_EVERY_NS:
            self.factor = speed_factor()
            self._since = 0
