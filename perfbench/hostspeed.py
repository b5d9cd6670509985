"""Host-speed gauge: host CPU time scaled to a fixed reference speed.

On a shared host the same frame can take twice as long from one second
to the next, because the CPU the benchmark runs on is shared with
other work it cannot see.  Two measures take most of that out:

* Time is process or thread **CPU** time, not wall time, so other
  processes on the same machine (a pool worker, another benchmark) do
  not add their time slices to the measured call.
* Between measured calls the benchmark runs a fixed **reference
  kernel** (interpreter work, small and medium numpy operations, the
  mix the simulator runs) and scales each call's CPU time by how fast
  the kernel ran around it.  A host that is 40% slower for a few
  seconds makes both the call and the kernel 40% slower, and the
  scaled time stays put.

Reported times are *reference seconds*: the CPU seconds the call would
have taken on a host where one reference unit takes
:data:`REFERENCE_UNIT_S` of CPU.  A change to the simulator moves them
exactly as it moves raw CPU time, because the kernel never changes.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: CPU seconds of one reference unit on the reference host; reported
#: times are scaled to it.  Close to what one unit takes on a 2-core
#: Xeon VM, so reference seconds read like ordinary seconds there.
REFERENCE_UNIT_S = 0.004
#: Reference units run between two measured calls.
GAUGE_UNITS = 3

_rng = np.random.default_rng(20190622)
_TILES = _rng.random((64, 16, 16))
_LINE = _rng.random(40000)
_TABLE = {key: (key * 7) % 97 for key in range(512)}


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        self.x, self.y, self.z = x, y, z


def reference_unit() -> float:
    """One unit of the fixed reference work."""
    total = 0.0
    for point in [_Point(i, i + 1, i + 2) for i in range(400)]:
        total += _TABLE[(point.x * 3 + point.y) & 511] + point.z
    for index in range(96):
        tile = _TILES[index & 63] * 0.5 + 0.25
        mask = tile < 0.5
        total += float(np.count_nonzero(mask)) + float(tile[mask].sum())
        total += int(np.unique(np.nonzero(mask.ravel())[0] & 31).size)
    line = _LINE * 1.0001
    total += float(np.sort(line)[100]) + float(np.cumsum(line)[-1])
    return total


def sample(units: int = GAUGE_UNITS) -> float:
    """Thread CPU seconds per reference unit, measured now."""
    start = time.thread_time()
    for _ in range(units):
        reference_unit()
    return (time.thread_time() - start) / units


def scale(cpu_seconds: float, before: float, after: float) -> float:
    """``cpu_seconds`` in reference seconds, given the per-unit samples
    taken just before and just after the call."""
    return cpu_seconds * REFERENCE_UNIT_S / (0.5 * (before + after))


class Gauge:
    """Times calls in reference seconds, sampling the host's speed
    between consecutive calls (each sample serves the call before it
    and the call after it)."""

    def __init__(self, units: int = GAUGE_UNITS):
        self.units = units
        reference_unit()
        self.last = sample(units)

    def time(self, action: Callable[[], T]) -> Tuple[T, float]:
        """``action()`` and its CPU time in reference seconds."""
        start = time.thread_time()
        result = action()
        cpu = time.thread_time() - start
        after = sample(self.units)
        seconds = scale(cpu, self.last, after)
        self.last = after
        return result, seconds
