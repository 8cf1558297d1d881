"""How fast the host runs right now, from a fixed piece of pure-Python work.

The host this benchmark was written on slows down by up to 2x for
stretches of seconds to minutes (see ``NOTES.md``), which moves every
wall-clock number by more than any bound a regression check could use.
The benchmark therefore times this kernel between requests, in the
process that times the requests, and scales each request's time by the
host's speed around it: times are reported at the speed at which the
kernel takes ``REFERENCE_S``.  The kernel shares no code with the program,
so a change to the program does not change it.
"""

from __future__ import annotations

import bisect
import re
import statistics
import time

#: Kernel time on the reference host in a quiet stretch.
REFERENCE_S = 0.0025

#: Least time between two kernel samples during a timed loop.
EVERY_S = 0.05

#: A request's slowdown is the median of this many samples on each side
#: of it, plus the one right after it.
REACH = 2

_TEXT = " ".join(f"<t{i} a='{i}'/>" for i in range(1500))
_TAG = re.compile(r"<(\w+) a='(\d+)'/>")


def kernel() -> float:
    """Seconds the fixed work takes now (integer loop plus regex scan)."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    found = {m.group(1): int(m.group(2)) for m in _TAG.finditer(_TEXT)}
    if len(found) != 1500 or total <= 0:
        raise AssertionError("calibration kernel computed a wrong result")
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the host ran over ``samples``."""
    return statistics.median(samples) / REFERENCE_S


def slowdowns(ends: list[float], samples: list[list[float]]) -> list[float]:
    """The slowdown around each request that ended at ``ends[i]``, from
    ``[loop time, kernel seconds]`` samples taken between requests."""
    stamps = [t for t, _ in samples]
    kernels = [k for _, k in samples]
    out = []
    for end in ends:
        after = bisect.bisect_left(stamps, end)
        low = max(0, min(after, len(kernels) - 1) - REACH)
        out.append(slowdown(kernels[low:after + REACH + 1]))
    return out


class Sampler:
    """Kernel samples taken when a timed loop starts and then at most every
    ``EVERY_S``, each stamped with the loop time it was taken at."""

    def __init__(self, started: float):
        self.started = started
        self.last = -EVERY_S
        self.samples: list[list[float]] = []
        self.maybe()

    def maybe(self) -> None:
        now = time.perf_counter() - self.started
        if now - self.last >= EVERY_S:
            self.samples.append([now, kernel()])
            self.last = now
