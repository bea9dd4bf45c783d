"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import time


def seconds_since_start() -> float:
    """Seconds since this process started (``/proc/self/stat`` start time on
    the boot-time clock), so set-up time includes the interpreter's own
    start-up and imports."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def median(values: list[float]) -> float:
    return percentile(values, 0.5)
