"""A fixed pure-Python loop that tells how fast the core is running right now.

On a shared machine the same work can take twice as long from one minute to
the next, because other tenants contend for the core and its caches. A run
interleaves short slices of this loop with its requests and scales every
timing by how long the nearby slices took, so a slow spell of the machine
moves the slices and the requests together and cancels out. The loop uses
the same kinds of work as the package (short strings, dicts, integers) and
none of its code, so no change to the package can move it.

The package does not change pace as much as the loop does: on the 2-vCPU
development machine, between its quiet and its contended spells, the loop's
slices took 2.0-2.2 times longer while corpus and x0_ladder requests and
set-up took 1.5-1.7 times longer. The scale is therefore the slice ratio
raised to PACE_EXPONENT, the ratio of those logarithms.

A scaled time reads as the time the work would take if every slice took
SLICE_S seconds, a slice's usual duration on that machine.
"""

from __future__ import annotations

import gc
import statistics
import time

SLICE_S = 0.002
PACE_EXPONENT = 0.6
_ITERATIONS = 2000
WINDOW = 5  # slices on each side of a request that set its scale


def time_slice() -> float:
    """Wall time of one slice, with the garbage collector held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict[str, int] = {}
        for i in range(_ITERATIONS):
            s = format(i * 2654435761 % 1000003, "b")
            seen[s] = seen.get(s[:-1], 0) + len(s)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(slices: list[float]) -> float:
    """The factor that brings work timed among these slices to SLICE_S pace."""
    return (SLICE_S / statistics.median(slices)) ** PACE_EXPONENT


def scales(slices: list[float]) -> list[float]:
    """Scale factor for the request between slices i and i + 1, for each i.

    Each comes from the slices within WINDOW requests of it, so one slice
    caught by an interrupt barely moves it.
    """
    return [scale(slices[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(slices) - 1)]
