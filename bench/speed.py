"""How fast the machine runs Python right now, from a fixed probe loop.

The benchmark's host shares its cores with other work, and how much of a core
a run gets changes within seconds: the same request list took anywhere from
1.0x to 1.7x its best time from one 30 s run to the next.  CPU time moves with
wall time, so this is contention for the core, not waiting to be scheduled.

So the worker times a fixed pure-Python loop (the probe) before the first
request of a pass and after each request (longer after a long one), and
scales each request's time by the probes on either side of it: a normalised time is the time the request
would take if the probe took REFERENCE_S.  A change to the library moves the
request times and not the probe, so it shows in full; a busier machine
stretches both and cancels out.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# About the probe's time on the reference machine (README "Machine") when
# nothing else ran on its core; it sets the scale of normalised times.
REFERENCE_S = 300e-6
PROBES = 3
# Probing after a long request takes about this share of its time, so that
# its speed rests on more samples: at most 30 runs, 9 ms.
SHARE = 0.03


def _loop() -> None:
    # A little of what the workloads do: dict updates, a sort, big-integer
    # arithmetic (series coefficients are big integers and fractions).
    table: dict = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i
    ordered = sorted((i * 7919) % 1009 for i in range(750))
    big = 3**200
    for i in range(60):
        big = (big * 12345 + ordered[i]) % 7**150


def probe(runs: int = PROBES) -> list:
    """The times of `runs` runs of the probe loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(runs):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


def runs_after(seconds: float) -> int:
    """How many probe runs follow a request that took `seconds`."""
    return max(PROBES, min(30, round(seconds * SHARE / REFERENCE_S)))


def scale(times: list) -> float:
    """The factor from seconds measured while the probe took `times` to normalised seconds.

    A request's time is its work over the mean rate the core gave it, so the
    probes' rates (1 / time) are averaged: their harmonic mean, not the mean
    of their times, which a few slow probes would pull away from the rate.
    """
    return REFERENCE_S / statistics.harmonic_mean(times)
