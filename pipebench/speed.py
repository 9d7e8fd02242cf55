"""Correction of measured times for the host's changing speed.

A shared host does not run at one speed.  On the 2-vCPU reference VM the
time of a fixed pure-Python loop switched between two levels, about 1.45
times apart, in stretches of a few seconds to 40 s, on both CPUs at once;
the pipeline ops slowed by 1.3 to 1.65 times in the slow stretches.  A run
of a minute catches a different mix of those stretches every time, so raw
times of one commit spread by more than a regression bound from run to run.

So every timed interval is bracketed by ``probe()``: the time of a fixed
loop that calls no msumma code.  ``corrected`` scales the interval's raw
time by ``PROBE_REF_S / probe_s``, where ``probe_s`` is the probe time
around the interval: the result is the time the interval would have taken
on a host where the probe takes ``PROBE_REF_S``, about the reference VM's
fast speed.  The probe runs the same instructions for every commit, so a
change to the library moves the corrected times as it moves the raw ones.
The correction is not exact, because each op slows by its own factor.
"""
from __future__ import annotations

import statistics
import time

clock = time.perf_counter
PROBE_ITERATIONS = 60_000
PROBE_REF_S = 3.75e-3  # the probe at the reference VM's fast speed
PROBES_PER_SETUP = 3


def probe() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = clock()
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return clock() - t0


def probe_median(count: int = PROBES_PER_SETUP) -> float:
    """Median of a few probes in a row."""
    return statistics.median(probe() for _ in range(count))


def corrected(raw_s: float, probe_s: float) -> float:
    """`raw_s` rescaled from the speed the probe saw to the reference."""
    return raw_s * PROBE_REF_S / probe_s
