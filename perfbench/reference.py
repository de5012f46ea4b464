"""Host-speed reference: a fixed piece of work timed between passes.

The host this benchmark runs on speeds up and slows down by as much as a
half, in phases of seconds to minutes, and a pure-Python loop and numpy
array work slow down together. run.py times this reference before the
first measurement and after every one, and scales each measurement to
the host speed at which the reference takes ``NOMINAL_S`` seconds. The
reference is part of the benchmark, not of bklab, so no change to the
program can move it.
"""

import time

import numpy as np

# Seconds the reference takes at the nominal host speed. Scaled timings
# are "seconds on a host where host_reference() returns NOMINAL_S".
NOMINAL_S = 0.05

_ARRAY = np.random.default_rng(0).random(1 << 18)


def reference_seconds():
    """Time a fixed mix of interpreter loop, sorting and numpy ufuncs."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    for _ in range(2):
        np.sort(_ARRAY)
    for _ in range(30):
        np.exp(_ARRAY).sum()
    return time.perf_counter() - start


def host_reference():
    """The shorter of two reference times: one sample now and then runs
    twice as long as its neighbours, which says nothing of the phase."""
    return min(reference_seconds(), reference_seconds())


class HostClock:
    """Scales each measurement by the reference times on either side of it.

    Call ``scale`` right after each measurement: the reference time taken
    before it (at construction or after the previous measurement) and a
    fresh one taken now are averaged.
    """

    def __init__(self):
        self.last = host_reference()
        self.refs = [self.last]

    def scale(self, seconds):
        before, self.last = self.last, host_reference()
        self.refs.append(self.last)
        return seconds * NOMINAL_S * 2.0 / (before + self.last)
