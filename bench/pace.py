"""The machine's pace, measured with a fixed reference kernel.

On a shared host the same pure-Python loop runs up to 1.6 times as long in
some stretches, which last from milliseconds to minutes, and the program's
verdicts slow down with it. The benchmark therefore runs a fixed kernel between chunks of work
and rescales each chunk's times to the reference pace: the pace at which one
calibration pass takes ``REFERENCE_S`` seconds. A chunk's factor uses the
passes just before and just after it.

The kernel is Kuhn's augmenting-path matching on a fixed random bipartite
graph: the same dictionaries, sets and recursive calls that rainbowkit's
augmentation spends its time in, but code of the benchmark's own, so no
change to the program moves it.
"""

from __future__ import annotations

import random
from time import perf_counter

SIDE = 40  # vertices a side of the kernel's graph
DEGREE = 4
KERNELS_PER_PASS = 6  # about 0.4 ms at the reference pace
REFERENCE_S = 0.0004  # seconds one calibration pass takes at the reference pace

_rng = random.Random(20151118)
_ADJ = tuple(tuple(_rng.sample(range(SIDE), DEGREE)) for _ in range(SIDE))


def _augment(u: int, match: dict, seen: set) -> bool:
    for v in _ADJ[u]:
        if v not in seen:
            seen.add(v)
            if v not in match or _augment(match[v], match, seen):
                match[v] = u
                return True
    return False


def kernel() -> int:
    """A maximum matching of the fixed graph; returns its size."""
    match: dict = {}
    for u in range(SIDE):
        _augment(u, match, set())
    return len(match)


def calibrate() -> float:
    """Seconds one calibration pass takes now."""
    start = perf_counter()
    for _ in range(KERNELS_PER_PASS):
        kernel()
    return perf_counter() - start


class Pace:
    """Factors that rescale measured times to the reference pace."""

    def __init__(self) -> None:
        calibrate()  # warm the kernel's code before the first pass that counts
        self.previous = calibrate()

    def factor(self) -> float:
        """Calibrate again and return the factor for the work done since the
        previous pass: the reference time over the mean of the two passes."""
        current = calibrate()
        scale = 2 * REFERENCE_S / (self.previous + current)
        self.previous = current
        return scale
