"""The reference kernel is fixed, and verdict times are rescaled chunk by chunk.

Run from the root of a checkout: ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import pace  # noqa: E402
import run  # noqa: E402
from workloads import Case  # noqa: E402


def test_kernel_does_the_same_work_every_time():
    sizes = {pace.kernel() for _ in range(3)}
    assert len(sizes) == 1
    assert 0 < sizes.pop() <= pace.SIDE


def test_factor_compares_the_passes_around_the_work_with_the_reference(monkeypatch):
    clock = pace.Pace()
    clock.previous = pace.REFERENCE_S
    monkeypatch.setattr(pace, "calibrate", lambda: pace.REFERENCE_S * 3)
    assert clock.factor() == 0.5
    assert clock.factor() == 1 / 3


class _Halving:
    """A pace that always reports the machine running at half speed."""

    def __init__(self):
        self.passes = 0

    def factor(self):
        self.passes += 1
        return 0.5


def test_tally_rescales_each_chunk_once():
    clock = _Halving()
    tally = run.Tally(clock)
    cases = [Case(lambda: None, lambda out: None)] * 3
    tally.round(cases)
    assert tally.pending and not tally.times  # a chunk waits for CHUNK_S seconds
    tally.settle()
    assert clock.passes == 1 and len(tally.times) == 3 and not tally.pending
    tally.settle()
    assert clock.passes == 1
