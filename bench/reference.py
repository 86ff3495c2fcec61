"""Reference work that measures how fast the machine runs at the moment.

On a shared host the speed of one vCPU drifts by a quarter and more over
minutes (other tenants on the same cores and caches), and the drift moves
every timing of a run together. The benchmark therefore interleaves short
slices of fixed reference work with the commands it times and reports
times scaled to a machine on which one slice takes ``NOMINAL_SLICE_S``:

    scaled time = measured time * NOMINAL_SLICE_S / mean slice time nearby

A change to geominar moves the measured time and not the slices, so it
moves the scaled time by the same factor; a slow stretch of the host moves
both, and cancels. The slice is what the program's hot loops are made of:
interpreted Python with int and float arithmetic, dict updates, and
element reads and writes of a numpy array. It uses no numpy module that
``derive`` does not load (numpy.random is one), so it adds nothing to the
peak memory of a run.
"""
from __future__ import annotations

import time

import numpy as np

SLICE_STEPS = 10000
# The median slice time on the machine the baseline in README.md was taken
# on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6). It only sets
# the scale: scaled values read about as raw values on that machine.
NOMINAL_SLICE_S = 0.008
# reference time kept at this share of the command time it is interleaved with
SHARE = 0.1


def run_slice() -> float:
    """Run one slice of the reference work; return its wall time in seconds."""
    t0 = time.perf_counter()
    counts = np.zeros(64, dtype=np.int64)
    acc: dict[int, int] = {}
    x = 12345
    total = 0.0
    for _ in range(SLICE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x >> 25
        counts[k] += 1
        acc[k] = acc.get(k, 0) + 1
        total += x * 0.5
    if int(counts.sum()) != SLICE_STEPS or acc != dict(enumerate(counts.tolist())) \
            or total <= 0.0:
        raise RuntimeError("reference slice computed a wrong result")
    return time.perf_counter() - t0


class Meter:
    """Keeps the reference time at ``SHARE`` of the timed work it follows."""

    def __init__(self):
        self.work_s = 0.0
        self.slices: list[float] = []

    @property
    def ref_s(self) -> float:
        return sum(self.slices)

    def after(self, work_s: float) -> None:
        """Record ``work_s`` of timed work, then run slices until the share holds."""
        self.work_s += work_s
        while self.ref_s < SHARE * self.work_s:
            self.slices.append(run_slice())

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the nominal machine speed."""
        return NOMINAL_SLICE_S * len(self.slices) / self.ref_s
