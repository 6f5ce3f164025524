"""Calibration loops: fixed work that uses no overlap_lab code.

The shared 2-vCPU host the benchmark was tuned on changes speed by up to
1.8x, for stretches from seconds to minutes.  A worker times its workload's
calibration loops after set-up and after every op, and run.py divides each
op's time by the loop times taken next to it, so that the drift cancels.

Host contention slows different kinds of Python code by different amounts,
so each workload's loops mirror what its hot path does: ``Fraction``
arithmetic for the solvers, big-integer bitset expansion for the downset
enumeration, and both for the harness (colex ranking, sampling, overlap
checks).  On the tuning host, 25-second windows normalised this way
spread 0.01-0.03 around their median, against 0.3-0.4 for raw wall time.

Garbage collection is off inside a loop, so its cost does not depend on how
much the program keeps on the heap.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# the loop's time at full speed on the tuning host (Intel Xeon, 2 vCPUs,
# Python 3.11); normalised times are given in seconds at that speed
REFERENCE_S = {"fraction": 0.004, "bitset": 0.0031}
LOOPS_BY_WORKLOAD = {
    "oracle": ("fraction",),
    "shifted": ("fraction",),
    "downsets": ("bitset",),
    "harness": ("fraction", "bitset"),
}
# a poset of twelve chains over 91 ranks, as in family.downset_bitsets
_PREDS = [1 << (r - 12) if r >= 12 else 0 for r in range(91)]


def _fraction_loop() -> None:
    acc = best = Fraction(0)
    bins: dict[int, int] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        if acc > best:
            best = acc
        m = (i * 2654435761) & 0xFFFF
        bins[m & 255] = bins.get(m & 255, 0) + bin(m).count("1")


def _bitset_loop() -> None:
    level = [0]
    for _ in range(5):
        nxt = set()
        for d in level:
            for r in range(91):
                bit = 1 << r
                if not (d & bit) and not (_PREDS[r] & ~d):
                    nxt.add(d | bit)
        level = sorted(nxt)[:90]


_LOOPS = {"fraction": _fraction_loop, "bitset": _bitset_loop}


def calibrate(workload: str) -> float:
    """Seconds taken by the workload's calibration loops, run once each."""
    loops = [_LOOPS[name] for name in LOOPS_BY_WORKLOAD[workload]]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for loop in loops:
            loop()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_s(workload: str) -> float:
    """Time of the workload's calibration loops at full speed on the tuning host."""
    return sum(REFERENCE_S[name] for name in LOOPS_BY_WORKLOAD[workload])
