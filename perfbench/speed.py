"""A fixed pure-Python kernel that gauges how fast the machine runs right now.

On the shared hosts this benchmark is tuned on, a few milliseconds of
Python run either at full speed or nearly twice as slow, and the share of
slow stretches drifts over seconds to minutes; CPU time follows it as
closely as wall time does.  The worker times a few kernel runs between
items; run.py scales each item's CPU time by REFERENCE_NS over the mean
kernel run around it, so a time reads as it would at the speed where the
kernel takes REFERENCE_NS.  The kernel is the benchmark's own code
(reference.py) and calls nothing in cyconf, so no change to the program
moves it.

    python3 perfbench/speed.py      # print ten kernel runs, in ns
"""

from __future__ import annotations

from time import process_time_ns

import reference as ref

# CPU nanoseconds of one kernel() at full speed on a 2-vCPU Intel Xeon VM,
# so scaled times read as CPU times on that machine at full speed.
REFERENCE_NS = 2_500_000


def kernel() -> None:
    """About 2.5 ms of set, tuple and modular arithmetic, as cyconf does."""
    ref.slice_size(31, 3)
    ref.slice_size(15, 4)
    ref.levi_invariant((0, 1, 3), 31)
    ref.canonical((0, 1, 3, 9), 41)


def readings(runs: int) -> list[int]:
    """CPU nanoseconds of each of `runs` kernel runs."""
    out = []
    for _ in range(runs):
        c0 = process_time_ns()
        kernel()
        out.append(process_time_ns() - c0)
    return out


if __name__ == "__main__":
    kernel()
    print(*readings(10))
