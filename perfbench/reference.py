"""A fixed piece of pure-Python work that paces the host.

On a shared host the same single-threaded call runs up to half again as
long from one minute to the next, and a run of the benchmark is too short
to average that out.  So every run also times this loop, beside the work
it measures (in each workload repetition, and after each bare start-up),
and run.py reports times at reference speed: measured seconds scaled by
REFERENCE_S over the loop's median time in the same run.  A host that is
slow for a minute slows both, and the ratio stays.  The loop is integer
arithmetic only: it allocates no object the garbage collector tracks, so
what the program leaves in memory does not change its time.  It is part
of the benchmark, not of fracture, so no change to fracture moves it.
"""

from __future__ import annotations

import time

# the loop's typical time on the 2-core VM the benchmark was written on
REFERENCE_S = 0.040
PASSES = 3  # passes timed at each end of a workload repetition


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start
