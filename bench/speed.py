"""Correction of measured times for the machine's momentary speed.

On a shared host the same op can take 1.5-2.5x longer while other tenants
load the core, for seconds or minutes at a time.  A fixed stdlib reference
kernel, timed right before and right after each measured interval, tracks
that slowdown (its time correlates 0.65-0.95 with an op's time).
Every reported time is scaled by ``NOMINAL_NS / reference time around the
interval``: the time the interval takes on a machine where the kernel takes
``NOMINAL_NS``.  The kernel never touches the code under test, so a change
to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction


def _kernel() -> int:
    """About a millisecond of Fraction arithmetic, tuple and dict building:
    the same kinds of work as the package's exact bookkeeping.  Returns the
    kernel's time in ns."""
    t0 = time.perf_counter_ns()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        table[(i, i % 7)] = tuple(range(i % 5))
    return time.perf_counter_ns() - t0


# The kernel's time on an idle core of the machine the baseline was
# recorded on (2 vCPU x86-64, CPython 3.11), so corrected times there read
# as uncontended milliseconds.
NOMINAL_NS = 820_000


def kernel_ns() -> int:
    """The reference kernel's current time: the least of three back-to-back
    runs, which drops a run that an interrupt happened to hit."""
    return min(_kernel(), _kernel(), _kernel())


def corrected(times_ns: list[int], refs_ns: list[float]) -> list[float]:
    """Scale each time by NOMINAL_NS / (its reference time)."""
    return [t * NOMINAL_NS / r for t, r in zip(times_ns, refs_ns)]
