"""Host speed, measured next to every timing.

On a shared host the speed of the same code drifts by up to 2x over tens
of seconds, as neighbours come and go.  So the benchmark times a fixed
reference kernel right before and after each stretch it measures, and
scales every time by ``REFERENCE_NS`` over the kernel's time there.
Times then read as they would on a host where the kernel always takes
``REFERENCE_NS``: drift cancels, while a change to the program still
shows in full, because the kernel does not call it.  The kernel is the
kind of work the library does: Fraction arithmetic and small tuples.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: Nominal time of one reference() call; about its time on a 2-core x86 VM.
REFERENCE_NS = 1_000_000
#: Nominal time of a bare interpreter start, the reference of CLI processes.
PROCESS_NS = 50_000_000


def reference():
    x = Fraction(1, 3)
    kept = []
    for i in range(250):
        x = x * Fraction(3, 7) + Fraction(1, 5) if i % 3 else Fraction(2, 9)
        kept.append((x, i))
    return kept


def kernel_ns(repeats: int = 2):
    """Times of `repeats` reference() calls."""
    clock = time.perf_counter_ns
    out = []
    for _ in range(repeats):
        start = clock()
        reference()
        out.append(clock() - start)
    return out


def factor(times_ns) -> float:
    """Scale for times taken next to these reference times."""
    return REFERENCE_NS / statistics.median(times_ns)


def bare_process_ns(env, cwd) -> int:
    """Time of one `python -c pass` process."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
    return time.perf_counter_ns() - start
