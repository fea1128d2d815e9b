"""Host speed probe: a fixed pure-Python kernel timed next to every op.

The benchmark runs on a few cores of a shared host whose speed moves by
up to a factor of two within minutes, for every process alike (other
tenants, clock changes).  No wall-time statistic of a 30 s run is steady
under that, so every time the benchmark reports is normalized: an op's
wall time is divided by the kernel time measured just before and just
after it, then multiplied by ``REF_PROBE_S``, the kernel time of a
reference host.  The result reads in seconds, as on that reference
host.  A change to ``ndscope`` moves the op time and not the kernel, so
it moves every normalized time by the same share as the wall time; a
change in host speed moves both and cancels.

The kernel is fraction-free (Bareiss) elimination of a fixed integer
matrix: Python big-int multiply, exact divide and list indexing, the
same interpreter work as ndscope's Fraction elimination.  It imports
nothing, so probing before set-up does not change what set-up imports.
"""

from __future__ import annotations

import statistics
import time

# probe time on the reference host (2-vCPU Intel Xeon sandbox at 2.1 GHz,
# Python 3.11) in its faster state; a fixed unit, never measured at run
# time
REF_PROBE_S = 0.0022
PROBE_REPEATS = 5
_N = 32
_MATRIX = [[(7 * i + 13 * j + i * j) % 19 - 9 + (20 if i == j else 0)
            for j in range(_N)] for i in range(_N)]


def kernel() -> int:
    """Determinant of the fixed matrix by Bareiss elimination."""
    a = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        ak = a[k]
        pivot = ak[k]
        for i in range(k + 1, _N):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, _N):
                ai[j] = (ai[j] * pivot - f * ak[j]) // prev
        prev = pivot
    return a[-1][-1]


EXPECTED = kernel()


def probe() -> float:
    """Median of a few kernel timings: the host speed right now.

    The median, not the minimum: an op runs at the host's average speed
    over its duration, not at its best moment.
    """
    times = []
    clock = time.perf_counter
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        det = kernel()
        times.append(clock() - t0)
    if det != EXPECTED:
        raise RuntimeError("host speed kernel gave a wrong result")
    return statistics.median(times)
