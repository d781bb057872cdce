"""The machine-speed reference that every timed call is scaled by.

Other tenants of a shared machine slow it down by up to half for tens of
seconds at a time, so two sets of runs of the same code can differ by more
than any useful bound.  The benchmark therefore times this fixed
pure-Python kernel between its timed calls, and scales its figures to a
machine on which the kernel takes :data:`NOMINAL_S`.  A figure is the
fastest of the timed calls, so it is scaled by the fastest kernel run of
the same run: both come from the machine's fastest moment.
The kernel shares no code with vknot, so no change to vknot can move it.
Never change the kernel: every scaled figure would move with it.
"""

from __future__ import annotations

import time

# Kernel time of the nominal machine the scaled figures refer to.
NOMINAL_S = 0.01


def kernel():
    """Integer, dict, sort and Bareiss traffic like vknot's inner loops."""
    x = 12345
    counts = {}
    keys = []
    for i in range(9000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        counts[x % 211] = counts.get(x % 211, 0) + (x >> 40) * i
        keys.append((x % 1009, x))
    keys.sort()
    # A diagonally dominant matrix has nonzero leading minors, so every
    # Bareiss pivot is nonzero.
    n = 30
    m = [[(i * 31 + j * 17 + (i ^ j)) % 19 - 9 + (200 if i == j else 0) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1] + len(counts) + keys[0][1]


def seconds():
    """Wall time of one run of :func:`kernel` now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(refs):
    """Factor that turns a fastest time on this machine into one on the
    nominal machine, from the kernel times ``refs`` taken alongside."""
    return NOMINAL_S / min(refs)
