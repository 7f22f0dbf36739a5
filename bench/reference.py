"""A fixed reference kernel: how fast the processor runs right now.

The benchmark's host is a few virtual CPUs of a shared machine, and their
speed changes from one second to the next by up to half, depending on what
else runs on the host.  Operation times alone therefore spread far more
between runs than any change to the code would move them.

The reference kernel is a small, fixed piece of pure Python that does the
same kinds of work the package does: XOR elimination on integer bit rows,
and building, sorting and hashing small vertex tuples.  It uses nothing
from ``conjtop``, so no change to the package can move it.  The benchmark
runs it right before and right after every timed operation and scales the
operation's time by ``REFERENCE_S / reference time``: the operation's time
on a processor on which the kernel takes exactly ``REFERENCE_S``.  A slow
second stretches both and cancels out; a faster package shrinks only the
operation.
"""

from __future__ import annotations

import gc
import random
import time

# The kernel's time on a 2-vCPU Xeon VM with Python 3.11 in its usual state.
# Only the ratio of two runs of the benchmark matters, so this constant
# must never change: it fixes the unit of every normalised time.
REFERENCE_S = 0.015

_rng = random.Random(20111)
_BITS = 224
_ROWS = tuple(_rng.getrandbits(_BITS) for _ in range(_BITS))
_TRIPLES = tuple(tuple(_rng.randrange(300) for _ in range(3)) for _ in range(1500))


def _eliminate():
    rows = list(_ROWS)
    rank = 0
    for c in range(_BITS):
        bit = 1 << c
        for j in range(rank, _BITS):
            if rows[j] & bit:
                rows[rank], rows[j] = rows[j], rows[rank]
                break
        else:
            continue
        pivot = rows[rank]
        for j in range(_BITS):
            if j != rank and rows[j] & bit:
                rows[j] ^= pivot
        rank += 1
    return rank


def _tuples():
    seen = {}
    for triple in _TRIPLES:
        s = tuple(sorted(triple))
        for face in (s, (s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
            seen[face] = seen.get(face, 0) + 1
    return len(sorted(seen))


def reference_seconds() -> float:
    """Wall time of one pass of the kernel, with the collector paused so
    that the heap the workload holds does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _eliminate()
        _tuples()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls in reference seconds.

    Each call is bracketed by a kernel pass; its scale is REFERENCE_S over
    the mean of the passes before and after.  The pass after one call is
    the pass before the next.
    """

    def __init__(self):
        self.before = reference_seconds()
        self.scales = []

    def time(self, fn):
        """Returns (fn's result, wall seconds, reference seconds)."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = reference_seconds()
        scale = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        self.scales.append(scale)
        return out, wall, wall * scale
