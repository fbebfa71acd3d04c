"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the same code runs up to a quarter slower or faster from
one minute to the next (CPU time moves with wall time, so it is the speed
of the core, not time spent descheduled).  The benchmark runs this task
between keys and scales every time it reports by REF_NOMINAL_S over the
task's measured time, so a figure reads as seconds on a machine that runs
the task in REF_NOMINAL_S.  The task uses only Python and numpy, never
combgen, so a change to combgen cannot move it.  It mixes a pure-Python
loop that steps an LFSR-like residue and stores it into a numpy array (as
in building residue tables) with numpy passes that stream an 8 MB array
through memory (as in building columns, accumulating and the Walsh
transform); of the candidates tried, this mix tracked the drift of all
three workloads best.  The task allocates nothing: its arrays are
allocated once, before set-up, so its time does not depend on what the
allocator holds after an attack, and they add about 8 MB to every
workload's peak memory alike.
"""

from __future__ import annotations

import time

import numpy as np

# About the task's median time on a 2-vCPU Xeon VM at 2.0 GHz; it sets
# the scale of the reported times and is not a limit.
REF_NOMINAL_S = 0.025

_LOOP_N = 40_000
_ARRAY_BITS = 20


def _work(a, out):
    r, top = 1, 1 << 20
    for i in range(out.size):
        r <<= 1
        if r & top:
            r ^= top | 0b1001
        out[i] = r
    for _ in range(2):
        a *= 3
        a += 1
        a &= 0xFFFFF
        np.cumsum(a, out=a)
        a &= 0xFFFF
    # two butterfly rounds of a Walsh transform, at the widest strides,
    # in place: (x, y) -> (x + y, (x + y) - 2y)
    for h in (1 << (_ARRAY_BITS - 1), 1 << (_ARRAY_BITS - 2)):
        v = a.reshape(-1, 2, h)
        v[:, 0, :] += v[:, 1, :]
        v[:, 1, :] *= -2
        v[:, 1, :] += v[:, 0, :]
    return int(a[-1])


class Reference:
    def __init__(self):
        self._array = np.arange(1 << _ARRAY_BITS, dtype=np.int64)
        self._out = np.empty(_LOOP_N, dtype=np.int64)

    def run(self, min_s=0.0):
        """Run the task until min_s has passed (at least once); returns the
        median time of one task."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < min_s:
            t0 = time.perf_counter()
            _work(self._array, self._out)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2]
