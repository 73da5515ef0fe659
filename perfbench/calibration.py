"""Machine-speed calibration for the timings.

The benchmark's development VM (2 vCPUs, shared host) ran the same code at
anything from 1.0x to 2.2x its best time, in phases lasting from
milliseconds to over half a minute, so a whole run could fall in a slow
phase.  A short fixed kernel timed between the measured calls slows down
with the library: timed every few milliseconds, the ratio of library time
to kernel time stayed within a few per cent while raw times varied 2x.
Every reported time is therefore scaled to a machine on which the kernel
takes REFERENCE_S:

    scaled time = measured time * REFERENCE_S / (kernel time now)

The kernel mixes the work the library does -- complex arithmetic and libm
calls in Python loops, and small NumPy array operations -- and calls
nothing from barnesg, so a change to the library cannot move it.
REFERENCE_S is the kernel's best time on that VM, so scaled times read
like times on the unloaded VM.
"""

import cmath
import math
import time

import numpy as np

REFERENCE_S = 0.38e-3
ONE_OFF_REPS = 5  # kernel runs for a single reading outside the timed loop
_GRID = np.linspace(0.0, 1.0, 64)


def kernel() -> complex:
    acc = 0j
    w = complex(0.3, 0.2)
    for i in range(1, 1000):
        acc += cmath.exp(w * i * 1e-3) / i + math.cos(i * 0.001)
    for _ in range(10):
        acc += complex(np.sum(np.cos(_GRID * 3.0) / (1.0 + _GRID)))
    return acc


def scale(reps: int = 1) -> float:
    """REFERENCE_S / (fastest of reps kernel runs): multiply a time by this."""
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_S / best
