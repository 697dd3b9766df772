"""Machine-speed calibration for timings on a shared machine.

Other tenants of a shared machine slow a process down by 30-60% for
stretches of seconds, and the slowdown hits interpreted Python and compiled
numpy/scipy loops alike.  A fixed task that does not involve gentrig is
therefore timed before and after every stretch of measured work, and each
measured time is scaled by CAL_REF_S / (mean of the two calibration times).
Reported times read as times on a machine on which the calibration task
takes CAL_REF_S; the scale is the same for every commit, so a change in the
program moves them as it would move the raw times.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.special as sc

CAL_REF_S = 0.017  # the task's time on an undisturbed 2-vCPU x86-64 VM
_GRID = np.linspace(0.01, 0.99, 2000)


def calibration_seconds():
    """Time one run of the calibration task: interpreted arithmetic, small
    numpy operations and a vectorized scipy.special call, the three kinds of
    work gentrig does."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20_000):
        s += math.sqrt(i + 0.5)
    for i in range(300):
        s += float(np.asarray(i * 0.5) + 1.0)
    for _ in range(10):
        s += float(sc.betaincinv(0.3, 0.7, _GRID)[-1])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(s):
        raise ArithmeticError("calibration task went wrong")
    return elapsed


def scale(before, after):
    """Factor that maps a time measured between two calibrations to
    reference speed."""
    return CAL_REF_S / (0.5 * (before + after))
