"""Host speed, measured by a fixed calibration loop run between task calls.

The reference machine is a 2-vCPU VM on a shared host.  Other tenants slow
every kind of code on it by up to 1.6-2x, in phases that last from a fraction
of a second to over a minute, so raw wall times of identical work drift
between runs by more than a regression bound.  The benchmark therefore runs a
fixed amount of calibration work right before each task call and reports
times in reference seconds:

    time at reference speed = measured time * REFERENCE_UNIT_S / (seconds per unit, measured)

A change to convexhmc moves the task calls and not the calibration, so it
shows in full; a slower host moves both, and cancels to first order.  The
calibration does not import convexhmc.  Its unit mixes the three kinds of
work the workloads do: interpreter steps on tiny arrays, pure-Python
arithmetic, and compiled kernels on medium arrays (``linear_sum_assignment``
and elementwise numpy).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

# Median seconds per unit on the reference machine (nproc 2, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), over 20 s of units.  It only sets the scale of
# the reported times; their spread and their ratio between a parent and a
# change do not depend on it.
REFERENCE_UNIT_S = 0.0109

_rng = np.random.default_rng(20170823)
_COST = _rng.random((180, 180))
_BATCH = _rng.standard_normal((1024, 8))
_TINY = np.array([0.5, 1.5])


def unit() -> float:
    """One calibration unit, about 10 ms on the reference machine."""
    acc = 0.0
    for _ in range(1200):  # interpreter work on tiny arrays
        y = _TINY * 0.5 + 1.0
        acc += float(y @ y)
    s = 0
    for i in range(48000):  # pure-Python arithmetic
        s += i * i % 7
    rows, cols = linear_sum_assignment(_COST)  # compiled kernels, medium arrays
    acc += float(_COST[rows, cols].sum())
    for _ in range(60):
        acc += float(np.square(_BATCH * 0.5 - 1.0).sum())
    return acc + s


class HostClock:
    """Accumulates calibration time, and converts seconds to reference seconds."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def calibrate(self, units: int) -> None:
        t0 = time.perf_counter()
        for _ in range(units):
            unit()
        self.seconds += time.perf_counter() - t0
        self.units += units

    @property
    def unit_s(self) -> float:
        """Measured seconds per unit so far."""
        return self.seconds / self.units

    def reference(self, seconds: float) -> float:
        return seconds * REFERENCE_UNIT_S / self.unit_s
