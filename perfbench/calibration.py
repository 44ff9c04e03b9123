"""Rescaling measured times to the speed of a reference host.

Under contention from other tenants, the 2-vCPU host the baseline was
measured on switches between a fast and a slow state, each lasting from a
fraction of a second to minutes; in the slow state the benchmark's requests
take 1.53 (expand) to 1.68 (verify) times as long, in CPU time as much as in
wall-clock time.  ``calibrate`` times a fixed loop next to each measurement,
and ``at_reference_speed`` converts the measurement to the reference host's
seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

CALIBRATION_LOOP = 12_000
CALIBRATION_FRACTIONS = 250
# The calibration loop's time on the host the baseline was measured on
# (2 vCPU x86-64, CPython 3), in its fast state.  Times are reported in that
# host's seconds: measured time * CALIBRATION_REF_S / calibration.
CALIBRATION_REF_S = 0.0021


def at_reference_speed(t: float, calibration: float) -> float:
    """A time measured where ``calibrate`` read ``calibration``, in
    reference-host seconds."""
    return t * CALIBRATION_REF_S / calibration


def calibrate() -> float:
    """The faster of two timings of a fixed loop of dict, integer and Fraction
    work.

    In the slow state the dict and integer part ran 1.53 times slower and the
    Fraction part 1.73 times; the mix slows by 1.62, close to the requests.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc, slots = 0, {}
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
            slots[i & 255] = acc
        total = Fraction(0)
        for i in range(1, CALIBRATION_FRACTIONS):
            total += Fraction(1, i * i)
        best = min(best, time.perf_counter() - t0)
    return best
