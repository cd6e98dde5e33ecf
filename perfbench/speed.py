"""Times scaled to a reference machine speed.

The shared hosts this benchmark runs on execute the same code at speeds up
to about two times apart, in phases that last from seconds to minutes, so
a run that falls in a slow phase is slow in every batch and no statistic
over one run's batches removes it.  Each timed call is therefore
bracketed by a fixed calibration loop, timed just before and just after
it, and its wall time is scaled by ``REF_CAL_S`` over the mean of the two
calibration times: the call's time in seconds at the reference speed,
the speed at which the loop takes ``REF_CAL_S``.  Calibration and call run
back to back in the same process, so they see the same phase.

The loop uses only the standard library (``Fraction`` arithmetic on large
denominators, tuple hashing and set insertion, as the program does), so a
change to ``exactrips`` cannot change it.  The raw wall times are kept in
the run's record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_CAL_S = 0.004
_DEN = 3**24


def calibration_s() -> float:
    """Wall time of one round of the calibration loop."""
    start = perf_counter()
    total, seen = Fraction(0), set()
    for i in range(1, 300):
        x = Fraction(i * 7919 % _DEN, _DEN) - Fraction(i, 2 * _DEN + 1)
        total += x * x
        seen.add((i % 97, x.numerator % 1009))
    return perf_counter() - start


def timed(fn, *args):
    """(fn(*args), its wall time, its time at the reference speed)."""
    before = calibration_s()
    start = perf_counter()
    result = fn(*args)
    wall_s = perf_counter() - start
    after = calibration_s()
    return result, wall_s, wall_s * 2 * REF_CAL_S / (before + after)
