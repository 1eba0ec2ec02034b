"""Plain bisection: the test oracle for a sign change of a scalar function.

It stops where scipy.optimize.brentq stops, once the bracket is narrower
than xtol + rtol |x| (rtol defaults to brentq's 4 eps), and returns the
bracket's midpoint, so it lies within half that width of a sign change.
"""

from __future__ import annotations

import sys

_BRENTQ_RTOL = 4.0 * sys.float_info.epsilon


def bisect_root(f, lo: float, hi: float, xtol: float, rtol: float = _BRENTQ_RTOL) -> float:
    """A sign change of f in [lo, hi]; f(lo) and f(hi) must have opposite signs."""
    f_lo, f_hi = f(lo), f(hi)
    assert f_lo * f_hi < 0.0, (lo, f_lo, hi, f_hi)
    while True:
        mid = lo + 0.5 * (hi - lo)
        # mid equal to an end: the bracket is one float wide.
        if hi - lo < xtol + rtol * abs(mid) or mid in (lo, hi):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
