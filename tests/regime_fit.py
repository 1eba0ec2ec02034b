"""The log-log slope of a stability curve in one regime: the paper's -1, +0.25 and +1.

A curve is one phi_l of a sweep, in ascending size order. Its sigma_at_1s
minimum splits it into the small regime (the sizes below the minimum) and
the large one (the sizes above it); the minimum belongs to neither. A call
outside those terms is a broken test, so it fails an assertion.
"""

from __future__ import annotations

import math
import statistics


def scaling_exponent(points, regime: str) -> float:
    """Least-squares slope of log(sigma_at_1s) against log(size) over the
    'small' or 'large' regime, which must hold at least 3 unflagged points."""
    assert len({p.phi_l for p in points}) == 1, "a curve holds a single phi_l"
    assert all(a.size < b.size for a, b in zip(points, points[1:])), "sizes must ascend"
    sigmas = [p.sigma_at_1s for p in points]
    best = sigmas.index(min(sigmas))
    slice_ = {"small": points[:best], "large": points[best + 1:]}[regime]
    assert len(slice_) >= 3 and not any(p.flag for p in slice_), slice_
    x = [math.log(p.size) for p in slice_]
    y = [math.log(p.sigma_at_1s) for p in slice_]
    return statistics.linear_regression(x, y).slope
