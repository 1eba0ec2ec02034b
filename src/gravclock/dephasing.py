"""Bloch-vector summation over lattice layers and the dephasing it causes.

Each layer k carries a unit Bloch vector that precesses at phi_l + k*phi_g'.
Summing the layers shortens the total vector (contrast loss) and makes the
arcsine phase estimate phi_eff = asin(S_y / m) systematically underestimate
the true accumulated laser phase phi_l * t. The layer sum is evaluated in
closed form by the range-reduced Dirichlet kernel; the explicit summation
over layers is kept only in the tests, as the oracle for the kernel.
phase_ratio is the clamped arcsine ratio at one point: each tau_max error is
built from it. dephase_curve returns two columns, ratios and contrasts; a
row where phase_ratio or dirichlet would branch makes one phase_ratio call,
and every other row repeats their float operations inline, which the tests
pin to phase_ratio bit for bit. bloch_sum, the full
BlochSummary of one point, forms the same by its own float operations.
effective_phase_rate is where a phase-rate convention, one of the strings in
core.CONVENTIONS, turns phi_g into the phi_g' that the layer sums take.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence

from .core import PHI_G_KEYS, Convention, check_convention

# pi = _PI_HI + _PI_LO to ~1e-26, with j * _PI_HI exact for |j| < 2**20.
_PI_HI = math.ldexp(round(math.ldexp(math.pi, 31)), -31)
_PI_LO = (math.pi - _PI_HI) + 1.2246467991473532e-16
_HALF_PI = 0.5 * math.pi
SMALL_ANGLE = 2.0**-26  # |phi_l t| below which the phase ratio is its limit D / m


def effective_phase_rate(phi_g: float, layer_count: int, convention: str) -> float:
    """Convention-adjusted per-layer rate phi_g' [rad/s], refused out of float range.

    This is the one place a convention is applied: the layer sums below take
    phi_g' itself. A convention outside core.CONVENTIONS is refused.
    """
    if check_convention(convention) == Convention.PHYSICAL:
        return phi_g
    rate = phi_g * (layer_count - 1) if layer_count <= sys.float_info.max else math.inf
    if not abs(rate) < math.inf:
        raise OverflowError(
            "paper-figure rate phi_g' = phi_g (m - 1) is out of float range; phi_g is set by"
            f" {PHI_G_KEYS}, and m by dephase.sizes or sweep.sizes"
        )
    return rate


class DephasingInput(NamedTuple):
    """One evaluation point of the layer sum.

    phi_l and phi_g in rad/s, where phi_g is phi_g', the rate between
    adjacent layers with any convention already applied
    (effective_phase_rate); layer_count >= 1, t >= 0 s.
    """

    phi_l: float
    phi_g: float
    layer_count: int
    t: float


class BlochSummary(NamedTuple):
    """Summed Bloch components, vector length, and the arcsine phase estimate.

    ratio = phi_eff / (phi_l * t); None when phi_l * t == 0. A NamedTuple,
    so it compares equal to the plain tuple of its fields.
    """

    s_x: float
    s_y: float
    length: float
    phi_eff: float
    ratio: Optional[float]


def dirichlet(m: int, theta: float) -> float:
    """D_m(theta) = sin(m theta/2) / sin(theta/2): the sum of cos(k theta) over
    the m symmetric layer offsets k = -(m-1)/2 ... (m-1)/2, in O(1).

    With j = round(theta / 2 pi) and x = |theta|/2 - pi j (exact to rounding
    for theta below ~6.6e6 rad), D = (-1)^((m-1) j) sin(m x) / sin(x), and
    +-m where sin(x) == 0. Unlike the unreduced form, whose sines both lose
    their leading digits there, this stays accurate where the layers
    rephase (theta near 2 pi j). For |theta| < pi (every tau_max step of an
    m > 1 search) j = 0, and a fast path skips the reduction, same bits.
    """
    x = 0.5 * abs(theta)
    if x < _HALF_PI:
        s = math.sin(x)
        return float(m) if s == 0.0 else math.sin(m * x) / s
    if not math.isfinite(theta):
        raise ValueError(
            f"layer phase spread phi_g' t must be finite, got {theta!r}; phi_g (times m - 1"
            f" under paper-figure) is set by {PHI_G_KEYS}"
        )
    j = round(x / math.pi)
    x = (x - j * _PI_HI) - j * _PI_LO
    s = math.sin(x)
    d = float(m) if s == 0.0 else math.sin(m * x) / s
    return -d if m % 2 == 0 and j % 2 else d


def bloch_sum(inp: DephasingInput) -> BlochSummary:
    """Sum the per-layer Bloch vectors at time t.

    S_x = sum_k cos((phi_l + k phi_g') t), S_y likewise with sin, k running
    over layer_count symmetric offsets centered on 0. The k <-> -k symmetry
    factors the sum exactly into S_x = cos(phi_l t) D, S_y = sin(phi_l t) D
    with D = dirichlet(m, phi_g' t), so each evaluation is O(1) in the layer
    count. phi_eff is asin(S_y / layer_count), clamped against rounding, and
    ratio is phase_ratio's, formed here independently of it.
    """
    m = inp.layer_count
    nominal = inp.phi_l * inp.t
    d = dirichlet(m, inp.phi_g * inp.t)
    s_x, s_y = math.cos(nominal) * d, math.sin(nominal) * d
    # A conditional costs far less than min/max.
    x = s_y / m
    phi_eff = math.asin(1.0 if x > 1.0 else -1.0 if x < -1.0 else x)
    ratio = None if nominal == 0.0 else d / m if abs(nominal) < SMALL_ANGLE else phi_eff / nominal
    return BlochSummary(s_x, s_y, abs(d), phi_eff, ratio)


def phase_ratio(m: int, phi_l: float, phi_g: float, t: float) -> tuple[Optional[float], float]:
    """(ratio, d) at one point, unchecked: d = dirichlet(m, phi_g' t) and ratio =
    asin(sin(phi_l t) d / m) / (phi_l t), the arcsine clamped against rounding;
    None where phi_l t == 0, and its limit d / m where |phi_l t| < 2^-26, as a
    subnormal phi_l t leaves sin and asin too few digits to form it.
    """
    nominal = phi_l * t
    d = dirichlet(m, phi_g * t)
    if abs(nominal) < SMALL_ANGLE:
        return (d / m if nominal else None), d
    x = math.sin(nominal) * d / m
    return math.asin(1.0 if x > 1.0 else -1.0 if x < -1.0 else x) / nominal, d


def dephase_curve(
    phi_l: float,
    phi_g: float,
    layer_count: int,
    t_grid: Sequence[float],
) -> tuple[list[Optional[float]], list[float]]:
    """(ratios, contrasts): two lists, one entry per t of a strictly increasing, nonnegative grid.

    phi_g is phi_g', the convention already applied (effective_phase_rate).
    ratio = phi_eff / (phi_l t), None where phi_l t == 0, and contrast =
    |D| / layer_count: each row equals phase_ratio's ratio and |d| /
    layer_count at that point, and so bloch_sum's ratio and length /
    layer_count, bit for bit. The grid is taken as dephase.t_grid's parser
    accepts it, finite, >= 0 and strictly increasing, and is not checked
    again. A laser phase phi_l t or a layer phase spread phi_g' t at the last
    time out of float range is refused by its keys, also for an empty grid,
    so no row reaches dirichlet's refusal.

    Each row chooses its path alone. With x = |phi_g' t| / 2, a row where
    0 < x < pi/2 and |phi_l t| >= 2^-26, where neither phase_ratio nor
    dirichlet branches, performs their float operations inline, in the same
    order. Any other row (t = 0, a subnormal laser phase, or x >= pi/2,
    where dirichlet reduces its argument) makes one phase_ratio call. The
    tests pin each row, and the row a refusal comes from, to phase_ratio's.
    """
    t_end = t_grid[-1] if len(t_grid) else 0.0
    if not abs(phi_l * t_end) < math.inf:
        raise OverflowError(
            f"laser phase phi_l t = {phi_l!r} rad/s x {t_end!r} s is out of float range;"
            " it is set by dephase.phi_l and dephase.t_grid"
        )
    if not abs(phi_g) * t_end < math.inf:
        raise OverflowError(
            f"layer phase phi_g' t is out of float range; it is set by {PHI_G_KEYS},"
            " dephase.sizes under paper-figure and dephase.t_grid"
        )
    fm, rate, half_pi, small = float(layer_count), abs(phi_g), _HALF_PI, SMALL_ANGLE
    sin, asin, ratios, contrasts = math.sin, math.asin, [], []
    ratio_append, contrast_append = ratios.append, contrasts.append
    for t in t_grid:
        # For t >= 0, |phi_g' t| == |phi_g'| t exactly, so x is dirichlet's.
        x, nominal = 0.5 * (rate * t), phi_l * t
        if 0.0 < x < half_pi and (nominal >= small or nominal <= -small):
            d = sin(fm * x) / sin(x)
            y = sin(nominal) * d / fm
            ratio_append(asin(1.0 if y > 1.0 else -1.0 if y < -1.0 else y) / nominal)
        else:
            ratio, d = phase_ratio(layer_count, phi_l, phi_g, t)
            ratio_append(ratio)
        contrast_append(abs(d) / fm)
    return ratios, contrasts
