"""Bloch-vector summation over lattice layers and the dephasing it causes.

Each layer k carries a unit Bloch vector that precesses at phi_l + k*phi_g'.
Summing the layers shortens the total vector (contrast loss) and makes the
arcsine phase estimate phi_eff = asin(S_y / m) systematically underestimate
the true accumulated laser phase phi_l * t. The layer sum is evaluated in
closed form by the range-reduced Dirichlet kernel; the explicit summation
over layers is kept only in the tests, as the oracle for the kernel.
phase_ratio is the one production form of the clamped arcsine ratio: each
dephase_curve row (it returns two columns, ratios and contrasts) and each
tau_max error is built from it. bloch_sum, the full BlochSummary of one
point, forms the same by its own float operations.
effective_phase_rate is where a phase-rate convention, one of the strings in
core.CONVENTIONS, turns phi_g into the phi_g' that the layer sums take.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

from .core import PHI_G_KEYS, Convention, check_convention, echo_int

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


class DephasingInput(namedtuple("DephasingInput", "phi_l phi_g layer_count t")):
    """One evaluation point of the layer sum.

    phi_l and phi_g in rad/s, where phi_g is phi_g', the rate between
    adjacent layers with any convention already applied
    (effective_phase_rate); layer_count >= 1, t >= 0 s.
    """

    __slots__ = ()

    def __new__(cls, phi_l: float, phi_g: float, layer_count: int, t: float):
        _check_rates(phi_l, phi_g, layer_count)
        if not (t >= 0 and math.isfinite(t)):
            raise ValueError(f"t must be >= 0 and finite, got {t!r}")
        return super().__new__(cls, phi_l, phi_g, layer_count, t)

    # namedtuple's _make, and so _replace, would skip __new__ and its checks.
    _make = classmethod(lambda cls, values: cls(*values))


def _check_rates(phi_l: float, phi_g: float, layer_count: int) -> None:
    if not math.isfinite(phi_l):
        raise ValueError(f"phi_l must be finite, got {phi_l!r}")
    if not math.isfinite(phi_g):
        raise ValueError(f"phi_g must be finite, got {phi_g!r}")
    if layer_count < 1:
        raise ValueError(f"layer_count must be >= 1, got {layer_count}")


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
            f"layer phase spread phi_g' t must be finite, got {theta!r}; phi_g is set by"
            f" {PHI_G_KEYS}, times the layer gaps under the paper-figure convention"
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


def _check_grid(t_grid: Sequence[float]) -> None:
    """Refuse the first t that is negative, not finite or not above the last."""
    for i, t in enumerate(t_grid):
        if not (t >= 0 and math.isfinite(t)):
            raise ValueError(f"t_grid[{i}] must be >= 0 and finite, got {t!r}")
        if i > 0 and not t > t_grid[i - 1]:
            raise ValueError(f"t_grid must be strictly increasing at index {i}")


def dephase_curve(
    phi_l: float,
    phi_g: float,
    layer_count: int,
    t_grid: Sequence[float],
) -> tuple[list[Optional[float]], list[float]]:
    """(ratios, contrasts): two lists, one entry per t of a strictly increasing, nonnegative grid.

    phi_g is phi_g', the convention already applied (effective_phase_rate).
    ratio = phi_eff / (phi_l t), None where phi_l t == 0, and contrast =
    |D| / layer_count: each row equals bloch_sum's ratio and length /
    layer_count at that point, by the same float operations, with one
    phase_ratio call. The grid is checked first, in one pass in C, and only a
    bad one is walked by _check_grid to name its first bad index, before
    anything it makes fail. Then, also for an empty grid, a layer count or a
    laser phase phi_l t at the last time (so also a non-finite phi_l) out of
    float range is refused by its keys, and the rates with DephasingInput's
    messages.
    """
    if len(t_grid) and not (
        t_grid[0] >= 0 and t_grid[-1] < math.inf and all(map(operator.lt, t_grid, t_grid[1:]))
    ):
        _check_grid(t_grid)
    if layer_count > sys.float_info.max:
        raise OverflowError(
            f"dephase.sizes: the layer count is {echo_int(layer_count)}, out of float range"
        )
    t_end = t_grid[-1] if len(t_grid) else 0.0
    if not abs(phi_l * t_end) < math.inf:
        raise OverflowError(
            f"laser phase phi_l t = {phi_l!r} rad/s x {t_end!r} s is out of float range;"
            " it is set by dephase.phi_l and dephase.t_grid"
        )
    _check_rates(phi_l, phi_g, layer_count)
    m = layer_count
    rows = [phase_ratio(m, phi_l, phi_g, t) for t in t_grid]
    return [ratio for ratio, _ in rows], [abs(d) / m for _, d in rows]
