"""Systematic-shift calculators and the pass/fail budget against the redshift signal.

Every calculator returns the differential shift between the top and bottom
of the ensemble, the one component that mimics the height-linear
gravitational redshift. Common-mode shifts cancel in this comparison and are
carried as explicit zero entries with their justification.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .core import (
    DEFAULT_BBR_DISK_RADIUS,
    P2_NATURAL_LINEWIDTH_HZ,
    REDSHIFT_KEYS,
    ClockSpecies,
    PhysicalConstants,
    YB,
    relative_redshift,
)


@dataclass(frozen=True)
class SystematicsCoefficients:
    """Shift coefficients of the clock transition and the calibration line.

    zeeman1 in Hz/G, zeeman2 in Hz/G^2, dc_stark in Hz/(V/m)^2, p2_zeeman in
    Hz/G (Zeeman splitting of the 3P2 calibration transition),
    bbr_fractional the total fractional BBR shift magnitude near room
    temperature.
    """

    zeeman1: float = 199.516
    zeeman2: float = -0.06095
    dc_stark: float = 3.626e-6
    p2_zeeman: float = 2.1e6
    bbr_fractional: float = 2.39e-15


YB_COEFFICIENTS = SystematicsCoefficients()

# Externally quoted peak intensity change for the default trap geometry.
# Direct evaluation of the beam-area ratio gives ~6.4e-4 instead; both are
# reported side by side wherever either is used.
REFERENCE_INTENSITY_CHANGE = 8.46e-4

AC_STARK_ANCHOR_CHANGE = 0.10
AC_STARK_ANCHOR_SHIFT = 1e-19


@dataclass(frozen=True)
class BudgetEntry:
    """One systematic effect compared against the gravitational signal."""

    name: str
    differential_shift_hz: float
    fractional: float
    reference_signal_hz: float
    passes: bool
    note: str


def allowed_b_gradient(coeffs: SystematicsCoefficients, delta_nu: float, delta_z: float) -> float:
    """Largest magnetic field gradient [G/m] whose first-order Zeeman
    differential stays below the redshift signal: delta_nu / (zeeman1 * delta_z)."""
    return delta_nu / (coeffs.zeeman1 * delta_z)


def p2_calibration_shift(
    coeffs: SystematicsCoefficients,
    gradient: float,
    delta_z: float,
) -> float:
    """Top-to-bottom shift [Hz] of the 3P2 calibration line at a field gradient."""
    return coeffs.p2_zeeman * gradient * delta_z


def second_order_zeeman_shift(
    coeffs: SystematicsCoefficients, gradient: float, bias_field: float, delta_z: float
) -> float:
    """Second-order Zeeman differential [Hz] for B(z) linear from the bias field."""
    b_top = bias_field + gradient * delta_z
    shift = abs(coeffs.zeeman2) * abs(b_top * b_top - bias_field * bias_field)
    if not shift < math.inf:
        raise OverflowError(
            f"second-order Zeeman shift at B = {b_top!r} G is out of float range; B is"
            " budget.bias_field plus the allowed gradient across delta_z"
        )
    return shift


def allowed_e_gradient(
    coeffs: SystematicsCoefficients, delta_nu: float, delta_z: float, baseline_field: float = 0.0
) -> float:
    """Largest dE/dz [(V/m)/m] keeping the DC Stark differential below the signal.

    E grows linearly from the baseline across delta_z, so the constraint
    dc_stark * |E_top^2 - E_bot^2| <= delta_nu is quadratic in the gradient;
    this returns its positive root (-E0 + sqrt(E0^2 + delta_nu/dc)) / delta_z.
    """
    e0 = baseline_field
    return (-e0 + math.sqrt(e0 * e0 + delta_nu / coeffs.dc_stark)) / delta_z


def rayleigh_range(waist: float, wavelength: float) -> float:
    """z_R = pi w^2 / wavelength [m] of a TEM00 beam with 1/e^2 waist radius w."""
    return math.pi * waist * waist / wavelength


@dataclass(frozen=True)
class IntensityRatioResult:
    """Extrema of the beam-area ratio w^2(z)/w^2(z + separation).

    z_star (numeric, authoritative) is the stationary point with the largest
    |ratio - 1|; z_extrema_m holds both numeric stationary points, which
    closed_form_agrees compares with +/- sqrt(delta^2+4)/2 * z_R.
    stationarity_residual is max |u^2 + u delta - 1| over the numeric points
    (u = z/z_R, delta = separation/z_R).
    """

    z_star: float
    max_change: float
    z_extrema_m: tuple[float, float]
    changes: tuple[float, float]
    stationarity_residual: float
    closed_form_agrees: bool


def _area_ratio_excess(u: float, delta: float) -> float:
    """(r(u) - 1) / delta, the cancellation-free form of the change profile.

    r - 1 = -delta (2u + delta) / (1 + (u + delta)^2) exactly; dividing the
    small prefactor out keeps the extremum search conditioned even when the
    separation is a tiny fraction of the Rayleigh range.
    """
    return -(2.0 * u + delta) / (1.0 + (u + delta) * (u + delta))


def _bisect(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    Halves the bracket until it is no wider than xtol or its midpoint rounds
    onto an endpoint, and returns a point of the final bracket.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]: f = {f_lo!r}, {f_hi!r}")
    while hi - lo > xtol:
        mid = lo + 0.5 * (hi - lo)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return lo + 0.5 * (hi - lo)


def _excess_slope(u: float, delta: float, h: float = 1e-5) -> float:
    # Centered difference of the change profile; its analytic simplification
    # is the stationarity oracle u^2 + u*delta - 1 = 0 and stays out of the
    # numeric path.
    return (_area_ratio_excess(u + h, delta) - _area_ratio_excess(u - h, delta)) / (2.0 * h)


def lattice_intensity_ratio(z_r: float, separation: float) -> IntensityRatioResult:
    """Peak fractional intensity change between layers `separation` apart.

    The intensity ratio between two axial points of a beam with Rayleigh
    range z_r follows the beam-area ratio r(z) = w^2(z)/w^2(z + separation).
    Its extrema are located numerically (sign change of the
    centered-difference slope) and compared with the closed-form positions
    +/- sqrt(delta^2 + 4)/2 * z_R; they must agree to 1% in z, and the
    numeric result is authoritative. A ratio separation / z_R above 1e3 is
    refused: the stationarity residual grows there, and near 1e4 the
    brackets lose their sign change.
    """
    delta = separation / z_r if z_r > 0 else math.inf
    if not (separation > 0 and z_r < math.inf and delta <= 1e3):
        raise ValueError(
            f"layer separation / Rayleigh range pi w^2 / wavelength = {separation!r} m /"
            f" {z_r!r} m must lie in (0, 1e3]; it is set by"
            " budget.beam_waist, species.magic_wavelength and budget.beam_separation"
            " (default 100 species.magic_wavelength)"
        )
    u_pos = _bisect(lambda u: _excess_slope(u, delta), 1e-12, 2.0, xtol=1e-13)
    u_neg = _bisect(lambda u: _excess_slope(u, delta), -delta - 2.0, -1.0, xtol=1e-13)

    u_closed = math.sqrt(delta * delta + 4.0) / 2.0
    agrees = abs(u_pos - u_closed) <= 0.01 * u_closed and abs(u_neg + u_closed) <= 0.01 * u_closed
    extrema = (u_pos, u_neg)
    changes = tuple(delta * abs(_area_ratio_excess(u, delta)) for u in extrema)
    residual = max(abs(u * u + u * delta - 1.0) for u in extrema)
    star = extrema[0] if changes[0] >= changes[1] else extrema[1]
    return IntensityRatioResult(
        z_star=star * z_r,
        max_change=max(changes),
        z_extrema_m=(u_pos * z_r, u_neg * z_r),
        changes=(changes[0], changes[1]),
        stationarity_residual=residual,
        closed_form_agrees=agrees,
    )


def ac_stark_shift(intensity_change: float, species: ClockSpecies = YB) -> float:
    """Lattice light-shift differential [Hz]: linear in the intensity change,
    anchored to a 10% change producing a 1e-19 fractional shift."""
    fractional = intensity_change / AC_STARK_ANCHOR_CHANGE * AC_STARK_ANCHOR_SHIFT
    return fractional * species.frequency


def wall_solid_angles(
    wall_distance: float, extent: float, disk_radius: float = DEFAULT_BBR_DISK_RADIUS
) -> tuple[float, float]:
    """Solid angles [sr] (W+, W-) of a wall disk of disk_radius at wall_distance
    from the ensemble center, seen on axis from its nearest and farthest layer."""

    def solid_angle(distance: float) -> float:
        return 2.0 * math.pi * (1.0 - distance / math.hypot(distance, disk_radius))

    return solid_angle(wall_distance - extent), solid_angle(wall_distance + extent)


def bbr_field_ratio(t1: float, t2: float, omega_near: float, omega_far: float) -> float:
    """BBR field ratio (t2^4 W+ + t1^4 W-) / (t2^4 W- + t1^4 W+) between the
    two ensemble ends, W+/- the solid angles of the nearest/farthest wall."""
    t1_4 = t1**4
    t2_4 = t2**4
    # Difference form keeps ratio - 1 exact when t1 == t2 or W+ == W-.
    excess = (t2_4 - t1_4) * (omega_near - omega_far) / (t2_4 * omega_far + t1_4 * omega_near)
    return 1.0 + excess


def bbr_temperature_limit(
    fractional: float,
    wall_distance: float,
    t1: float,
    extent: float,
    disk_radius: float = DEFAULT_BBR_DISK_RADIUS,
) -> float:
    """Wall temperature difference [K] at which the BBR differential between
    the ends of an ensemble spanning extent, one wall at t1 and the other
    warmer, equals the fractional redshift signal; inf when even a large
    imbalance cannot reach it."""
    omega_near, omega_far = wall_solid_angles(wall_distance, extent, disk_radius)

    def excess_shift(delta_t: float) -> float:
        ratio = bbr_field_ratio(t1, t1 + delta_t, omega_near, omega_far)
        return YB_COEFFICIENTS.bbr_fractional * (ratio - 1.0) - fractional

    hi = 1e-3
    while excess_shift(hi) < 0:
        hi *= 10.0
        if hi > 1e6:
            return math.inf
    # excess_shift(0) = -fractional <= 0, so [0, hi] always brackets.
    return _bisect(excess_shift, 0.0, hi, xtol=1e-12)


@dataclass(frozen=True)
class Budget:
    """Assembled budget: the redshift signal (extent delta_z, shift delta_nu, fractional),
    requirement numbers, the worked two-wall BBR example, and per-effect entries."""

    delta_z: float
    delta_nu: float
    fractional: float
    allowed_b_gradient: float
    p2_calibration_shift_hz: float
    allowed_e_gradient: float
    intensity: IntensityRatioResult
    bbr_example_ratio_minus_one: float
    bbr_example_shift_fractional: float
    temperature_limit_k: float
    entries: tuple[BudgetEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(entry.passes for entry in self.entries)


_NEGLIGIBLE_EFFECTS = (
    (
        "probe-ac-stark",
        "probe waist far exceeds the trap waist; its intensity gradient across"
        " the ensemble is subdominant to the lattice light shift",
    ),
    (
        "density-shift",
        "single-atom filling of the 3D lattice keeps the density uniform;"
        " no layer-dependent collisional shift",
    ),
    (
        "dipole-dipole",
        "interaction shift is non-monotonic along the vertical axis and"
        " cancels as a common mode against a height-linear signal",
    ),
    (
        "background-gas",
        "collisions strike the ensemble uniformly; no differential component",
    ),
    (
        "probe-recoil-tunneling",
        "suppressed by aligning the probe along the lattice axis; no resolved"
        " differential shift at the relevant level",
    ),
)


def assemble_budget(
    n_site: int = 100,
    species: ClockSpecies = YB,
    consts: PhysicalConstants = PhysicalConstants(),
    layer_spacing: float | None = None,
    *,
    wall_distance: float = 0.05,  # m, ensemble center to each chamber wall
    disk_radius: float = DEFAULT_BBR_DISK_RADIUS,  # m
    base_temperature: float = 293.0,  # K
    example_temperature_step: float = 1.0,  # K, the worked two-wall example
    delta_t: float = 0.010,  # K, assumed achieved chamber uniformity
    beam_waist: float = 170e-6,  # m
    beam_separation: float | None = None,  # m; None -> 100 lattice wavelengths
    bias_field: float = 1.0,  # G, upper bound taken for the quadratic Zeeman term
    e_gradient: float = 1e4,  # (V/m)/m residual behind shield and coatings
    baseline_e_field: float = 0.0,  # V/m
    p2_linewidth: float = P2_NATURAL_LINEWIDTH_HZ,  # Hz, 3P2 calibration resolution
) -> Budget:
    """Evaluate every systematic against the redshift signal at one lattice size.

    The keyword-only arguments are the experimental conditions, each named
    as its `budget.` scenario key; each entry's note records the one it used,
    and a refusal names the keys behind the value it refuses. Zero-valued
    entries carry the physical reason the effect has no height-linear
    component; they are listed so the budget is exhaustive rather than
    silently omitting them.
    """
    coeffs = YB_COEFFICIENTS
    spacing = species.default_layer_spacing if layer_spacing is None else layer_spacing
    delta_z = n_site * spacing if n_site <= sys.float_info.max else math.inf
    if not 0 < delta_z < wall_distance:
        raise ValueError(
            f"ensemble extent delta_z = {delta_z!r} m must lie in (0, budget.wall_distance ="
            f" {wall_distance!r} m); delta_z is budget.n_site times geometry.layer_spacing"
            " (default species.magic_wavelength / 2)"
        )
    t2 = base_temperature + example_temperature_step
    if not t2 > 0:
        raise ValueError(
            f"second wall temperature budget.base_temperature + budget.example_temperature_step"
            f" = {t2!r} K must be positive"
        )
    fractional = relative_redshift(consts, delta_z)
    delta_nu = species.frequency * fractional

    b_gradient = allowed_b_gradient(coeffs, delta_nu, delta_z)
    p2_shift = p2_calibration_shift(coeffs, b_gradient, delta_z)
    e_allowed = allowed_e_gradient(coeffs, delta_nu, delta_z, baseline_e_field)

    # First-order Zeeman: the gradient itself is calibrated out via the 3P2
    # line; what survives is the calibration resolution, one linewidth of
    # gradient uncertainty mapped back onto the clock transition.
    zeeman1_residual = coeffs.zeeman1 * p2_linewidth / coeffs.p2_zeeman

    e_top = baseline_e_field + e_gradient * delta_z
    if not e_top < math.sqrt(sys.float_info.max):
        raise OverflowError(
            f"DC Stark field budget.baseline_e_field + budget.e_gradient * delta_z = {e_top!r} V/m"
            " is out of range: its square overflows"
        )
    e_shift = coeffs.dc_stark * abs(e_top**2 - baseline_e_field**2)

    separation = 100.0 * species.magic_wavelength if beam_separation is None else beam_separation
    intensity = lattice_intensity_ratio(
        rayleigh_range(beam_waist, species.magic_wavelength), separation
    )

    near, far = wall_solid_angles(wall_distance, delta_z, disk_radius)
    try:
        example = bbr_field_ratio(base_temperature, t2, near, far) - 1.0
        uniform = bbr_field_ratio(base_temperature, base_temperature + delta_t, near, far) - 1.0
        temperature_limit = bbr_temperature_limit(
            fractional, wall_distance, base_temperature, delta_z, disk_radius
        )
    except (ArithmeticError, ValueError):
        # T^4 overflows, T^4 W underflows to 0/0, or a nan stops the bisection.
        example = uniform = math.nan
    if not math.isfinite(example + uniform):
        raise OverflowError(
            "BBR field weights T^4 W are out of float range: the wall temperatures are set by"
            " budget.base_temperature, budget.example_temperature_step and budget.delta_t, the"
            " solid angles W by budget.wall_distance and budget.disk_radius"
        )
    if temperature_limit == math.inf:
        raise ValueError(
            f"no wall temperature difference up to 1e6 K brings the BBR differential up to the"
            f" redshift signal g dz/c^2 = {fractional!r}; it is set by {REDSHIFT_KEYS}"
        )

    rows = [
        (
            "first-order-zeeman-calibration",
            zeeman1_residual,
            f"gradient calibrated against the 3P2 line to one linewidth"
            f" ({p2_linewidth:.3e} Hz); residual is linewidth-limited",
        ),
        (
            "second-order-zeeman",
            second_order_zeeman_shift(coeffs, b_gradient, bias_field, delta_z),
            f"field gradient {b_gradient:.3e} G/m on a {bias_field:.3g} G bias",
        ),
        (
            "dc-stark",
            e_shift,
            f"assumes shielding holds the stray gradient at {e_gradient:.3g} (V/m)/m"
            f" (allowed: {e_allowed:.3g})",
        ),
        (
            "lattice-ac-stark",
            ac_stark_shift(intensity.max_change, species),
            f"computed peak change {intensity.max_change:.3e}"
            f" (quoted reference {REFERENCE_INTENSITY_CHANGE:.3e};"
            f" the computed value is used)",
        ),
        (
            "bbr-differential",
            coeffs.bbr_fractional * uniform * species.frequency,
            f"assumes chamber uniformity of {delta_t * 1e3:.3g} mK;"
            f" shift equals the signal at {temperature_limit * 1e3:.3g} mK",
        ),
        *((name, 0.0, note) for name, note in _NEGLIGIBLE_EFFECTS),
    ]
    entries = tuple(
        BudgetEntry(name, shift, shift / species.frequency, delta_nu, shift < delta_nu, note)
        for name, shift, note in rows
    )
    return Budget(
        delta_z=delta_z,
        delta_nu=delta_nu,
        fractional=fractional,
        allowed_b_gradient=b_gradient,
        p2_calibration_shift_hz=p2_shift,
        allowed_e_gradient=e_allowed,
        intensity=intensity,
        bbr_example_ratio_minus_one=example,
        bbr_example_shift_fractional=coeffs.bbr_fractional * example,
        temperature_limit_k=temperature_limit,
        entries=entries,
    )
