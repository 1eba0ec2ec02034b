"""Systematic-shift calculators and the pass/fail budget against the redshift signal.

Every calculator returns the differential shift between the top and bottom
of the ensemble, the one component that mimics the height-linear
gravitational redshift. Common-mode shifts cancel in this comparison and are
carried as explicit zero entries with their justification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .core import (
    DEFAULT_BBR_DISK_RADIUS,
    P2_NATURAL_LINEWIDTH_HZ,
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
class GravitationalSignal:
    """Redshift signal across the ensemble: extent, shift in Hz, fractional."""

    n_site: int
    delta_z: float
    delta_nu: float
    fractional: float


def gravitational_signal(
    n_site: int,
    species: ClockSpecies = YB,
    consts: PhysicalConstants = PhysicalConstants(),
    layer_spacing: float | None = None,
) -> GravitationalSignal:
    """Height span delta_z = n_site * spacing and the redshift across it."""
    if n_site < 0:
        raise ValueError(f"n_site must be >= 0, got {n_site}")
    spacing = species.default_layer_spacing if layer_spacing is None else layer_spacing
    delta_z = n_site * spacing
    fractional = relative_redshift(consts, delta_z)
    return GravitationalSignal(
        n_site=n_site,
        delta_z=delta_z,
        delta_nu=species.frequency * fractional,
        fractional=fractional,
    )


@dataclass(frozen=True)
class BudgetEntry:
    """One systematic effect compared against the gravitational signal."""

    name: str
    differential_shift_hz: float
    fractional: float
    reference_signal_hz: float
    passes: bool
    note: str


def _entry(
    name: str,
    shift_hz: float,
    signal: GravitationalSignal,
    species: ClockSpecies,
    note: str,
) -> BudgetEntry:
    return BudgetEntry(
        name=name,
        differential_shift_hz=shift_hz,
        fractional=shift_hz / species.frequency,
        reference_signal_hz=signal.delta_nu,
        passes=shift_hz < signal.delta_nu,
        note=note,
    )


def allowed_b_gradient(coeffs: SystematicsCoefficients, signal: GravitationalSignal) -> float:
    """Largest magnetic field gradient [G/m] whose first-order Zeeman
    differential stays below the redshift signal: delta_nu / (zeeman1 * delta_z)."""
    return signal.delta_nu / (coeffs.zeeman1 * signal.delta_z)


def p2_calibration_shift(
    coeffs: SystematicsCoefficients,
    gradient: float,
    delta_z: float,
) -> float:
    """Top-to-bottom shift [Hz] of the 3P2 calibration line at a field gradient."""
    return coeffs.p2_zeeman * gradient * delta_z


def second_order_zeeman_check(
    coeffs: SystematicsCoefficients,
    gradient: float,
    bias_field: float,
    signal: GravitationalSignal,
    species: ClockSpecies = YB,
) -> BudgetEntry:
    """Second-order Zeeman differential for B(z) linear from the bias field."""
    b_bottom = bias_field
    b_top = bias_field + gradient * signal.delta_z
    shift = abs(coeffs.zeeman2) * abs(b_top * b_top - b_bottom * b_bottom)
    return _entry(
        "second-order-zeeman",
        shift,
        signal,
        species,
        f"field gradient {gradient:.3e} G/m on a {bias_field:.3g} G bias",
    )


def allowed_e_gradient(
    coeffs: SystematicsCoefficients,
    signal: GravitationalSignal,
    baseline_field: float = 0.0,
) -> float:
    """Largest dE/dz [(V/m)/m] keeping the DC Stark differential below the signal.

    E grows linearly from the baseline across delta_z, so the constraint
    dc_stark * |E_top^2 - E_bot^2| <= delta_nu is quadratic in the gradient;
    this returns its positive root (-E0 + sqrt(E0^2 + delta_nu/dc)) / delta_z.
    """
    if baseline_field < 0:
        raise ValueError(f"baseline_field must be >= 0, got {baseline_field!r}")
    e0 = baseline_field
    return (-e0 + math.sqrt(e0 * e0 + signal.delta_nu / coeffs.dc_stark)) / signal.delta_z


@dataclass(frozen=True)
class GaussianBeam:
    """TEM00 beam: 1/e^2 waist radius w [m] and wavelength [m]."""

    waist: float
    wavelength: float

    def __post_init__(self) -> None:
        if not (self.waist > 0 and math.isfinite(self.waist)):
            raise ValueError(f"waist must be positive, got {self.waist!r}")
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength!r}")

    @property
    def rayleigh_range(self) -> float:
        """z_R = pi w^2 / wavelength [m]."""
        return math.pi * self.waist * self.waist / self.wavelength

    def width(self, z: float) -> float:
        """Beam radius w(z) = w sqrt(1 + (z/z_R)^2) [m]."""
        u = z / self.rayleigh_range
        return self.waist * math.sqrt(1.0 + u * u)


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


def lattice_intensity_ratio(beam: GaussianBeam, separation: float) -> IntensityRatioResult:
    """Peak fractional intensity change between layers `separation` apart.

    The intensity ratio between two axial points follows the beam-area ratio
    r(z) = w^2(z)/w^2(z + separation). Its extrema are located numerically
    (sign change of the centered-difference slope) and compared with the
    closed-form positions +/- sqrt(delta^2 + 4)/2 * z_R; they must agree to
    1% in z, and the numeric result is authoritative.
    """
    if not (separation > 0 and math.isfinite(separation)):
        raise ValueError(f"separation must be positive, got {separation!r}")
    z_r = beam.rayleigh_range
    delta = separation / z_r

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


def ac_stark_entry(
    intensity_change: float,
    signal: GravitationalSignal,
    species: ClockSpecies = YB,
    note: str = "",
) -> BudgetEntry:
    """Lattice light-shift entry: linear in the intensity change, anchored to
    a 10% change producing a 1e-19 fractional shift."""
    if intensity_change < 0:
        raise ValueError(f"intensity_change must be >= 0, got {intensity_change!r}")
    fractional = intensity_change / AC_STARK_ANCHOR_CHANGE * AC_STARK_ANCHOR_SHIFT
    return _entry("lattice-ac-stark", fractional * species.frequency, signal, species, note)


@dataclass(frozen=True)
class BbrGeometry:
    """Two opposing chamber walls, modeled as disks, around a layered ensemble.

    wall_distance d [m] from the ensemble center to each wall, disk_radius
    the wall-model parameter, t1/t2 [K] the two wall temperatures,
    ensemble_extent [m] the top-to-bottom span. The nearest layer sits at
    d - extent from its wall, the farthest at d + extent.
    """

    wall_distance: float
    t1: float
    t2: float
    ensemble_extent: float
    disk_radius: float = DEFAULT_BBR_DISK_RADIUS

    def __post_init__(self) -> None:
        if not (self.wall_distance > 0 and math.isfinite(self.wall_distance)):
            raise ValueError(f"wall_distance must be positive, got {self.wall_distance!r}")
        if not (self.t1 > 0 and self.t2 > 0):
            raise ValueError(f"temperatures must be positive, got {self.t1!r}, {self.t2!r}")
        if not (0 <= self.ensemble_extent < self.wall_distance):
            raise ValueError(
                f"ensemble_extent must be in [0, wall_distance), got {self.ensemble_extent!r}"
            )
        if not (self.disk_radius > 0 and math.isfinite(self.disk_radius)):
            raise ValueError(f"disk_radius must be positive, got {self.disk_radius!r}")

    def solid_angle(self, distance: float) -> float:
        """Solid angle [sr] of the wall disk seen from `distance` on its axis."""
        return 2.0 * math.pi * (1.0 - distance / math.hypot(distance, self.disk_radius))


def bbr_field_ratio(t1: float, t2: float, omega_near: float, omega_far: float) -> float:
    """BBR field ratio (t2^4 W+ + t1^4 W-) / (t2^4 W- + t1^4 W+) between the
    two ensemble ends, W+/- the solid angles of the nearest/farthest wall."""
    t1_4 = t1**4
    t2_4 = t2**4
    # Difference form keeps ratio - 1 exact when t1 == t2 or W+ == W-.
    excess = (t2_4 - t1_4) * (omega_near - omega_far) / (t2_4 * omega_far + t1_4 * omega_near)
    return 1.0 + excess


@dataclass(frozen=True)
class BbrResult:
    """Field-ratio difference between the ensemble ends and the shift it implies."""

    field_ratio: float
    ratio_minus_one: float
    shift_fractional: float


def bbr_differential(
    geom: BbrGeometry,
    coeffs: SystematicsCoefficients = YB_COEFFICIENTS,
) -> BbrResult:
    """Differential BBR between the ensemble ends for one hot and one cold wall."""
    omega_near = geom.solid_angle(geom.wall_distance - geom.ensemble_extent)
    omega_far = geom.solid_angle(geom.wall_distance + geom.ensemble_extent)
    ratio = bbr_field_ratio(geom.t1, geom.t2, omega_near, omega_far)
    excess = ratio - 1.0
    return BbrResult(
        field_ratio=ratio,
        ratio_minus_one=excess,
        shift_fractional=coeffs.bbr_fractional * excess,
    )


def bbr_temperature_limit(
    geom: BbrGeometry,
    signal: GravitationalSignal,
    coeffs: SystematicsCoefficients = YB_COEFFICIENTS,
) -> float:
    """Wall temperature difference [K] at which the BBR differential equals
    the redshift signal; inf when even a large imbalance cannot reach it."""

    t1 = geom.t1
    omega_near = geom.solid_angle(geom.wall_distance - geom.ensemble_extent)
    omega_far = geom.solid_angle(geom.wall_distance + geom.ensemble_extent)

    def excess_shift(delta_t: float) -> float:
        ratio = bbr_field_ratio(t1, t1 + delta_t, omega_near, omega_far)
        return coeffs.bbr_fractional * (ratio - 1.0) - signal.fractional

    hi = 1e-3
    while excess_shift(hi) < 0:
        hi *= 10.0
        if hi > 1e6:
            return math.inf
    # excess_shift(0) = -signal.fractional <= 0, so [0, hi] always brackets.
    return _bisect(excess_shift, 0.0, hi, xtol=1e-12)


@dataclass(frozen=True)
class Budget:
    """Assembled budget: signal, requirement numbers, and per-effect entries."""

    signal: GravitationalSignal
    allowed_b_gradient: float
    p2_calibration_shift_hz: float
    allowed_e_gradient: float
    intensity: IntensityRatioResult
    bbr_example: BbrResult
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
    coeffs: SystematicsCoefficients = YB_COEFFICIENTS,
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
    as its `budget.` scenario key; each entry's note records the one it used.
    Zero-valued entries carry the physical reason the effect has no
    height-linear component; they are listed so the budget is exhaustive
    rather than silently omitting them.
    """
    signal = gravitational_signal(n_site, species, consts, layer_spacing)
    if signal.delta_z <= 0:
        raise ValueError("budget requires n_site >= 1 so the ensemble has extent")

    b_gradient = allowed_b_gradient(coeffs, signal)
    p2_shift = p2_calibration_shift(coeffs, b_gradient, signal.delta_z)
    e_allowed = allowed_e_gradient(coeffs, signal, baseline_e_field)

    # First-order Zeeman: the gradient itself is calibrated out via the 3P2
    # line; what survives is the calibration resolution, one linewidth of
    # gradient uncertainty mapped back onto the clock transition.
    zeeman1_residual = coeffs.zeeman1 * p2_linewidth / coeffs.p2_zeeman
    zeeman1 = _entry(
        "first-order-zeeman-calibration",
        zeeman1_residual,
        signal,
        species,
        f"gradient calibrated against the 3P2 line to one linewidth"
        f" ({p2_linewidth:.3e} Hz); residual is linewidth-limited",
    )

    zeeman2 = second_order_zeeman_check(coeffs, b_gradient, bias_field, signal, species)

    e_shift = coeffs.dc_stark * abs(
        (baseline_e_field + e_gradient * signal.delta_z) ** 2 - baseline_e_field**2
    )
    dc_stark = _entry(
        "dc-stark",
        e_shift,
        signal,
        species,
        f"assumes shielding holds the stray gradient at {e_gradient:.3g} (V/m)/m"
        f" (allowed: {e_allowed:.3g})",
    )

    separation = 100.0 * species.magic_wavelength if beam_separation is None else beam_separation
    beam = GaussianBeam(waist=beam_waist, wavelength=species.magic_wavelength)
    intensity = lattice_intensity_ratio(beam, separation)
    ac_stark = ac_stark_entry(
        intensity.max_change,
        signal,
        species,
        note=(
            f"computed peak change {intensity.max_change:.3e}"
            f" (quoted reference {REFERENCE_INTENSITY_CHANGE:.3e};"
            f" the computed value is used)"
        ),
    )

    example_geom = BbrGeometry(
        wall_distance=wall_distance,
        t1=base_temperature,
        t2=base_temperature + example_temperature_step,
        ensemble_extent=signal.delta_z,
        disk_radius=disk_radius,
    )
    bbr_example = bbr_differential(example_geom, coeffs)
    temperature_limit = bbr_temperature_limit(example_geom, signal, coeffs)
    uniform_geom = replace(example_geom, t2=base_temperature + delta_t)
    bbr_at_uniformity = bbr_differential(uniform_geom, coeffs)
    bbr = _entry(
        "bbr-differential",
        bbr_at_uniformity.shift_fractional * species.frequency,
        signal,
        species,
        f"assumes chamber uniformity of {delta_t * 1e3:.3g} mK;"
        f" shift equals the signal at {temperature_limit * 1e3:.3g} mK",
    )

    entries = [zeeman1, zeeman2, dc_stark, ac_stark, bbr]
    entries.extend(
        _entry(name, 0.0, signal, species, note) for name, note in _NEGLIGIBLE_EFFECTS
    )
    return Budget(
        signal=signal,
        allowed_b_gradient=b_gradient,
        p2_calibration_shift_hz=p2_shift,
        allowed_e_gradient=e_allowed,
        intensity=intensity,
        bbr_example=bbr_example,
        temperature_limit_k=temperature_limit,
        entries=tuple(entries),
    )
