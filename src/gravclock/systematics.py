"""Systematic-shift calculators and the pass/fail budget against the redshift signal.

Every calculator returns the differential shift between the top and bottom
of the ensemble, the one component that mimics the height-linear
gravitational redshift. Common-mode shifts cancel in this comparison and are
carried as explicit zero entries with their justification. The Yb shift
coefficients are the module constants ZEEMAN1, ZEEMAN2, DC_STARK, P2_ZEEMAN
and BBR_FRACTIONAL.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import FRACTIONAL_KEYS, SIGNAL_KEYS, SPACING_KEYS, ClockSpecies, relative_redshift
from .scenario import Scenario


# Shift coefficients of the Yb clock transition and its calibration line.
ZEEMAN1 = 199.516  # Hz/G, first-order Zeeman
ZEEMAN2 = -0.06095  # Hz/G^2, second-order Zeeman
DC_STARK = 3.626e-6  # Hz/(V/m)^2
P2_ZEEMAN = 2.1e6  # Hz/G, Zeeman splitting of the 3P2 calibration transition
BBR_FRACTIONAL = 2.39e-15  # total fractional BBR shift magnitude near room temperature

# Externally quoted peak intensity change for the default trap geometry.
# Direct evaluation of the beam-area ratio gives ~6.4e-4 instead; both are
# reported side by side wherever either is used.
REFERENCE_INTENSITY_CHANGE = 8.46e-4

AC_STARK_ANCHOR_CHANGE = 0.10
AC_STARK_ANCHOR_SHIFT = 1e-19


class BudgetEntry(NamedTuple):
    """One systematic effect compared against the gravitational signal, Budget.delta_nu."""

    name: str
    differential_shift_hz: float
    fractional: float
    passes: bool
    note: str


def allowed_b_gradient(delta_nu: float, delta_z: float) -> float:
    """Largest magnetic field gradient [G/m] whose first-order Zeeman
    differential stays below the redshift signal: delta_nu / (ZEEMAN1 * delta_z)."""
    return delta_nu / (ZEEMAN1 * delta_z)


def p2_calibration_shift(gradient: float, delta_z: float) -> float:
    """Top-to-bottom shift [Hz] of the 3P2 calibration line at a field gradient."""
    return P2_ZEEMAN * gradient * delta_z


def second_order_zeeman_shift(gradient: float, bias_field: float, delta_z: float) -> float:
    """Second-order Zeeman differential [Hz] for B(z) linear from the bias field."""
    b_top = bias_field + gradient * delta_z
    shift = abs(ZEEMAN2) * abs(b_top * b_top - bias_field * bias_field)
    if not shift < math.inf:
        raise OverflowError(
            f"second-order Zeeman shift at B = {b_top:.3g} G overflows; B is budget.bias_field"
            f" plus a gradient set by {SIGNAL_KEYS}"
        )
    return shift


def allowed_e_gradient(delta_nu: float, delta_z: float, baseline_field: float) -> float:
    """Largest dE/dz [(V/m)/m] keeping the DC Stark differential below the signal.

    E grows linearly from the baseline across delta_z, so the constraint
    DC_STARK * |E_top^2 - E_bot^2| <= delta_nu is quadratic in the gradient;
    this returns its positive root (-E0 + sqrt(E0^2 + delta_nu/dc)) / delta_z.
    """
    e0 = baseline_field
    return (-e0 + math.sqrt(e0 * e0 + delta_nu / DC_STARK)) / delta_z


def rayleigh_range(waist: float, wavelength: float) -> float:
    """z_R = pi w^2 / wavelength [m] of a TEM00 beam with 1/e^2 waist radius w."""
    return math.pi * waist * waist / wavelength


class IntensityRatioResult(NamedTuple):
    """Peak of the beam-area ratio w^2(z)/w^2(z + separation).

    With u = z/z_R and delta = separation/z_R, the stationarity condition
    u^2 + u delta - 1 = 0 has the roots u+ = 2/(delta + s) and
    u- = -(delta + s)/2, s = hypot(delta, 2). The change |ratio - 1| peaks
    at u-: z_star is u- z_R and max_change the change there.
    stationarity_residual is max |u^2 + u delta - 1| / max(1, u^2) over both
    roots, relative so it stays at rounding level for any delta;
    closed_form_agrees is the floating-point self-check
    stationarity_residual <= 1e-12.
    """

    z_star: float
    max_change: float
    stationarity_residual: float
    closed_form_agrees: bool


def lattice_intensity_ratio(z_r: float, separation: float) -> IntensityRatioResult:
    """Peak fractional intensity change between layers `separation` apart.

    The intensity ratio between two axial points of a beam with Rayleigh
    range z_r follows the beam-area ratio r(u) = (1 + u^2)/(1 + (u + delta)^2),
    so r - 1 = -delta (2u + delta) / (1 + (u + delta)^2). Its extrema are the
    closed-form roots u+ and u- of u^2 + u delta - 1 = 0; since u+ u- = -1 and
    u+ + u- = -delta, the change there is delta s / (1 + u-^2) at u+ and
    delta s / (1 + u+^2) at u-, free of cancellation, and it peaks at u-.
    """
    delta = separation / z_r if z_r > 0 else math.inf
    s = math.hypot(delta, 2.0)
    u_pos, u_neg = 2.0 / (delta + s), -0.5 * (delta + s)
    max_change = delta * s / (1.0 + u_pos * u_pos)
    if not (separation > 0 and z_r < math.inf and max_change < math.inf):
        raise ValueError(
            f"peak intensity change at layer separation / Rayleigh range = {separation!r} m /"
            f" {z_r!r} m is out of float range; they are set by budget.beam_separation,"
            " budget.beam_waist and species.magic_wavelength"
        )
    residual = max(abs(u * u + u * delta - 1.0) / max(1.0, u * u) for u in (u_pos, u_neg))
    return IntensityRatioResult(
        z_star=u_neg * z_r,
        max_change=max_change,
        stationarity_residual=residual,
        closed_form_agrees=residual <= 1e-12,
    )


def ac_stark_shift(intensity_change: float, species: ClockSpecies) -> float:
    """Lattice light-shift differential [Hz]: linear in the intensity change,
    anchored to a 10% change producing a 1e-19 fractional shift."""
    fractional = intensity_change / AC_STARK_ANCHOR_CHANGE * AC_STARK_ANCHOR_SHIFT
    return fractional * species.frequency


def wall_solid_angles(
    wall_distance: float, extent: float, disk_radius: float
) -> tuple[float, float]:
    """Solid angles [sr] (W+, W-) of a wall disk of disk_radius at wall_distance
    from the ensemble center, seen on axis from its nearest and farthest layer."""

    def solid_angle(distance: float) -> float:
        # 2 pi (1 - d/h) with h = hypot(d, r), written as 2 pi r^2 / (h (h + d))
        # to avoid the cancellation, as two ratios so that no denominator underflows.
        h = math.hypot(distance, disk_radius)
        return 2.0 * math.pi * (disk_radius / h) * (disk_radius / (h + distance))

    return solid_angle(wall_distance - extent), solid_angle(wall_distance + extent)


def bbr_field_excess(t1: float, t2: float, omega_near: float, omega_far: float) -> float:
    """BBR field ratio minus one, (t2^4 W+ + t1^4 W-) / (t2^4 W- + t1^4 W+) - 1,
    between the two ensemble ends, W+/- the solid angles of the nearest/farthest wall."""
    t1_4 = t1**4
    t2_4 = t2**4
    # Difference form: exact 0 when t1 == t2 or W+ == W-, and never rounded through 1 + x.
    return (t2_4 - t1_4) * (omega_near - omega_far) / (t2_4 * omega_far + t1_4 * omega_near)


def bbr_temperature_limit(
    fractional: float, t1: float, omega_near: float, omega_far: float
) -> float:
    """Wall temperature difference [K] at which the BBR differential between
    the ends of an ensemble, one wall at t1 and the other warmer, equals the
    fractional redshift signal; inf when no imbalance can reach it. The
    walls subtend W+ = omega_near and W- = omega_far (wall_solid_angles).

    With r = fractional / BBR_FRACTIONAL, BBR_FRACTIONAL * excess = fractional
    solves for (t2/t1)^4 = 1 + eps, eps = r (W+ + W-) / (W+ - W- - r W-), so
    the limit is t1 ((1 + eps)^(1/4) - 1), taken as t1 expm1(log1p(eps) / 4). The excess
    saturates at W+/W- - 1 as t2 grows, so the limit is inf unless
    W+ - W- - r W- > 0.
    """
    r = fractional / BBR_FRACTIONAL
    room = omega_near - omega_far - r * omega_far
    if not room > 0:
        return math.inf
    return t1 * math.expm1(math.log1p(r * (omega_near + omega_far) / room) / 4.0)


class Budget(NamedTuple):
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


def assemble_budget(scenario: Scenario = Scenario()) -> Budget:
    """Evaluate every systematic against the redshift signal at one lattice size.

    The experimental conditions are the scenario's `budget.` keys, with its
    species, constants and layer spacing; each entry's note records the one
    it used, and a refusal names the keys behind the value it refuses.
    Zero-valued entries carry the physical reason the effect has no
    height-linear component; they are listed so the budget is exhaustive
    rather than silently omitting them.
    """
    species, t1 = scenario.species_obj(), scenario.budget_base_temperature
    if not species.frequency > 0:
        raise ValueError(
            f"frequency omega0 / 2 pi underflows to 0 Hz at species.omega0 = {species.omega0!r}"
        )
    n_site, wall_distance = scenario.budget_n_site, scenario.budget_wall_distance
    disk_radius, delta_t = scenario.budget_disk_radius, scenario.budget_delta_t
    e0, e_gradient = scenario.budget_baseline_e_field, scenario.budget_e_gradient
    bias, linewidth = scenario.budget_bias_field, scenario.budget_p2_linewidth
    delta_z = n_site * scenario.layer_spacing() if n_site <= sys.float_info.max else math.inf
    if not 0 < delta_z < wall_distance:
        raise ValueError(
            f"ensemble extent delta_z = {delta_z!r} m must lie in (0, budget.wall_distance ="
            f" {wall_distance!r} m); delta_z is budget.n_site times {SPACING_KEYS}"
        )
    t2 = t1 + scenario.budget_example_temperature_step
    if not t2 > 0:
        raise ValueError(
            f"second wall temperature budget.base_temperature + budget.example_temperature_step"
            f" = {t2!r} K must be positive"
        )
    fractional = relative_redshift(scenario.consts_obj(), delta_z)
    delta_nu = species.frequency * fractional

    b_gradient = allowed_b_gradient(delta_nu, delta_z)
    p2_shift = p2_calibration_shift(b_gradient, delta_z)
    e_allowed = allowed_e_gradient(delta_nu, delta_z, e0)

    # First-order Zeeman: the gradient itself is calibrated out via the 3P2
    # line; what survives is the calibration resolution, one linewidth of
    # gradient uncertainty mapped back onto the clock transition.
    zeeman1_residual = ZEEMAN1 * linewidth / P2_ZEEMAN
    if zeeman1_residual == math.inf:
        raise OverflowError(
            f"first-order Zeeman residual overflows at budget.p2_linewidth = {linewidth!r} Hz"
        )

    e_top = e0 + e_gradient * delta_z
    if not e_top < math.sqrt(sys.float_info.max):
        raise OverflowError(
            f"DC Stark field budget.baseline_e_field + budget.e_gradient * delta_z = {e_top!r} V/m"
            " is out of range: its square overflows"
        )
    e_shift = DC_STARK * abs(e_top**2 - e0**2)

    separation = scenario.budget_beam_separation
    if separation is None:
        separation = 100.0 * species.magic_wavelength
    intensity = lattice_intensity_ratio(
        rayleigh_range(scenario.budget_beam_waist, species.magic_wavelength), separation
    )

    near, far = wall_solid_angles(wall_distance, delta_z, disk_radius)
    try:
        example = bbr_field_excess(t1, t2, near, far)
        uniform = bbr_field_excess(t1, t1 + delta_t, near, far)
        temperature_limit = bbr_temperature_limit(fractional, t1, near, far)
    except (ArithmeticError, ValueError):
        # T^4 overflows, or T^4 W underflows to 0/0.
        example = uniform = math.nan
    if not math.isfinite(example + uniform):
        raise OverflowError(
            "BBR field weights T^4 W are out of float range: the wall temperatures are set by"
            " budget.base_temperature, budget.example_temperature_step and budget.delta_t, the"
            " solid angles W by budget.wall_distance and budget.disk_radius"
        )
    if temperature_limit == math.inf:
        raise ValueError(
            f"no wall lifts the BBR differential up to the redshift signal of {FRACTIONAL_KEYS}:"
            " budget.wall_distance and budget.disk_radius cap it"
        )

    rows = [
        (
            "first-order-zeeman-calibration",
            zeeman1_residual,
            f"gradient calibrated against the 3P2 line to one linewidth"
            f" ({linewidth:.3e} Hz); residual is linewidth-limited",
        ),
        (
            "second-order-zeeman",
            second_order_zeeman_shift(b_gradient, bias, delta_z),
            f"field gradient {b_gradient:.3e} G/m on a {bias:.3g} G bias",
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
            BBR_FRACTIONAL * uniform * species.frequency,
            f"assumes chamber uniformity of {delta_t * 1e3:.3g} mK;"
            f" shift equals the signal at {temperature_limit * 1e3:.3g} mK",
        ),
        *((name, 0.0, note) for name, note in _NEGLIGIBLE_EFFECTS),
    ]
    entries = tuple(
        BudgetEntry(name, shift, shift / species.frequency, shift < delta_nu, note)
        for name, shift, note in rows
    )
    for entry in entries:
        # A subnormal frequency is above 0 but still overflows the quotient.
        if not abs(entry.fractional) < math.inf:
            raise OverflowError(
                f"fractional {entry.name} shift {entry.differential_shift_hz!r} Hz /"
                f" {species.frequency!r} Hz is out of float range; the clock frequency"
                " omega0 / 2 pi is set by species.omega0"
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
        bbr_example_shift_fractional=BBR_FRACTIONAL * example,
        temperature_limit_k=temperature_limit,
        entries=entries,
    )
