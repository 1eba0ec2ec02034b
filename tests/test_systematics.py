from __future__ import annotations

import inspect
import math
import types
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from bisection_oracle import bisect_root

from gravclock import systematics
from gravclock.core import YB
from gravclock.scenario import Scenario
from gravclock.systematics import (
    BBR_FRACTIONAL,
    DC_STARK,
    P2_ZEEMAN,
    ZEEMAN1,
    ac_stark_shift,
    allowed_b_gradient,
    allowed_e_gradient,
    assemble_budget,
    bbr_field_excess,
    bbr_temperature_limit,
    lattice_intensity_ratio,
    p2_calibration_shift,
    rayleigh_range,
    second_order_zeeman_shift,
    wall_solid_angles,
)

DEFAULTS = Scenario()
DISK = DEFAULTS.budget_disk_radius
# The redshift signal across a 100-site cube: extent, shift in Hz, fractional.
BUDGET_100 = assemble_budget(Scenario(budget_n_site=100))
DELTA_Z, DELTA_NU, FRACTIONAL = BUDGET_100.delta_z, BUDGET_100.delta_nu, BUDGET_100.fractional


def test_signal_anchor_n100():
    assert DELTA_Z == pytest.approx(37.97e-6, rel=5e-3)
    assert DELTA_NU == pytest.approx(2.145e-6, rel=5e-3)
    assert FRACTIONAL == pytest.approx(4.14e-21, rel=1e-2)


def test_signal_linearity():
    double = assemble_budget(Scenario(budget_n_site=200))
    assert double.delta_z == pytest.approx(2 * DELTA_Z, rel=1e-15)
    assert double.delta_nu == pytest.approx(2 * DELTA_NU, rel=1e-15)


def test_allowed_b_gradient_anchor():
    gradient = allowed_b_gradient(DELTA_NU, DELTA_Z)
    assert gradient == pytest.approx(2.69e-4, rel=0.10)
    # Direct quotient for reference: ~2.83e-4 G/m.
    assert gradient == pytest.approx(2.834e-4, rel=1e-3)


def test_allowed_b_gradient_coefficient_scaling(monkeypatch):
    single = allowed_b_gradient(DELTA_NU, DELTA_Z)
    monkeypatch.setattr(systematics, "ZEEMAN1", 2 * ZEEMAN1)
    assert allowed_b_gradient(DELTA_NU, DELTA_Z) == pytest.approx(0.5 * single, rel=1e-15)


def test_allowed_b_gradient_linear_in_signal():
    assert allowed_b_gradient(0.5 * DELTA_NU, DELTA_Z) == pytest.approx(
        0.5 * allowed_b_gradient(DELTA_NU, DELTA_Z), rel=1e-15
    )


def test_p2_calibration_shift_anchor():
    # At the quoted 2.69e-4 G/m gradient over the n_site = 100 span.
    shift = p2_calibration_shift(2.69e-4, DELTA_Z)
    assert shift == pytest.approx(0.0214, rel=0.05)


def test_second_order_zeeman_passes_at_limit():
    gradient = allowed_b_gradient(DELTA_NU, DELTA_Z)
    for bias in (0.0, 0.1, 0.5, 1.0):
        assert second_order_zeeman_shift(gradient, bias, DELTA_Z) < DELTA_NU


def test_second_order_zeeman_zero_gradient():
    assert second_order_zeeman_shift(0.0, 0.5, DELTA_Z) == 0.0


def test_second_order_zeeman_huge_bias_fails():
    # The quadratic term tops the signal once the bias exceeds ~1.7e3 G at
    # the allowed gradient, so "negligible" rests on a modest-bias assumption.
    gradient = allowed_b_gradient(DELTA_NU, DELTA_Z)
    assert not second_order_zeeman_shift(gradient, 2e3, DELTA_Z) < DELTA_NU


def test_allowed_e_gradient_anchor():
    gradient = allowed_e_gradient(DELTA_NU, DELTA_Z, baseline_field=0.0)
    # Quadratic constraint at zero baseline gives ~2e4 (V/m)/m; the quoted
    # 3.04e4 implies an unstated baseline, so accept within a factor of 2.
    assert gradient == pytest.approx(2.03e4, rel=0.02)
    assert 3.04e4 / 2 <= gradient <= 3.04e4 * 2


def test_allowed_e_gradient_sqrt_scaling_at_zero_baseline(monkeypatch):
    single = allowed_e_gradient(DELTA_NU, DELTA_Z, 0.0)
    monkeypatch.setattr(systematics, "DC_STARK", 4 * DC_STARK)
    assert allowed_e_gradient(DELTA_NU, DELTA_Z, 0.0) == pytest.approx(0.5 * single, rel=1e-12)


def test_allowed_e_gradient_vanishes_with_signal():
    small = allowed_e_gradient(DELTA_NU * 1e-12, DELTA_Z, 0.0)
    assert small == pytest.approx(1e-6 * allowed_e_gradient(DELTA_NU, DELTA_Z, 0.0), rel=1e-9)
    assert allowed_e_gradient(0.0, DELTA_Z, 0.0) == 0.0


def test_allowed_e_gradient_with_baseline_is_smaller():
    with_baseline = allowed_e_gradient(DELTA_NU, DELTA_Z, baseline_field=100.0)
    without = allowed_e_gradient(DELTA_NU, DELTA_Z, baseline_field=0.0)
    assert with_baseline < without


# Rayleigh range of the default trap: 170 um waist at the Yb magic wavelength.
Z_R = rayleigh_range(170e-6, YB.magic_wavelength)


def test_rayleigh_range():
    assert Z_R == pytest.approx(math.pi * (170e-6) ** 2 / YB.magic_wavelength, rel=1e-15)


def test_intensity_ratio_default_trap():
    result = lattice_intensity_ratio(Z_R, 100 * YB.magic_wavelength)
    # Peak change ~ separation / z_R ~ 6.4e-4, below the quoted 8.46e-4.
    assert result.max_change == pytest.approx(6.35e-4, rel=0.02)
    assert result.stationarity_residual <= 1e-12
    assert result.closed_form_agrees


def test_intensity_ratio_self_check_holds_from_1e_minus_8_to_1e3():
    # The relative residual stays at rounding level over the whole range;
    # the absolute one reaches ~1e-10 at large delta, where u- ~ -delta.
    for k in range(-800, 301):
        delta = 10.0 ** (k / 100)
        result = lattice_intensity_ratio(1.0, delta)
        assert result.stationarity_residual <= 1e-12, delta
        assert result.closed_form_agrees
        # The change peaks at u- (z_R = 1: z_star is u-): the change at
        # u+ = -1/u-, delta s / (1 + u-^2), is not above it.
        u_neg = result.z_star
        assert result.max_change >= delta * math.hypot(delta, 2.0) / (1.0 + u_neg * u_neg)


def test_wrong_root_fails_the_closed_form_self_check():
    # Mutation guard: the module with u+ = s/2 (the delta -> 0 limit of the
    # root, wrong at any delta > 0) in place of 2/(delta + s) must report
    # closed_form_agrees False.
    source = inspect.getsource(systematics)
    right = "u_pos, u_neg = 2.0 / (delta + s), -0.5 * (delta + s)"
    assert source.count(right) == 1
    wrong = source.replace(right, "u_pos, u_neg = 0.5 * s, -0.5 * (delta + s)")
    mutant = types.ModuleType("gravclock.mutant_systematics")
    mutant.__package__ = "gravclock"
    exec(compile(wrong, "<mutant systematics>", "exec"), mutant.__dict__)
    for delta in (1e-8, 6.35e-4, 1.0, 1e3):
        assert lattice_intensity_ratio(1.0, delta).closed_form_agrees
        assert not mutant.lattice_intensity_ratio(1.0, delta).closed_form_agrees


def test_intensity_ratio_accepts_separation_beyond_1e3_rayleigh_ranges():
    result = lattice_intensity_ratio(1.0, 1e6)
    assert result.closed_form_agrees
    assert result.z_star == pytest.approx(-1e6, rel=1e-11)
    # At u- ~ -delta the far point u- + delta = -u+ ~ -1/delta sits at the
    # waist, so the area ratio there is ~ 1 + delta^2.
    assert result.max_change == pytest.approx(1e12, rel=1e-11)


def test_intensity_ratio_stationarity_oracle():
    z_r = Z_R
    for separation in (1e-4 * z_r, 1e-2 * z_r, 0.3 * z_r):
        result = lattice_intensity_ratio(Z_R, separation)
        delta = separation / z_r
        u = result.z_star / z_r
        assert abs(u * u + u * delta - 1.0) <= 1e-6
        # u+ < 1, so its term of the relative residual is its absolute one.
        assert result.stationarity_residual <= 1e-6


@pytest.mark.parametrize("delta", [1.0, 10.0, 1e3])
def test_intensity_ratio_closed_form_agrees_at_large_separation(delta):
    # Away from delta << 1 the roots of u^2 + u delta - 1 = 0 are far from
    # +/- sqrt(delta^2 + 4)/2, so the check must use the roots themselves.
    result = lattice_intensity_ratio(Z_R, delta * Z_R)
    assert result.closed_form_agrees
    s = math.sqrt(delta * delta + 4.0)
    assert result.z_star / Z_R == pytest.approx(-(delta + s) / 2.0, rel=1e-3)


def test_intensity_ratio_extrema_near_rayleigh_range_for_small_separation():
    z_r = Z_R
    result = lattice_intensity_ratio(Z_R, 1e-6 * z_r)
    assert result.z_star == pytest.approx(-z_r, rel=1e-3)
    assert result.closed_form_agrees


def test_intensity_ratio_change_vanishes_with_separation():
    z_r = Z_R
    small = lattice_intensity_ratio(Z_R, 1e-8 * z_r)
    assert small.max_change == pytest.approx(1e-8, rel=0.01)


def test_intensity_ratio_change_matches_direct_quotient():
    # The conditioned change profile must agree with the raw area ratio.
    z_r = Z_R
    result = lattice_intensity_ratio(Z_R, 0.2 * z_r)
    u = result.z_star / z_r
    direct = abs((1 + u**2) / (1 + (u + 0.2) ** 2) - 1.0)
    assert result.max_change == pytest.approx(direct, rel=1e-9)


def _area_ratio_excess(u: float, delta: float) -> float:
    """(r(u) - 1) / delta, the change profile of the beam-area ratio."""
    return -(2.0 * u + delta) / (1.0 + (u + delta) * (u + delta))


def _excess_slope(u: float, delta: float, h: float = 1e-5) -> float:
    """Centred-difference slope of the change profile: the numeric oracle
    for the extrema, independent of the stationarity condition."""
    return (_area_ratio_excess(u + h, delta) - _area_ratio_excess(u - h, delta)) / (2.0 * h)


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 6.35e-4, 1e-2, 0.1, 0.3, 1.0, 3.0])
def test_closed_form_extrema_match_brentq_on_excess_slope(delta):
    # The closed-form extrema against a bisected sign change of the numeric
    # slope, stopped at the xtol and rtol the brentq oracle used. The slope is
    # a centred difference with h = 1e-5, so its rounding noise (~eps/h ~
    # 2e-11) blurs the sign change over ~1e-11 in u; the bisection may stop
    # anywhere inside that band, not within its xtol. The result holds u-,
    # where the change peaks; u+ is checked through the residual (u+ < 1, so
    # its term is absolute).
    result = lattice_intensity_ratio(1.0, delta)  # z_R = 1: z is u
    ours, lo, hi = result.z_star, -delta - 2.0, -1.0
    oracle = bisect_root(lambda u: _excess_slope(u, delta), lo, hi, xtol=1e-13, rtol=1e-15)
    assert lo <= ours <= hi
    assert abs(ours - oracle) <= 1e-10
    assert abs(ours * ours + ours * delta - 1.0) <= 1e-9
    assert result.stationarity_residual <= 1e-9
    expected = delta * abs(_area_ratio_excess(ours, delta))
    assert result.max_change == pytest.approx(expected, rel=1e-14)


def test_ac_stark_anchor_exact():
    shift = ac_stark_shift(0.10, YB)
    assert shift / YB.frequency == 1e-19
    assert not shift < DELTA_NU  # 1e-19 dwarfs the n=100 signal of 4.1e-21


def test_ac_stark_linear_and_zero():
    shift = ac_stark_shift(8.46e-4, YB)
    assert shift / YB.frequency == pytest.approx(8.46e-22, rel=1e-12)
    assert shift < DELTA_NU
    assert ac_stark_shift(0.0, YB) == 0.0


def _bbr_excess(t1: float, t2: float, extent: float) -> float:
    """BBR field ratio - 1 between the ends of an ensemble 5 cm from each wall."""
    return bbr_field_excess(t1, t2, *wall_solid_angles(0.05, extent, DISK))


@pytest.mark.parametrize("q", [1e-4, 1e-7, 1e-9])
def test_solid_angle_of_a_small_disk_has_no_cancellation(q):
    # 2 pi (1 - 1/sqrt(1 + q^2)) = pi q^2 (1 - 3 q^2/4 + O(q^4)) for a disk of
    # radius q at unit distance; 1 - d/h loses every digit as q -> 0.
    near, far = wall_solid_angles(1.0, 0.0, q)
    assert near == far == pytest.approx(math.pi * q * q * (1.0 - 0.75 * q * q), rel=1e-14)


def test_solid_angle_at_tiny_scale_has_no_underflow():
    # A disk as wide as it is far subtends 2 pi (1 - 1/sqrt(2)) at any scale,
    # even where h (h + d) itself underflows to 0.
    near, far = wall_solid_angles(1e-170, 0.0, 1e-170)
    assert near == far == pytest.approx(2.0 * math.pi * (1.0 - math.sqrt(0.5)), rel=1e-14)


def test_bbr_field_excess_matches_exact_arithmetic():
    # At the default chamber, against the same expression in exact rationals.
    near, far = wall_solid_angles(0.05, DELTA_Z, DISK)
    t1 = Fraction(293.0)
    for step in (1.0, 0.010):  # the worked example and the assumed uniformity
        t2 = Fraction(293.0 + step)
        exact = (t2**4 - t1**4) * (Fraction(near) - Fraction(far)) / (
            t2**4 * Fraction(far) + t1**4 * Fraction(near)
        )
        assert bbr_field_excess(293.0, 293.0 + step, near, far) == pytest.approx(
            float(exact), rel=1e-13
        )


def test_bbr_example_anchor():
    ratio_minus_one = _bbr_excess(293.0, 294.0, DELTA_Z)
    assert ratio_minus_one == pytest.approx(1.04e-5, rel=0.5)
    assert BBR_FRACTIONAL * ratio_minus_one == pytest.approx(2.46e-20, rel=0.5)
    # The fitted default disk radius lands on the quoted number itself.
    assert ratio_minus_one == pytest.approx(1.04e-5, rel=1e-3)
    assert BUDGET_100.bbr_example_ratio_minus_one == ratio_minus_one


def test_bbr_isothermal_is_exact_unity():
    assert _bbr_excess(293.0, 293.0, 1e-5) == 0.0


def test_bbr_coincident_layers_is_exact_unity():
    assert _bbr_excess(293.0, 350.0, 0.0) == 0.0


def test_bbr_relabeling_symmetry_exact():
    # Swapping (t1, t2) together with (near, far) leaves the ratio unchanged.
    assert bbr_field_excess(293.0, 294.0, 1.3, 1.1) == bbr_field_excess(
        294.0, 293.0, 1.1, 1.3
    )


def test_bbr_temperature_limit_linearity():
    walls = wall_solid_angles(0.05, DELTA_Z, DISK)
    limit = bbr_temperature_limit(FRACTIONAL, 293.0, *walls)
    assert 0.010 <= limit <= 1.0
    half = bbr_temperature_limit(0.5 * FRACTIONAL, 293.0, *walls)
    assert half == pytest.approx(0.5 * limit, rel=1e-3)


@pytest.mark.parametrize("wall_distance", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("base_temperature", [4.0, 77.0, 293.0, 400.0])
def test_bbr_temperature_limit_matches_brentq(wall_distance, base_temperature):
    for n_site in (1, 100, 1000):
        scenario = Scenario(budget_n_site=n_site, budget_wall_distance=wall_distance)
        budget = assemble_budget(scenario)
        omega_near, omega_far = wall_solid_angles(wall_distance, budget.delta_z, DISK)

        def excess(delta_t):
            field_excess = bbr_field_excess(
                base_temperature, base_temperature + delta_t, omega_near, omega_far
            )
            return BBR_FRACTIONAL * field_excess - budget.fractional

        oracle = bisect_root(excess, 0.0, 1e6, xtol=1e-12, rtol=1e-14)
        limit = bbr_temperature_limit(
            budget.fractional, base_temperature, omega_near, omega_far
        )
        # The bisection stops within xtol = 1e-12 of a sign change.
        assert abs(limit - oracle) <= 2e-12


@pytest.mark.parametrize("wall_distance", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("base_temperature", [4.0, 77.0, 293.0, 400.0])
def test_bbr_temperature_limit_matches_exact_arithmetic(wall_distance, base_temperature):
    # The closed form t1 ((1 + eps)^(1/4) - 1) against eps in exact rationals
    # and the fourth root in 60-digit decimals, from the same float inputs.
    k = Fraction(BBR_FRACTIONAL)
    for n_site in (1, 100, 1000):
        scenario = Scenario(budget_n_site=n_site, budget_wall_distance=wall_distance)
        budget = assemble_budget(scenario)
        near, far = map(Fraction, wall_solid_angles(wall_distance, budget.delta_z, DISK))
        r = Fraction(budget.fractional) / k
        eps = r * (near + far) / (near - far - r * far)
        with localcontext() as ctx:
            ctx.prec = 60
            one_plus = Decimal(eps.numerator + eps.denominator) / Decimal(eps.denominator)
            exact = Decimal(base_temperature) * (one_plus.sqrt().sqrt() - 1)
        limit = bbr_temperature_limit(
            budget.fractional,
            base_temperature,
            *wall_solid_angles(wall_distance, budget.delta_z, DISK),
        )
        assert limit == pytest.approx(float(exact), rel=1e-12)


def test_bbr_temperature_limit_unreachable_signal_is_inf():
    # The field ratio saturates at W+/W- as t2 grows, far below this signal.
    walls = wall_solid_angles(0.05, DELTA_Z, DISK)
    assert bbr_temperature_limit(1e-10, 293.0, *walls) == math.inf


def test_bbr_geometry_validation():
    # The checks the scenario parser cannot make: the ensemble inside the
    # walls, a positive second wall, and wall weights T^4 W in float range.
    with pytest.raises(ValueError, match="budget.wall_distance"):
        assemble_budget(Scenario(budget_wall_distance=1e-5))
    with pytest.raises(ValueError, match="budget.example_temperature_step"):
        assemble_budget(Scenario(budget_example_temperature_step=-293.0))
    with pytest.raises(OverflowError, match="budget.base_temperature"):
        assemble_budget(Scenario(budget_base_temperature=1e300))
    with pytest.raises(OverflowError, match="budget.disk_radius"):
        assemble_budget(Scenario(budget_disk_radius=1e-300))


def test_default_budget_all_pass():
    budget = assemble_budget(Scenario(budget_n_site=100))
    names = [entry.name for entry in budget.entries]
    assert names[:5] == [
        "first-order-zeeman-calibration",
        "second-order-zeeman",
        "dc-stark",
        "lattice-ac-stark",
        "bbr-differential",
    ]
    assert len(budget.entries) == 10
    assert budget.all_pass
    assert budget.temperature_limit_k == pytest.approx(0.166, rel=0.05)


def test_budget_entry_fractional_consistency():
    budget = assemble_budget(Scenario(budget_n_site=100))
    for entry in budget.entries:
        assert entry.fractional == pytest.approx(
            entry.differential_shift_hz / YB.frequency, rel=1e-12, abs=1e-40
        )
        assert entry.fractional >= 0.0
        assert entry.passes == (entry.differential_shift_hz < budget.delta_nu)


def test_budget_fixed_entries_fail_without_signal():
    residual = ZEEMAN1 * DEFAULTS.budget_p2_linewidth / P2_ZEEMAN
    assert residual > 0.0
    # The assumption-scale entries have fixed shifts; against a zero signal
    # every one of them fails the strict comparison.
    assert not ac_stark_shift(8.46e-4, YB) < 0.0
    assert not second_order_zeeman_shift(2.7e-4, 1.0, DELTA_Z) < 0.0


def test_budget_assumptions_are_configurable():
    # A 10 K chamber imbalance.
    budget = assemble_budget(Scenario(budget_n_site=100, budget_delta_t=10.0))
    bbr = next(e for e in budget.entries if e.name == "bbr-differential")
    assert not bbr.passes
    assert not budget.all_pass


def test_budget_requires_extent():
    with pytest.raises(ValueError, match="budget.n_site"):
        assemble_budget(Scenario(budget_n_site=0))


def test_default_disk_radius_is_physical():
    assert 0.01 < DISK < 0.5
