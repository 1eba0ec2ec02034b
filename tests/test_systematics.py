from __future__ import annotations

import math
from dataclasses import replace

import pytest
from scipy.optimize import brentq

from gravclock.core import DEFAULT_BBR_DISK_RADIUS, P2_NATURAL_LINEWIDTH_HZ, YB
from gravclock.systematics import (
    _bisect,
    _excess_slope,
    YB_COEFFICIENTS,
    ac_stark_shift,
    allowed_b_gradient,
    allowed_e_gradient,
    assemble_budget,
    bbr_field_ratio,
    bbr_temperature_limit,
    lattice_intensity_ratio,
    p2_calibration_shift,
    rayleigh_range,
    second_order_zeeman_shift,
    wall_solid_angles,
)

# The redshift signal across a 100-site cube: extent, shift in Hz, fractional.
BUDGET_100 = assemble_budget(n_site=100)
DELTA_Z, DELTA_NU, FRACTIONAL = BUDGET_100.delta_z, BUDGET_100.delta_nu, BUDGET_100.fractional


def test_signal_anchor_n100():
    assert DELTA_Z == pytest.approx(37.97e-6, rel=5e-3)
    assert DELTA_NU == pytest.approx(2.145e-6, rel=5e-3)
    assert FRACTIONAL == pytest.approx(4.14e-21, rel=1e-2)


def test_signal_linearity():
    double = assemble_budget(n_site=200)
    assert double.delta_z == pytest.approx(2 * DELTA_Z, rel=1e-15)
    assert double.delta_nu == pytest.approx(2 * DELTA_NU, rel=1e-15)


def test_allowed_b_gradient_anchor():
    gradient = allowed_b_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z)
    assert gradient == pytest.approx(2.69e-4, rel=0.10)
    # Direct quotient for reference: ~2.83e-4 G/m.
    assert gradient == pytest.approx(2.834e-4, rel=1e-3)


def test_allowed_b_gradient_coefficient_scaling():
    doubled = replace(YB_COEFFICIENTS, zeeman1=2 * YB_COEFFICIENTS.zeeman1)
    assert allowed_b_gradient(doubled, DELTA_NU, DELTA_Z) == pytest.approx(
        0.5 * allowed_b_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z), rel=1e-15
    )


def test_allowed_b_gradient_linear_in_signal():
    assert allowed_b_gradient(YB_COEFFICIENTS, 0.5 * DELTA_NU, DELTA_Z) == pytest.approx(
        0.5 * allowed_b_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z), rel=1e-15
    )


def test_p2_calibration_shift_anchor():
    # At the quoted 2.69e-4 G/m gradient over the n_site = 100 span.
    shift = p2_calibration_shift(YB_COEFFICIENTS, 2.69e-4, DELTA_Z)
    assert shift == pytest.approx(0.0214, rel=0.05)


def test_second_order_zeeman_passes_at_limit():
    gradient = allowed_b_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z)
    for bias in (0.0, 0.1, 0.5, 1.0):
        assert second_order_zeeman_shift(YB_COEFFICIENTS, gradient, bias, DELTA_Z) < DELTA_NU


def test_second_order_zeeman_zero_gradient():
    assert second_order_zeeman_shift(YB_COEFFICIENTS, 0.0, 0.5, DELTA_Z) == 0.0


def test_second_order_zeeman_huge_bias_fails():
    # The quadratic term tops the signal once the bias exceeds ~1.7e3 G at
    # the allowed gradient, so "negligible" rests on a modest-bias assumption.
    gradient = allowed_b_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z)
    assert not second_order_zeeman_shift(YB_COEFFICIENTS, gradient, 2e3, DELTA_Z) < DELTA_NU


def test_allowed_e_gradient_anchor():
    gradient = allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z, baseline_field=0.0)
    # Quadratic constraint at zero baseline gives ~2e4 (V/m)/m; the quoted
    # 3.04e4 implies an unstated baseline, so accept within a factor of 2.
    assert gradient == pytest.approx(2.03e4, rel=0.02)
    assert 3.04e4 / 2 <= gradient <= 3.04e4 * 2


def test_allowed_e_gradient_sqrt_scaling_at_zero_baseline():
    quadrupled = replace(YB_COEFFICIENTS, dc_stark=4 * YB_COEFFICIENTS.dc_stark)
    assert allowed_e_gradient(quadrupled, DELTA_NU, DELTA_Z) == pytest.approx(
        0.5 * allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z), rel=1e-12
    )


def test_allowed_e_gradient_vanishes_with_signal():
    small = allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU * 1e-12, DELTA_Z)
    assert small == pytest.approx(
        1e-6 * allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z), rel=1e-9
    )
    assert allowed_e_gradient(YB_COEFFICIENTS, 0.0, DELTA_Z) == 0.0


def test_allowed_e_gradient_with_baseline_is_smaller():
    with_baseline = allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z, baseline_field=100.0)
    without = allowed_e_gradient(YB_COEFFICIENTS, DELTA_NU, DELTA_Z, baseline_field=0.0)
    assert with_baseline < without


# Rayleigh range of the default trap: 170 um waist at the Yb magic wavelength.
Z_R = rayleigh_range(170e-6, YB.magic_wavelength)


def test_rayleigh_range():
    assert Z_R == pytest.approx(math.pi * (170e-6) ** 2 / YB.magic_wavelength, rel=1e-15)


def test_intensity_ratio_default_trap():
    result = lattice_intensity_ratio(Z_R, 100 * YB.magic_wavelength)
    # Peak change ~ separation / z_R ~ 6.4e-4, below the quoted 8.46e-4.
    assert result.max_change == pytest.approx(6.35e-4, rel=0.02)
    assert result.stationarity_residual <= 1e-6
    assert result.closed_form_agrees


def test_intensity_ratio_stationarity_oracle():
    z_r = Z_R
    for separation in (1e-4 * z_r, 1e-2 * z_r, 0.3 * z_r):
        result = lattice_intensity_ratio(Z_R, separation)
        delta = separation / z_r
        for z in result.z_extrema_m:
            u = z / z_r
            assert abs(u * u + u * delta - 1.0) <= 1e-6


def test_intensity_ratio_extrema_near_rayleigh_range_for_small_separation():
    z_r = Z_R
    result = lattice_intensity_ratio(Z_R, 1e-6 * z_r)
    assert result.z_extrema_m[0] == pytest.approx(z_r, rel=1e-3)
    assert result.z_extrema_m[1] == pytest.approx(-z_r, rel=1e-3)


def test_intensity_ratio_change_vanishes_with_separation():
    z_r = Z_R
    small = lattice_intensity_ratio(Z_R, 1e-8 * z_r)
    assert small.max_change == pytest.approx(1e-8, rel=0.01)


def test_intensity_ratio_change_matches_direct_quotient():
    # The conditioned change profile must agree with the raw area ratio.
    z_r = Z_R
    result = lattice_intensity_ratio(Z_R, 0.2 * z_r)
    for z, change in zip(result.z_extrema_m, result.changes):
        u = z / z_r
        direct = abs((1 + u**2) / (1 + (u + 0.2) ** 2) - 1.0)
        assert change == pytest.approx(direct, rel=1e-9)


def test_bisect_stops_at_xtol_and_at_float_resolution():
    root = math.sqrt(2.0)
    assert abs(_bisect(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-6) - root) <= 0.5e-6
    # xtol = 0 ends only when the midpoint rounds onto an endpoint.
    assert _bisect(lambda x: x * x - 2.0, 0.0, 2.0, xtol=0.0) == pytest.approx(root, rel=1e-15)
    assert _bisect(lambda x: x - 0.5, 0.0, 0.5, xtol=1e-13) == 0.5


def test_bisect_rejects_bracket_without_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(ValueError, match="no sign change"):
        _bisect(lambda x: math.nan, 0.0, 1.0, xtol=1e-12)


@pytest.mark.parametrize("delta", [1e-8, 1e-6, 1e-4, 6.35e-4, 1e-2, 0.1, 0.3, 1.0, 3.0])
def test_bisect_matches_brentq_on_excess_slope(delta):
    # The slope is a centred difference with h = 1e-5, so its rounding noise
    # (~eps/h ~ 2e-11) blurs the sign change over ~1e-11 in u; the two
    # finders may pick different crossings inside that band, not within xtol.
    for lo, hi in ((1e-12, 2.0), (-delta - 2.0, -1.0)):
        ours = _bisect(lambda u: _excess_slope(u, delta), lo, hi, xtol=1e-13)
        oracle = brentq(_excess_slope, lo, hi, args=(delta,), xtol=1e-13, rtol=1e-15)
        assert lo <= ours <= hi
        assert abs(ours - oracle) <= 1e-10
        assert abs(ours * ours + ours * delta - 1.0) <= 1e-9


def test_ac_stark_anchor_exact():
    shift = ac_stark_shift(0.10)
    assert shift / YB.frequency == 1e-19
    assert not shift < DELTA_NU  # 1e-19 dwarfs the n=100 signal of 4.1e-21


def test_ac_stark_linear_and_zero():
    shift = ac_stark_shift(8.46e-4)
    assert shift / YB.frequency == pytest.approx(8.46e-22, rel=1e-12)
    assert shift < DELTA_NU
    assert ac_stark_shift(0.0) == 0.0


def _bbr_excess(t1: float, t2: float, extent: float) -> float:
    """BBR field ratio - 1 between the ends of an ensemble 5 cm from each wall."""
    return bbr_field_ratio(t1, t2, *wall_solid_angles(0.05, extent)) - 1.0


def test_bbr_example_anchor():
    ratio_minus_one = _bbr_excess(293.0, 294.0, DELTA_Z)
    assert ratio_minus_one == pytest.approx(1.04e-5, rel=0.5)
    assert YB_COEFFICIENTS.bbr_fractional * ratio_minus_one == pytest.approx(2.46e-20, rel=0.5)
    # The fitted default disk radius lands on the quoted number itself.
    assert ratio_minus_one == pytest.approx(1.04e-5, rel=1e-3)
    assert BUDGET_100.bbr_example_ratio_minus_one == ratio_minus_one


def test_bbr_isothermal_is_exact_unity():
    assert _bbr_excess(293.0, 293.0, 1e-5) == 0.0


def test_bbr_coincident_layers_is_exact_unity():
    assert _bbr_excess(293.0, 350.0, 0.0) == 0.0


def test_bbr_relabeling_symmetry_exact():
    # Swapping (t1, t2) together with (near, far) leaves the ratio unchanged.
    assert bbr_field_ratio(293.0, 294.0, 1.3, 1.1) == bbr_field_ratio(
        294.0, 293.0, 1.1, 1.3
    )


def test_bbr_temperature_limit_linearity():
    limit = bbr_temperature_limit(FRACTIONAL, 0.05, 293.0, DELTA_Z)
    assert 0.010 <= limit <= 1.0
    half = bbr_temperature_limit(0.5 * FRACTIONAL, 0.05, 293.0, DELTA_Z)
    assert half == pytest.approx(0.5 * limit, rel=1e-3)


@pytest.mark.parametrize("wall_distance", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("base_temperature", [4.0, 77.0, 293.0, 400.0])
def test_bbr_temperature_limit_matches_brentq(wall_distance, base_temperature):
    for n_site in (1, 100, 1000):
        budget = assemble_budget(n_site, wall_distance=wall_distance)
        omega_near, omega_far = wall_solid_angles(wall_distance, budget.delta_z)

        def excess(delta_t):
            ratio = bbr_field_ratio(
                base_temperature, base_temperature + delta_t, omega_near, omega_far
            )
            return YB_COEFFICIENTS.bbr_fractional * (ratio - 1.0) - budget.fractional

        oracle = brentq(excess, 0.0, 1e6, xtol=1e-12, rtol=1e-14)
        limit = bbr_temperature_limit(
            budget.fractional, wall_distance, base_temperature, budget.delta_z
        )
        # Each finder stops within xtol = 1e-12 of a sign change.
        assert abs(limit - oracle) <= 2e-12


def test_bbr_temperature_limit_unreachable_signal_is_inf():
    # The field ratio saturates at W+/W- as t2 grows, far below this signal.
    assert bbr_temperature_limit(1e-10, 0.05, 293.0, DELTA_Z) == math.inf


def test_bbr_geometry_validation():
    # The checks the scenario parser cannot make: the ensemble inside the
    # walls, a positive second wall, and wall weights T^4 W in float range.
    with pytest.raises(ValueError, match="budget.wall_distance"):
        assemble_budget(wall_distance=1e-5)
    with pytest.raises(ValueError, match="budget.example_temperature_step"):
        assemble_budget(example_temperature_step=-293.0)
    with pytest.raises(OverflowError, match="budget.base_temperature"):
        assemble_budget(base_temperature=1e300)
    with pytest.raises(OverflowError, match="budget.disk_radius"):
        assemble_budget(disk_radius=1e-300)


def test_default_budget_all_pass():
    budget = assemble_budget(n_site=100)
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
    budget = assemble_budget(n_site=100)
    for entry in budget.entries:
        assert entry.fractional == pytest.approx(
            entry.differential_shift_hz / YB.frequency, rel=1e-12, abs=1e-40
        )
        assert entry.fractional >= 0.0
        assert entry.passes == (entry.differential_shift_hz < entry.reference_signal_hz)


def test_budget_fixed_entries_fail_without_signal():
    coeffs = YB_COEFFICIENTS
    residual = coeffs.zeeman1 * P2_NATURAL_LINEWIDTH_HZ / coeffs.p2_zeeman
    assert residual > 0.0
    # The assumption-scale entries have fixed shifts; against a zero signal
    # every one of them fails the strict comparison.
    assert not ac_stark_shift(8.46e-4) < 0.0
    assert not second_order_zeeman_shift(coeffs, 2.7e-4, 1.0, DELTA_Z) < 0.0


def test_budget_assumptions_are_configurable():
    budget = assemble_budget(n_site=100, delta_t=10.0)  # 10 K chamber imbalance
    bbr = next(e for e in budget.entries if e.name == "bbr-differential")
    assert not bbr.passes
    assert not budget.all_pass


def test_budget_requires_extent():
    with pytest.raises(ValueError, match="budget.n_site"):
        assemble_budget(n_site=0)


def test_default_disk_radius_is_physical():
    assert 0.01 < DEFAULT_BBR_DISK_RADIUS < 0.5
