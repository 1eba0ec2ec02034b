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
    BbrGeometry,
    GaussianBeam,
    GravitationalSignal,
    ac_stark_entry,
    allowed_b_gradient,
    allowed_e_gradient,
    assemble_budget,
    bbr_differential,
    bbr_field_ratio,
    bbr_temperature_limit,
    gravitational_signal,
    lattice_intensity_ratio,
    p2_calibration_shift,
    second_order_zeeman_check,
)

SIGNAL_100 = gravitational_signal(100)


def test_signal_anchor_n100():
    assert SIGNAL_100.delta_z == pytest.approx(37.97e-6, rel=5e-3)
    assert SIGNAL_100.delta_nu == pytest.approx(2.145e-6, rel=5e-3)
    assert SIGNAL_100.fractional == pytest.approx(4.14e-21, rel=1e-2)


def test_signal_zero_and_linearity():
    zero = gravitational_signal(0)
    assert zero.delta_z == 0.0 and zero.delta_nu == 0.0
    double = gravitational_signal(200)
    assert double.delta_z == pytest.approx(2 * SIGNAL_100.delta_z, rel=1e-15)
    assert double.delta_nu == pytest.approx(2 * SIGNAL_100.delta_nu, rel=1e-15)


def test_allowed_b_gradient_anchor():
    gradient = allowed_b_gradient(YB_COEFFICIENTS, SIGNAL_100)
    assert gradient == pytest.approx(2.69e-4, rel=0.10)
    # Direct quotient for reference: ~2.83e-4 G/m.
    assert gradient == pytest.approx(2.834e-4, rel=1e-3)


def test_allowed_b_gradient_coefficient_scaling():
    doubled = replace(YB_COEFFICIENTS, zeeman1=2 * YB_COEFFICIENTS.zeeman1)
    assert allowed_b_gradient(doubled, SIGNAL_100) == pytest.approx(
        0.5 * allowed_b_gradient(YB_COEFFICIENTS, SIGNAL_100), rel=1e-15
    )


def test_allowed_b_gradient_linear_in_signal():
    half = replace(SIGNAL_100, delta_nu=0.5 * SIGNAL_100.delta_nu)
    assert allowed_b_gradient(YB_COEFFICIENTS, half) == pytest.approx(
        0.5 * allowed_b_gradient(YB_COEFFICIENTS, SIGNAL_100), rel=1e-15
    )


def test_p2_calibration_shift_anchor():
    # At the quoted 2.69e-4 G/m gradient over the n_site = 100 span.
    shift = p2_calibration_shift(YB_COEFFICIENTS, 2.69e-4, SIGNAL_100.delta_z)
    assert shift == pytest.approx(0.0214, rel=0.05)


def test_second_order_zeeman_passes_at_limit():
    gradient = allowed_b_gradient(YB_COEFFICIENTS, SIGNAL_100)
    entry = second_order_zeeman_check(YB_COEFFICIENTS, gradient, 0.1, SIGNAL_100)
    assert entry.passes
    for bias in (0.0, 0.5, 1.0):
        assert second_order_zeeman_check(YB_COEFFICIENTS, gradient, bias, SIGNAL_100).passes


def test_second_order_zeeman_zero_gradient():
    entry = second_order_zeeman_check(YB_COEFFICIENTS, 0.0, 0.5, SIGNAL_100)
    assert entry.differential_shift_hz == 0.0


def test_second_order_zeeman_huge_bias_fails():
    # The quadratic term tops the signal once the bias exceeds ~1.7e3 G at
    # the allowed gradient, so "negligible" rests on a modest-bias assumption.
    gradient = allowed_b_gradient(YB_COEFFICIENTS, SIGNAL_100)
    entry = second_order_zeeman_check(YB_COEFFICIENTS, gradient, 2e3, SIGNAL_100)
    assert not entry.passes


def test_allowed_e_gradient_anchor():
    gradient = allowed_e_gradient(YB_COEFFICIENTS, SIGNAL_100, baseline_field=0.0)
    # Quadratic constraint at zero baseline gives ~2e4 (V/m)/m; the quoted
    # 3.04e4 implies an unstated baseline, so accept within a factor of 2.
    assert gradient == pytest.approx(2.03e4, rel=0.02)
    assert 3.04e4 / 2 <= gradient <= 3.04e4 * 2


def test_allowed_e_gradient_sqrt_scaling_at_zero_baseline():
    quadrupled = replace(YB_COEFFICIENTS, dc_stark=4 * YB_COEFFICIENTS.dc_stark)
    assert allowed_e_gradient(quadrupled, SIGNAL_100) == pytest.approx(
        0.5 * allowed_e_gradient(YB_COEFFICIENTS, SIGNAL_100), rel=1e-12
    )


def test_allowed_e_gradient_vanishes_with_signal():
    tiny = replace(SIGNAL_100, delta_nu=SIGNAL_100.delta_nu * 1e-12)
    small = allowed_e_gradient(YB_COEFFICIENTS, tiny)
    assert small == pytest.approx(1e-6 * allowed_e_gradient(YB_COEFFICIENTS, SIGNAL_100), rel=1e-9)
    zero = replace(SIGNAL_100, delta_nu=0.0)
    assert allowed_e_gradient(YB_COEFFICIENTS, zero) == 0.0


def test_allowed_e_gradient_with_baseline_is_smaller():
    with_baseline = allowed_e_gradient(YB_COEFFICIENTS, SIGNAL_100, baseline_field=100.0)
    without = allowed_e_gradient(YB_COEFFICIENTS, SIGNAL_100, baseline_field=0.0)
    assert with_baseline < without


DEFAULT_BEAM = GaussianBeam(waist=170e-6, wavelength=YB.magic_wavelength)


def test_rayleigh_range():
    assert DEFAULT_BEAM.rayleigh_range == pytest.approx(
        math.pi * (170e-6) ** 2 / YB.magic_wavelength, rel=1e-15
    )
    assert DEFAULT_BEAM.width(0.0) == 170e-6
    assert DEFAULT_BEAM.width(DEFAULT_BEAM.rayleigh_range) == pytest.approx(
        170e-6 * math.sqrt(2), rel=1e-12
    )


def test_intensity_ratio_default_trap():
    result = lattice_intensity_ratio(DEFAULT_BEAM, 100 * YB.magic_wavelength)
    # Peak change ~ separation / z_R ~ 6.4e-4, below the quoted 8.46e-4.
    assert result.max_change == pytest.approx(6.35e-4, rel=0.02)
    assert result.stationarity_residual <= 1e-6
    assert result.closed_form_agrees


def test_intensity_ratio_stationarity_oracle():
    z_r = DEFAULT_BEAM.rayleigh_range
    for separation in (1e-4 * z_r, 1e-2 * z_r, 0.3 * z_r):
        result = lattice_intensity_ratio(DEFAULT_BEAM, separation)
        delta = separation / z_r
        for z in result.z_extrema_m:
            u = z / z_r
            assert abs(u * u + u * delta - 1.0) <= 1e-6


def test_intensity_ratio_extrema_near_rayleigh_range_for_small_separation():
    z_r = DEFAULT_BEAM.rayleigh_range
    result = lattice_intensity_ratio(DEFAULT_BEAM, 1e-6 * z_r)
    assert result.z_extrema_m[0] == pytest.approx(z_r, rel=1e-3)
    assert result.z_extrema_m[1] == pytest.approx(-z_r, rel=1e-3)


def test_intensity_ratio_change_vanishes_with_separation():
    z_r = DEFAULT_BEAM.rayleigh_range
    small = lattice_intensity_ratio(DEFAULT_BEAM, 1e-8 * z_r)
    assert small.max_change == pytest.approx(1e-8, rel=0.01)


def test_intensity_ratio_change_matches_direct_quotient():
    # The conditioned change profile must agree with the raw area ratio.
    z_r = DEFAULT_BEAM.rayleigh_range
    result = lattice_intensity_ratio(DEFAULT_BEAM, 0.2 * z_r)
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
    entry = ac_stark_entry(0.10, SIGNAL_100)
    assert entry.fractional == 1e-19
    assert not entry.passes  # 1e-19 dwarfs the n=100 signal of 4.1e-21


def test_ac_stark_linear_and_zero():
    entry = ac_stark_entry(8.46e-4, SIGNAL_100)
    assert entry.fractional == pytest.approx(8.46e-22, rel=1e-12)
    assert entry.passes
    assert ac_stark_entry(0.0, SIGNAL_100).fractional == 0.0


def test_bbr_example_anchor():
    geom = BbrGeometry(
        wall_distance=0.05, t1=293.0, t2=294.0, ensemble_extent=SIGNAL_100.delta_z
    )
    result = bbr_differential(geom)
    assert result.ratio_minus_one == pytest.approx(1.04e-5, rel=0.5)
    assert result.shift_fractional == pytest.approx(2.46e-20, rel=0.5)
    # The fitted default disk radius lands on the quoted number itself.
    assert result.ratio_minus_one == pytest.approx(1.04e-5, rel=1e-3)


def test_bbr_isothermal_is_exact_unity():
    geom = BbrGeometry(wall_distance=0.05, t1=293.0, t2=293.0, ensemble_extent=1e-5)
    assert bbr_differential(geom).field_ratio == 1.0


def test_bbr_coincident_layers_is_exact_unity():
    geom = BbrGeometry(wall_distance=0.05, t1=293.0, t2=350.0, ensemble_extent=0.0)
    assert bbr_differential(geom).field_ratio == 1.0


def test_bbr_relabeling_symmetry_exact():
    # Swapping (t1, t2) together with (near, far) leaves the ratio unchanged.
    assert bbr_field_ratio(293.0, 294.0, 1.3, 1.1) == bbr_field_ratio(
        294.0, 293.0, 1.1, 1.3
    )


def test_bbr_temperature_limit_linearity():
    geom = BbrGeometry(
        wall_distance=0.05, t1=293.0, t2=294.0, ensemble_extent=SIGNAL_100.delta_z
    )
    limit = bbr_temperature_limit(geom, SIGNAL_100)
    assert 0.010 <= limit <= 1.0
    half_signal = replace(
        SIGNAL_100,
        delta_nu=0.5 * SIGNAL_100.delta_nu,
        fractional=0.5 * SIGNAL_100.fractional,
    )
    assert bbr_temperature_limit(geom, half_signal) == pytest.approx(0.5 * limit, rel=1e-3)


@pytest.mark.parametrize("wall_distance", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("base_temperature", [4.0, 77.0, 293.0, 400.0])
def test_bbr_temperature_limit_matches_brentq(wall_distance, base_temperature):
    for n_site in (1, 100, 1000):
        signal = gravitational_signal(n_site)
        geom = BbrGeometry(
            wall_distance=wall_distance,
            t1=base_temperature,
            t2=base_temperature + 1.0,
            ensemble_extent=signal.delta_z,
        )

        def excess(delta_t):
            probe = replace(geom, t2=geom.t1 + delta_t)
            return bbr_differential(probe).shift_fractional - signal.fractional

        oracle = brentq(excess, 0.0, 1e6, xtol=1e-12, rtol=1e-14)
        # Each finder stops within xtol = 1e-12 of a sign change.
        assert abs(bbr_temperature_limit(geom, signal) - oracle) <= 2e-12


def test_bbr_temperature_limit_unreachable_signal_is_inf():
    geom = BbrGeometry(
        wall_distance=0.05, t1=293.0, t2=294.0, ensemble_extent=SIGNAL_100.delta_z
    )
    # The field ratio saturates at W+/W- as t2 grows, far below this signal.
    huge = replace(SIGNAL_100, fractional=1e-10)
    assert bbr_temperature_limit(geom, huge) == math.inf


def test_bbr_geometry_validation():
    with pytest.raises(ValueError):
        BbrGeometry(wall_distance=-0.05, t1=293.0, t2=294.0, ensemble_extent=1e-5)
    with pytest.raises(ValueError):
        BbrGeometry(wall_distance=0.05, t1=0.0, t2=294.0, ensemble_extent=1e-5)
    with pytest.raises(ValueError):
        BbrGeometry(wall_distance=0.05, t1=293.0, t2=294.0, ensemble_extent=0.06)


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
    zero_signal = GravitationalSignal(n_site=100, delta_z=SIGNAL_100.delta_z, delta_nu=0.0, fractional=0.0)
    coeffs = YB_COEFFICIENTS
    residual = coeffs.zeeman1 * P2_NATURAL_LINEWIDTH_HZ / coeffs.p2_zeeman
    assert residual > 0.0
    # The assumption-scale entries have fixed shifts; against a zero signal
    # every one of them fails the strict comparison.
    entry = ac_stark_entry(8.46e-4, zero_signal)
    assert not entry.passes
    entry = second_order_zeeman_check(coeffs, 2.7e-4, 1.0, zero_signal)
    assert not entry.passes


def test_budget_assumptions_are_configurable():
    budget = assemble_budget(n_site=100, delta_t=10.0)  # 10 K chamber imbalance
    bbr = next(e for e in budget.entries if e.name == "bbr-differential")
    assert not bbr.passes
    assert not budget.all_pass


def test_budget_requires_extent():
    with pytest.raises(ValueError):
        assemble_budget(n_site=0)


def test_default_disk_radius_is_physical():
    assert 0.01 < DEFAULT_BBR_DISK_RADIUS < 0.5
