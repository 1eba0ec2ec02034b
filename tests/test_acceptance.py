"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v` (or -s to see the PASS lines
directly); each test covers one numbered criterion and prints its verdict.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from layer_sum_oracle import explicit_layer_sum

from gravclock.cli import main
from gravclock.core import (
    DEFAULT_SLAB_ATOMS_PER_LAYER,
    PhysicalConstants,
    YB,
    default_size_grid,
    per_layer_phase_rate,
    per_layer_sql,
    qpn_stability,
    relative_redshift,
)
from gravclock.dephasing import (
    Convention,
    DephasingInput,
    bloch_sum,
    dirichlet,
    effective_phase_rate,
)
from gravclock.scenario import Scenario, parse_scenario, serialize_scenario
from gravclock.sweep import scaling_exponent, sweep
from gravclock.systematics import (
    YB_COEFFICIENTS,
    ac_stark_shift,
    allowed_b_gradient,
    assemble_budget,
    bbr_field_excess,
    lattice_intensity_ratio,
    p2_calibration_shift,
    rayleigh_range,
    wall_solid_angles,
)
from gravclock.thresholds import (
    TauMaxProblem,
    decoherence_atom_count,
    decoherence_sizes,
    solve_tau_max,
)

CONSTS = PhysicalConstants()
PHI_G = per_layer_phase_rate(CONSTS, YB, YB.default_layer_spacing)
PF = Convention.PAPER_FIGURE


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def yb_sweep(family: str, sizes, phi_l_grid):
    """A paper-figure sweep of Yb at its magic-wavelength spacing, slab layers
    of DEFAULT_SLAB_ATOMS_PER_LAYER atoms."""
    return sweep(
        family,
        sizes,
        phi_l_grid,
        PF,
        DEFAULT_SLAB_ATOMS_PER_LAYER,
        YB,
        CONSTS,
        YB.default_layer_spacing,
    )


@functools.lru_cache(maxsize=None)
def cubic_curve(phi_l: float):
    return tuple(yb_sweep("cubic", default_size_grid(), (phi_l,)))


@functools.lru_cache(maxsize=None)
def slab_curve(phi_l: float):
    return tuple(yb_sweep("slab", default_size_grid(), (phi_l,)))


def test_criterion_1_threshold_reproduction():
    per_layer, halves = decoherence_sizes(tau=30.0)
    assert round(per_layer) == 497
    assert abs(round(halves) - 165) <= 1

    sql = per_layer_sql(YB, 30.0, 497)
    assert sql == pytest.approx(2.06e-20, rel=0.01)

    n_atoms = decoherence_atom_count(497)
    assert n_atoms == pytest.approx(1.23e8, rel=0.01)

    ensemble = qpn_stability(YB, 30.0, n_atoms)
    assert ensemble == pytest.approx(9.23e-22, rel=0.01)

    announce(
        1,
        f"n*(per-layer) = {per_layer:.2f} -> 497, n*(halves) ="
        f" {halves:.2f} -> {round(halves)}, SQL = {sql:.3e},"
        f" ensemble QPN = {ensemble:.3e}, N = {n_atoms}",
    )


def test_criterion_2_redshift_anchors():
    shift = relative_redshift(CONSTS, 0.01)
    assert shift == pytest.approx(1.09e-18, rel=0.005)

    signal = assemble_budget(100)
    assert signal.delta_z == pytest.approx(37.97e-6, rel=0.005)
    assert signal.delta_nu == pytest.approx(2.145e-6, rel=0.005)

    announce(
        2,
        f"redshift(1 cm) = {shift:.3e}, signal(100) ="
        f" ({signal.delta_z * 1e6:.2f} um, {signal.delta_nu:.3e} Hz)",
    )


def test_criterion_3_dephasing_curve_points():
    rate = effective_phase_rate(PHI_G, 501, PF)
    point = DephasingInput(phi_l=1e-5, phi_g=rate, layer_count=501, t=100.0)
    ratio_pf = bloch_sum(point).ratio
    assert 0.50 <= ratio_pf <= 0.70

    rate = effective_phase_rate(PHI_G, 101, PF)
    for t in np.linspace(1.0, 200.0, 200):
        summary = bloch_sum(DephasingInput(phi_l=1e-5, phi_g=rate, layer_count=101, t=float(t)))
        assert abs(summary.ratio - 1.0) < 2e-2

    rate = effective_phase_rate(PHI_G, 501, Convention.PHYSICAL)
    physical = DephasingInput(phi_l=1e-5, phi_g=rate, layer_count=501, t=100.0)
    ratio_phys = bloch_sum(physical).ratio
    assert abs(ratio_phys - 1.0) < 1e-4

    # The same point differs by ~0.4 between conventions; that gap is the
    # reported discrepancy both behaviors are asserted against.
    assert ratio_phys - ratio_pf > 0.25

    announce(
        3,
        f"ratio(500, 100 s) = {ratio_pf:.3f} span-scaled vs {ratio_phys:.6f} physical;"
        f" n=100 stays within 2e-2 out to 200 s",
    )


def test_criterion_4_stability_point_and_laser_anchor():
    (point,) = yb_sweep("cubic", (200,), (1e-2,))
    assert 40.0 <= point.tau_max_s <= 90.0
    assert point.sigma_at_tau == pytest.approx(2.58e-20, rel=0.30)
    assert point.sigma_at_1s == pytest.approx(2e-19, rel=0.30)

    curve = cubic_curve(1e-2)
    sigmas = [p.sigma_at_1s for p in curve]
    idx = sigmas.index(min(sigmas))
    assert 0 < idx < len(sigmas) - 1
    assert sigmas[0] > sigmas[idx] and sigmas[-1] > sigmas[idx]

    laser = solve_tau_max(TauMaxProblem.cubic(2, 1e-6, PF))
    assert laser.tau_s == pytest.approx(1.97e6, rel=0.10)

    announce(
        4,
        f"tau_max(200, 1e-2) = {point.tau_max_s:.1f} s, sigma_at_tau ="
        f" {point.sigma_at_tau:.3e}, sigma_at_1s = {point.sigma_at_1s:.3e},"
        f" minimum at size {curve[idx].size}, tau_max(2, 1e-6) = {laser.tau_s:.3e} s",
    )


def test_criterion_5_scaling_exponents():
    laser_slope = scaling_exponent(list(cubic_curve(1e-2)), "small")
    assert laser_slope == pytest.approx(-1.0, abs=0.15)

    gravity_slope = scaling_exponent(list(cubic_curve(1e-2)), "large")
    assert gravity_slope == pytest.approx(0.25, abs=0.10)

    slab_slope = scaling_exponent(list(slab_curve(1e-6)), "large")
    assert slab_slope == pytest.approx(1.0, abs=0.15)

    announce(
        5,
        f"laser regime slope = {laser_slope:.3f}, gravity regime slope ="
        f" {gravity_slope:.3f}, slab gravity slope = {slab_slope:.3f}",
    )


def test_criterion_6_systematics_anchors():
    signal = assemble_budget(100)

    gradient = allowed_b_gradient(YB_COEFFICIENTS, signal.delta_nu, signal.delta_z)
    assert gradient == pytest.approx(2.69e-4, rel=0.10)

    p2 = p2_calibration_shift(YB_COEFFICIENTS, 2.69e-4, signal.delta_z)
    assert p2 == pytest.approx(0.0214, rel=0.05)

    omega_near, omega_far = wall_solid_angles(0.05, signal.delta_z)
    ratio_minus_one = bbr_field_excess(293.0, 294.0, omega_near, omega_far)
    shift_fractional = YB_COEFFICIENTS.bbr_fractional * ratio_minus_one
    assert ratio_minus_one == pytest.approx(1.04e-5, rel=0.50)
    assert shift_fractional == pytest.approx(2.46e-20, rel=0.50)

    assert ac_stark_shift(0.10) / YB.frequency == 1e-19  # exact by construction

    z_r = rayleigh_range(170e-6, YB.magic_wavelength)
    intensity = lattice_intensity_ratio(z_r, 100 * YB.magic_wavelength)
    reference_change = 8.46e-4
    assert intensity.max_change == pytest.approx(6.4e-4, rel=0.05)
    assert intensity.max_change != pytest.approx(reference_change, rel=0.05)

    announce(
        6,
        f"B gradient = {gradient:.3e} G/m, 3P2 shift = {p2:.4f} Hz, BBR ratio-1 ="
        f" {ratio_minus_one:.3e} -> {shift_fractional:.3e}, AC-Stark anchor"
        f" exact, intensity change computed {intensity.max_change:.3e} vs quoted"
        f" {reference_change:.3e}",
    )


def test_criterion_7_property_suites(tmp_path, capsys):
    # Dirichlet closed form against the explicit layer sum on a randomized grid.
    rng = np.random.default_rng(2024)
    for _ in range(500):
        m = int(rng.integers(1, 2001))
        theta = float(rng.uniform(0.0, math.pi * (1 - 1e-9)))
        s_x, s_y = explicit_layer_sum(0.0, theta, m, 1.0)
        oracle = math.hypot(s_x, s_y) / m
        assert abs(dirichlet(m, theta)) / m == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        direct = bloch_sum(DephasingInput(phi_l=0.0, phi_g=theta, layer_count=m, t=1.0))
        assert direct.length / m == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        # phi_l = 0 keeps S_y at zero, in the closed form and in the oracle.
        assert direct.s_y == 0.0
        assert abs(s_y) <= 1e-12 * m

    # Stationarity of the numeric intensity-ratio extremum.
    z_r = rayleigh_range(170e-6, YB.magic_wavelength)
    result = lattice_intensity_ratio(z_r, 100 * YB.magic_wavelength)
    assert result.stationarity_residual <= 1e-6

    # QPN sqrt(N) invariance.
    reference = qpn_stability(YB, 30.0, 1)
    for n in (2, 100, 497**2, 123010482):
        assert qpn_stability(YB, 30.0, n) * math.sqrt(n) == pytest.approx(
            reference, rel=1e-14
        )

    # Byte-identical CLI reruns.
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["threshold", "--out", str(out_a)]) == 0
    assert main(["threshold", "--out", str(out_b)]) == 0
    capsys.readouterr()
    bytes_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
    bytes_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
    assert bytes_a == bytes_b

    # Scenario round-trip identity.
    scenario = Scenario()
    assert parse_scenario(serialize_scenario(scenario)) == scenario

    announce(
        7,
        "Dirichlet oracle, S_y cancellation, stationarity, QPN invariance,"
        " CLI determinism, and config round-trip all hold",
    )
