from __future__ import annotations

import math

import numpy as np
import pytest

from gravclock.core import (
    PhysicalConstants,
    YB,
    per_layer_phase_rate,
    per_layer_sql,
    qpn_stability,
    relative_redshift,
    species_by_name,
)
from gravclock.scenario import Scenario, ScenarioError, parse_scenario

CONSTS = Scenario().consts_obj()


def test_default_constants():
    assert CONSTS.g == 9.80665
    assert CONSTS.c == 2.99792458e8


def _refusal(text: str) -> str:
    """The message parse_scenario refuses text with. The constants, the
    species and the interrogation are checked once, by their scenario keys;
    the library takes the parsed values as they are."""
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    return str(excinfo.value)


def test_constants_validation():
    assert _refusal("constants.g = -1") == (
        "line 1: invalid value for 'constants.g': must be positive, got -1.0"
    )
    assert _refusal("constants.c = 0") == (
        "line 1: invalid value for 'constants.c': must be positive, got 0.0"
    )


def test_yb_preset():
    assert YB.omega0 == pytest.approx(2 * math.pi * 5.18295e14, rel=1e-15)
    assert YB.magic_wavelength == 759.356e-9
    assert species_by_name("Yb") is YB
    with pytest.raises(ValueError, match="unknown species"):
        species_by_name("Sr")


def test_unknown_species_is_echoed_up_to_80_characters():
    with pytest.raises(ValueError) as excinfo:
        species_by_name("x" * 80)
    assert str(excinfo.value) == f"unknown species {'x' * 80!r}; built-in presets: Yb"
    with pytest.raises(ValueError) as excinfo:
        species_by_name("x" * 81)
    message = str(excinfo.value)
    assert message == f"unknown species {'x' * 80!r}... (81 characters); built-in presets: Yb"
    assert len(message) < 250


def test_redshift_one_centimeter():
    # 1 cm of height corresponds to a 1.09e-18 fractional shift.
    assert relative_redshift(CONSTS, 0.01) == pytest.approx(1.09e-18, rel=5e-3)


def test_redshift_zero_and_antisymmetry():
    assert relative_redshift(CONSTS, 0.0) == 0.0
    assert relative_redshift(CONSTS, -0.3) == -relative_redshift(CONSTS, 0.3)


def test_redshift_half_wavelength():
    # Direct evaluation at the Yb lattice spacing.
    assert relative_redshift(CONSTS, YB.magic_wavelength / 2) == pytest.approx(
        4.143e-23, rel=5e-4
    )


def test_redshift_linearity():
    rng = np.random.default_rng(7)
    base = relative_redshift(CONSTS, 1.0)
    for scale in rng.uniform(-1e6, 1e6, size=50):
        assert relative_redshift(CONSTS, float(scale)) == pytest.approx(
            scale * base, rel=1e-12, abs=0.0
        )


def test_redshift_rejects_non_finite():
    # A non-finite height gives a non-finite shift, refused as out of range.
    for delta_h in (math.nan, math.inf):
        with pytest.raises(OverflowError, match="out of float range"):
            relative_redshift(CONSTS, delta_h)


def test_redshift_refusal_fits_one_line_at_the_longest_float_reprs():
    # dh and c^2 each take the longest repr of their sign (24 and 23
    # characters); the CLI line "gravclock: error: " + message stays under 250.
    consts = PhysicalConstants(g=1.7976931348623157e308, c=4.963480696735527e-150)
    delta_h, c_sq = -1.2345678901234569e-200, consts.c * consts.c
    assert (len(repr(delta_h)), len(repr(c_sq))) == (24, 23)
    with pytest.raises(OverflowError) as excinfo:
        relative_redshift(consts, delta_h)
    message = str(excinfo.value)
    assert f"dh = {delta_h!r} m" in message and f"(c^2 = {c_sq!r})" in message
    assert all(key in message for key in ("constants.g", "constants.c", "geometry.layer_spacing"))
    assert len("gravclock: error: " + message) < 250


def test_per_layer_phase_rate_yb():
    rate = per_layer_phase_rate(CONSTS, YB, YB.default_layer_spacing)
    assert rate == pytest.approx(1.349e-7, rel=1e-3)


def test_per_layer_phase_rate_trivial():
    assert per_layer_phase_rate(CONSTS, YB, 0.0) == 0.0
    single = per_layer_phase_rate(CONSTS, YB, YB.magic_wavelength / 2)
    double = per_layer_phase_rate(CONSTS, YB, YB.magic_wavelength)
    assert double == pytest.approx(2.0 * single, rel=1e-15)


def test_phase_rate_matches_redshift_composition():
    rate = per_layer_phase_rate(CONSTS, YB, YB.default_layer_spacing)
    assert rate == pytest.approx(
        YB.omega0 * relative_redshift(CONSTS, YB.default_layer_spacing), rel=1e-12
    )


def test_qpn_single_layer_of_497_cube():
    assert qpn_stability(YB, 30.0, 497**2) == pytest.approx(2.06e-20, rel=1e-2)


def test_qpn_whole_497_ensemble():
    n_atoms = 497**2 * 498
    assert qpn_stability(YB, 30.0, n_atoms) == pytest.approx(9.23e-22, rel=1e-2)


def test_qpn_wineland_scaling():
    base = qpn_stability(YB, 30.0, 1000)
    squeezed = qpn_stability(YB, 30.0, 1000, xi_w_sq=0.25)
    assert squeezed == pytest.approx(0.5 * base, rel=1e-15)


def test_qpn_sqrt_n_invariance():
    reference = qpn_stability(YB, 30.0, 1) * 1.0
    for n in (2, 10, 497, 10**6, 123010482):
        assert qpn_stability(YB, 30.0, n) * math.sqrt(n) == pytest.approx(
            reference, rel=1e-14
        )


def test_per_layer_sql_anchor():
    assert per_layer_sql(YB, 30.0, 497) == pytest.approx(2.06e-20, rel=1e-2)


def test_per_layer_sql_unit_normalization():
    assert per_layer_sql(YB, 1.0 / YB.omega0, 1) == pytest.approx(1.0, rel=1e-14)


def test_per_layer_sql_inverse_scaling():
    assert per_layer_sql(YB, 30.0, 994) == pytest.approx(
        0.5 * per_layer_sql(YB, 30.0, 497), rel=1e-14
    )


def test_per_layer_sql_equals_qpn_composition():
    # Same code path by construction, so equality is exact.
    for n in (3, 100, 497):
        assert per_layer_sql(YB, 30.0, n) == qpn_stability(YB, 30.0, n * n)


def test_interrogation_validation():
    for tau in ("0", "-1"):
        assert _refusal(f"interrogation.tau = {tau}").endswith(f"must be positive, got {tau}.0")
    for tau in ("inf", "nan"):
        assert _refusal(f"interrogation.tau = {tau}").endswith(f"must be finite: '{tau}'")
    for xi_w_sq in ("0", "1.5"):
        message = _refusal(f"interrogation.xi_w_sq = {xi_w_sq}")
        assert message.endswith(f"must be in (0, 1], got {float(xi_w_sq)!r}")
    assert qpn_stability(YB, 30.0, 1000, 1.0) == qpn_stability(YB, 30.0, 1000)


def test_custom_species_validation():
    assert _refusal("species.omega0 = -1") == (
        "line 1: invalid value for 'species.omega0': must be positive, got -1.0"
    )
    assert _refusal("species.magic_wavelength = 0") == (
        "line 1: invalid value for 'species.magic_wavelength': must be positive, got 0.0"
    )
