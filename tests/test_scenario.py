from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gravclock.dephasing import Convention
from gravclock.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)
from gravclock.sweep import DEFAULT_PHI_L_GRID, default_size_grid

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def test_minimal_scenario_fills_defaults():
    scenario = parse_scenario("species = Yb\ngeometry = cubic:100\n")
    assert scenario.constants_g == 9.80665
    assert scenario.convention is Convention.PHYSICAL
    assert scenario.geometry_kind == "cubic"
    assert scenario.geometry_n_site == 100
    assert scenario.geometry_layer_spacing is None
    assert scenario.layer_spacing() == pytest.approx(759.356e-9 / 2, rel=1e-15)
    assert scenario.sweep_sizes == default_size_grid()


def test_empty_text_is_all_defaults():
    assert parse_scenario("") == Scenario()


def test_comments_and_blank_lines():
    text = "# a comment\n\nspecies = Yb  # trailing comment\n   \ngeometry = cubic:7\n"
    assert parse_scenario(text).geometry_n_site == 7


def test_cubic_zero_is_rejected():
    with pytest.raises(ScenarioError, match="geometry"):
        parse_scenario("geometry = cubic:0\n")


def test_unknown_key_named_in_error():
    with pytest.raises(ScenarioError, match="unknown key 'lattice.depth'"):
        parse_scenario("lattice.depth = 12\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("species = Yb\n# fine\nnot a key value pair\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario("species = Yb\nspecies = Yb\n")


def test_bad_number_is_diagnosed():
    with pytest.raises(ScenarioError, match="interrogation.tau"):
        parse_scenario("interrogation.tau = fast\n")
    with pytest.raises(ScenarioError, match="must be positive"):
        parse_scenario("interrogation.tau = -3\n")


def test_unknown_species_rejected():
    with pytest.raises(ScenarioError, match="species"):
        parse_scenario("species = Xx\n")


def test_custom_species_via_overrides():
    scenario = parse_scenario(
        "species = Sr88\nspecies.omega0 = 2.7e15\nspecies.magic_wavelength = 813.4e-9\n"
    )
    obj = scenario.species_obj()
    assert obj.name == "Sr88"
    assert obj.omega0 == 2.7e15


def test_slab_geometry_parse():
    scenario = parse_scenario("geometry = slab:10000:50\n")
    assert scenario.geometry_kind == "slab"
    assert scenario.geometry_atoms_per_layer == 10000
    assert scenario.geometry_n_layer == 50


def test_grid_expansion():
    scenario = parse_scenario(
        "dephase.t_grid = linspace:0:10:11\nsweep.sizes = logspace:2:1000:40\n"
    )
    assert scenario.dephase_t_grid == tuple(float(v) for v in range(11))
    assert scenario.sweep_sizes == default_size_grid()


def test_explicit_lists():
    scenario = parse_scenario("sweep.phi_l = 1e-6,1e-4\ndephase.sizes = 10,20\n")
    assert scenario.sweep_phi_l == (1e-6, 1e-4)
    assert scenario.dephase_sizes == (10, 20)


def test_t_grid_must_increase():
    with pytest.raises(ScenarioError, match="strictly increasing"):
        parse_scenario("dephase.t_grid = 0,5,5\n")


def test_convention_parse():
    assert parse_scenario("convention = paper-figure\n").convention is Convention.PAPER_FIGURE
    with pytest.raises(ScenarioError, match="convention"):
        parse_scenario("convention = sideways\n")


def _random_scenario(rng: random.Random) -> Scenario:
    # Only the fields of the active geometry kind vary: the serialized form
    # carries one geometry key, so inert fields stay at their defaults (the
    # normal form, which is also the only form parse can produce).
    kind = rng.choice(["cubic", "slab"])
    geometry = {"geometry_kind": kind}
    if kind == "cubic":
        geometry["geometry_n_site"] = rng.randint(1, 900)
    else:
        geometry["geometry_atoms_per_layer"] = rng.randint(1, 10**6)
        geometry["geometry_n_layer"] = rng.randint(1, 500)
    scenario = Scenario(
        convention=rng.choice(list(Convention)),
        **geometry,
        interrogation_tau=rng.uniform(1e-3, 1e3),
        interrogation_xi_w_sq=rng.uniform(1e-6, 1.0),
        dephase_phi_l=rng.uniform(0.0, 1e-2),
        dephase_sizes=tuple(sorted(rng.sample(range(1, 2000), k=rng.randint(1, 6)))),
        dephase_t_grid=tuple(
            sorted(rng.uniform(0.0, 1e4) for _ in range(rng.randint(1, 8)))
        ),
        sweep_family=rng.choice(["cubic", "slab"]),
        sweep_phi_l=tuple(sorted(rng.uniform(1e-7, 1e-2) for _ in range(3))),
        sweep_atoms_per_layer=rng.randint(1, 10**5),
        budget_n_site=rng.randint(1, 500),
        budget_delta_t=rng.uniform(0.0, 1.0),
        budget_bias_field=rng.uniform(0.0, 10.0),
    )
    if rng.random() < 0.5:
        scenario = replace(scenario, geometry_layer_spacing=rng.uniform(1e-8, 1e-5))
    if rng.random() < 0.3:
        scenario = replace(scenario, budget_beam_separation=rng.uniform(1e-6, 1e-3))
    return scenario


def test_round_trip_identity_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        scenario = _random_scenario(rng)
        assert parse_scenario(serialize_scenario(scenario)) == scenario


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
_ANY = st.floats(allow_nan=False, allow_infinity=False)
_SIZES = st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True).map(
    lambda sizes: tuple(sorted(sizes))
)
# Output names that pass validation: plain file names, free of the format's
# own syntax ('#' starts a comment, values are stripped).
_NAME = st.text("abcxyzABC019_-.", min_size=1, max_size=12).filter(
    lambda name: name not in (".", "..", "run_record.json")
)


@st.composite
def _scenarios(draw) -> Scenario:
    fields = {}
    custom = draw(st.booleans())
    fields["species"] = draw(_NAME) if custom else "Yb"
    for name in ("species_omega0", "species_magic_wavelength"):
        fields[name] = draw(_POSITIVE) if custom else draw(st.none() | _POSITIVE)
    kind = draw(st.sampled_from(["cubic", "slab"]))
    fields["geometry_kind"] = kind
    if kind == "cubic":
        fields["geometry_n_site"] = draw(st.integers(1, 10**6))
    else:
        fields["geometry_atoms_per_layer"] = draw(st.integers(1, 10**6))
        fields["geometry_n_layer"] = draw(st.integers(1, 10**6))
    outputs = draw(st.lists(_NAME, min_size=5, max_size=5, unique=True))
    return Scenario(
        **fields,
        constants_g=draw(_POSITIVE),
        constants_c=draw(_POSITIVE),
        convention=draw(st.sampled_from(Convention)),
        geometry_layer_spacing=draw(st.none() | _POSITIVE),
        interrogation_tau=draw(_POSITIVE),
        interrogation_xi_w_sq=draw(st.floats(0.0, 1.0, exclude_min=True)),
        dephase_phi_l=draw(_NONNEGATIVE),
        dephase_sizes=draw(_SIZES),
        dephase_t_grid=tuple(
            sorted(draw(st.lists(_NONNEGATIVE, min_size=1, max_size=8, unique=True)))
        ),
        sweep_family=draw(st.sampled_from(["cubic", "slab"])),
        sweep_sizes=draw(_SIZES),
        sweep_phi_l=tuple(draw(st.lists(_NONNEGATIVE, min_size=1, max_size=5))),
        sweep_atoms_per_layer=draw(st.integers(1, 10**6)),
        budget_n_site=draw(st.integers(1, 10**6)),
        budget_wall_distance=draw(_POSITIVE),
        budget_disk_radius=draw(_POSITIVE),
        budget_base_temperature=draw(_POSITIVE),
        budget_example_temperature_step=draw(_ANY),
        budget_delta_t=draw(_NONNEGATIVE),
        budget_beam_waist=draw(_POSITIVE),
        budget_beam_separation=draw(st.none() | _POSITIVE),
        budget_bias_field=draw(_NONNEGATIVE),
        budget_e_gradient=draw(_NONNEGATIVE),
        budget_baseline_e_field=draw(_NONNEGATIVE),
        budget_p2_linewidth=draw(_POSITIVE),
        output_threshold=outputs[0],
        output_dephase_curve=outputs[1],
        output_stability_sweep=outputs[2],
        output_budget_json=outputs[3],
        output_budget_text=outputs[4],
    )


@settings(max_examples=100)
@given(scenario=_scenarios())
def test_round_trip_property(scenario):
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


def test_round_trip_identity_defaults():
    scenario = Scenario()
    assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_serialized_form_is_stable():
    scenario = Scenario()
    assert serialize_scenario(scenario) == serialize_scenario(scenario)
    assert scenario.digest() == scenario.digest()


def test_preset_files_parse():
    for preset in sorted(PRESETS.glob("*.cfg")):
        parse_scenario(preset.read_text())


def test_cubic_stability_preset_matches_default_grids():
    scenario = parse_scenario((PRESETS / "stability_cubic.cfg").read_text())
    assert scenario.sweep_family == "cubic"
    assert scenario.sweep_sizes == default_size_grid()
    assert scenario.sweep_phi_l == DEFAULT_PHI_L_GRID
    assert scenario.convention is Convention.PAPER_FIGURE


def test_dephase_preset_matches_reference_grid():
    scenario = parse_scenario((PRESETS / "dephase_curve.cfg").read_text())
    assert scenario.dephase_sizes == (100, 200, 300, 400, 500)
    assert scenario.dephase_phi_l == 1e-5
    assert len(scenario.dephase_t_grid) == 201
    assert scenario.dephase_t_grid[-1] == 200.0
