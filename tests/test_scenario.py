from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from refusal_cases import one_short_line

from gravclock import core, scenario as scenario_module
from gravclock.cli import main
from gravclock.core import CONVENTIONS, MAX_COUNT, MAX_GRID_POINTS, YB, ClockSpecies, Convention
from gravclock.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def test_minimal_scenario_fills_defaults():
    scenario = parse_scenario("species = Yb\nbudget.n_site = 100\n")
    assert scenario.constants_g == 9.80665
    assert scenario.convention == Convention.PHYSICAL
    assert scenario.budget_n_site == 100
    assert scenario.geometry_layer_spacing is None
    assert scenario.layer_spacing() == pytest.approx(759.356e-9 / 2, rel=1e-15)
    assert scenario.sweep_sizes == Scenario().sweep_sizes


def test_empty_text_is_all_defaults():
    assert parse_scenario("") == Scenario()


def test_comments_and_blank_lines():
    text = "# a comment\n\nspecies = Yb  # trailing comment\n   \nbudget.n_site = 7\n"
    assert parse_scenario(text).budget_n_site == 7


def test_cubic_zero_is_rejected():
    with pytest.raises(ScenarioError, match="line 1: invalid value for 'budget.n_site'"):
        parse_scenario("budget.n_site = 0\n")


def test_unknown_key_named_in_error():
    with pytest.raises(ScenarioError, match="unknown key 'lattice.depth'"):
        parse_scenario("lattice.depth = 12\n")
    # `geometry` alone is no key; the ensemble shape comes from sweep.family,
    # dephase.sizes and budget.n_site.
    with pytest.raises(ScenarioError, match="line 2: unknown key 'geometry'"):
        parse_scenario("species = Yb\ngeometry = cubic:100\n")


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


_OVERRIDES = {"omega0": 2.7e15, "magic_wavelength": 813.4e-9}


@pytest.mark.parametrize("species", ["Yb", "Sr"])
@pytest.mark.parametrize("omega0", [False, True], ids=["preset_omega0", "omega0"])
@pytest.mark.parametrize("wavelength", [False, True], ids=["preset_wavelength", "wavelength"])
def test_species_resolution_on_every_branch(species, omega0, wavelength):
    # A preset takes any overrides; another name needs both, and without
    # them is refused at its species line.
    overrides = {
        name: value
        for (name, value), given in zip(_OVERRIDES.items(), (omega0, wavelength))
        if given
    }
    text = "".join(f"species.{name} = {value!r}\n" for name, value in overrides.items())
    text += f"species = {species}\n"
    if species == "Yb":
        assert parse_scenario(text).species_obj() == YB._replace(**overrides)
    elif len(overrides) == 2:
        assert parse_scenario(text).species_obj() == ClockSpecies("Sr", **overrides)
    else:
        line = len(overrides) + 1
        with pytest.raises(ScenarioError, match=f"^line {line}: invalid value for 'species': unk"):
            parse_scenario(text)


def test_grid_expansion():
    scenario = parse_scenario(
        "dephase.t_grid = linspace:0:10:11\nsweep.sizes = logspace:2:1000:40\n"
    )
    assert scenario.dephase_t_grid == tuple(float(v) for v in range(11))
    assert scenario.sweep_sizes == Scenario().sweep_sizes


def test_explicit_lists():
    scenario = parse_scenario("sweep.phi_l = 1e-6,1e-4\ndephase.sizes = 10,20\n")
    assert scenario.sweep_phi_l == (1e-6, 1e-4)
    assert scenario.dephase_sizes == (10, 20)


def test_t_grid_must_increase():
    with pytest.raises(ScenarioError, match="strictly increasing"):
        parse_scenario("dephase.t_grid = 0,5,5\n")


@pytest.mark.parametrize("key", ["dephase.t_grid", "sweep.phi_l"])
@pytest.mark.parametrize(
    "value, message",
    [
        # The first bad value in text order is named: the values are walked
        # only once the one-pass check has failed.
        ("1, -2, 3, -4", "values must be finite and >= 0, got -2.0"),
        ("linspace:0:-1:3", "values must be finite and >= 0, got -0.5"),
        # A span past float range: 0 * inf = nan leads, then inf.
        ("linspace:-1.7e308:1.7e308:3", "values must be finite and >= 0, got nan"),
        # Each listed value is checked as it is read, nan and inf included.
        pytest.param("1, -2, nan", "values must be finite and >= 0, got -2.0", id="nan after -2"),
        ("1, inf, -2", "must be finite: 'inf'"),
        ("1, -inf", "must be finite: '-inf'"),
    ],
)
def test_float_grid_names_its_first_bad_value(key, value, message):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(f"{key} = {value}\n")
    assert str(excinfo.value) == f"line 1: invalid value for '{key}': {message}"


def test_float_grid_accepts_negative_zero():
    scenario = parse_scenario("dephase.t_grid = -0.0, 1\nsweep.phi_l = -0.0\n")
    assert [math.copysign(1.0, v) for v in scenario.dephase_t_grid] == [-1.0, 1.0]
    assert math.copysign(1.0, scenario.sweep_phi_l[0]) == -1.0


@pytest.mark.parametrize("value", ["0, 1, 1", "-0.0, 0", "0, 2, 1", "linspace:1:1:2"])
def test_t_grid_refuses_equal_or_falling_neighbours(value):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(f"dephase.t_grid = {value}\n")
    assert str(excinfo.value) == (
        "line 1: invalid value for 'dephase.t_grid': must be strictly increasing"
    )


@pytest.mark.parametrize(
    "line, key",
    [
        ("interrogation.xi_w_sq = 2", "interrogation.xi_w_sq"),
        ("sweep.sizes = 0,5", "sweep.sizes"),
        ("sweep.phi_l = -1e-3", "sweep.phi_l"),
        ("sweep.phi_l = linspace:-1.7e308:1.7e308:3", "sweep.phi_l"),
        ("dephase.t_grid = 5,3", "dephase.t_grid"),
        ("species = Xx", "species"),
    ],
)
def test_range_error_names_its_line(tmp_path, capsys, line, key):
    text = f"# range check\nbudget.n_site = 10\n{line}\nconvention = physical\n"
    with pytest.raises(ScenarioError, match=f"^line 3: invalid value for '{key}'") as info:
        parse_scenario(text)
    assert info.value.line == 3
    scenario = tmp_path / "range.cfg"
    scenario.write_text(text)
    assert main(["threshold", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert f"line 3: invalid value for '{key}'" in capsys.readouterr().err


def test_integer_past_the_conversion_limit_is_counted_not_echoed(tmp_path, capsys):
    # 5001 digits exceed CPython's default 4300-digit int-string limit.
    scenario = tmp_path / "big.cfg"
    scenario.write_text("dephase.sizes = 1" + "0" * 5000 + "\n")
    assert main(["dephase-curve", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err) < 200 and "5001 digits" in err
    assert "line 1: invalid value for 'dephase.sizes'" in err


_NINES = "9" * 4000
_NEGATIVE = "a negative integer of 4000 digits"


@pytest.mark.parametrize(
    "line, key, shown",
    [
        ("sweep.atoms_per_layer = -" + _NINES, "sweep.atoms_per_layer", f"got {_NEGATIVE}"),
        ("sweep.sizes = -" + _NINES, "sweep.sizes", f"sizes must be >= 1, got {_NEGATIVE}"),
        ("sweep.phi_l = linspace:0:1:-" + _NINES, "sweep.phi_l", f"1 point, got {_NEGATIVE}"),
        ("sweep.sizes = logspace:1:-" + _NINES + ":3", "sweep.sizes", f"(1, {_NEGATIVE}, 3)"),
        (
            "sweep.sizes = logspace:1:" + "9" * 400 + ":3",
            "sweep.sizes",
            "logspace hi must be at most 2^53 = 9007199254740992, got an integer of 400 digits",
        ),
        ("sweep.sizes = logspace:3:2:" + "9" * 81, "sweep.sizes", "2, an integer of 81 digits"),
    ],
    ids=["atoms_per_layer", "sizes", "grid_points", "grid_bound", "grid_overflow", "grid_81"],
)
def test_refused_long_integer_is_counted_in_one_located_line(tmp_path, capsys, line, key, shown):
    scenario = tmp_path / "long.cfg"
    scenario.write_text("# a long integer\n" + line + "\n")
    assert main(["stability-sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and one_short_line(captured.err)
    assert captured.err.startswith(f"gravclock: error: line 2: invalid value for {key!r}: ")
    assert shown in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, line, key",
    [
        ("stability-sweep", "sweep.phi_l = linspace:0:1:1000000000", "sweep.phi_l"),
        ("dephase-curve", "dephase.t_grid = logspace:1:2:" + "9" * 30, "dephase.t_grid"),
        ("stability-sweep", "sweep.sizes = logspace:2:1000:1000000000", "sweep.sizes"),
        ("dephase-curve", "dephase.sizes = logspace:2:1000:10000001", "dephase.sizes"),
    ],
    ids=["linspace", "logspace", "sizes", "one_past"],
)
def test_grid_past_the_point_limit_is_refused_unbuilt(
    monkeypatch, tmp_path, capsys, command, line, key
):
    def unbuilt(*args):
        raise AssertionError(f"a grid of {args[-1]} points was built")

    for module in (scenario_module, core):
        monkeypatch.setattr(module, "geomspace", unbuilt)
    monkeypatch.setattr(scenario_module, "linspace", unbuilt)
    scenario = tmp_path / "dense.cfg"
    scenario.write_text("# a grid past the limit\n" + line + "\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and one_short_line(captured.err)
    assert captured.err.startswith(f"gravclock: error: line 2: invalid value for {key!r}: ")
    assert f"at most {MAX_GRID_POINTS} points" in captured.err
    assert not (tmp_path / "o").exists()


def test_refused_integer_is_echoed_whole_up_to_80_characters():
    at_cap, past_cap = "-" + "9" * 79, "-" + "9" * 80
    with pytest.raises(ScenarioError, match=f"got {at_cap}$"):
        parse_scenario(f"budget.n_site = {at_cap}\n")
    with pytest.raises(ScenarioError, match="got a negative integer of 80 digits$"):
        parse_scenario(f"budget.n_site = {past_cap}\n")


# Each count key, with the text its count is written into and the name its
# refusal gives that count.
_COUNT_LINES = {
    "dephase.sizes": ("dephase.sizes = 1,{}", "sizes"),
    "sweep.sizes": ("sweep.sizes = {}", "sizes"),
    "sweep.sizes logspace": ("sweep.sizes = logspace:2:{}:3", "logspace hi"),
    "sweep.atoms_per_layer": ("sweep.atoms_per_layer = {}", "count"),
    "budget.n_site": ("budget.n_site = {}", "count"),
}


@pytest.mark.parametrize("line", [line for line, _ in _COUNT_LINES.values()], ids=_COUNT_LINES)
def test_count_is_accepted_up_to_2_53(line):
    key = line.split(" = ")[0]
    value = getattr(parse_scenario(line.format(MAX_COUNT) + "\n"), key.replace(".", "_"))
    assert (value[-1] if isinstance(value, tuple) else value) == MAX_COUNT == 2**53


@pytest.mark.parametrize("command", ["threshold", "dephase-curve", "stability-sweep", "budget"])
@pytest.mark.parametrize("line, name", _COUNT_LINES.values(), ids=_COUNT_LINES)
def test_count_past_2_53_is_refused_at_its_line(tmp_path, capsys, line, name, command):
    # Refused as it is read, under every command, before any kernel sees it.
    key = line.split(" = ")[0]
    scenario = tmp_path / "count.cfg"
    scenario.write_text("# a count past the bound\n" + line.format(2**53 + 1) + "\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"gravclock: error: line 2: invalid value for {key!r}: {name} must be at most"
        " 2^53 = 9007199254740992, got 9007199254740993\n"
    )
    assert not (tmp_path / "o").exists()


@settings(max_examples=200)
@given(lo=st.integers(1, MAX_COUNT), points=st.integers(1, 60))
def test_logspace_up_to_the_bound_stays_within_it(lo, points):
    # Only hi is checked before the grid is built: no rounded size passes it.
    assert max(scenario_module._sizes(f"logspace:{lo}:{MAX_COUNT}:{points}")) <= MAX_COUNT


def test_refused_text_is_echoed_whole_up_to_80_characters():
    for key, message in (
        ("interrogation.tau", "not a number: {}"),
        ("convention", "unknown convention {}; expected one of: physical, paper-figure"),
    ):
        at_cap, past_cap = "y" * 80, "y" * 81
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(f"{key} = {at_cap}\n")
        assert str(excinfo.value) == f"line 1: invalid value for {key!r}: " + message.format(
            repr(at_cap)
        )
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(f"{key} = {past_cap}\n")
        assert str(excinfo.value) == f"line 1: invalid value for {key!r}: " + message.format(
            f"{at_cap!r}... (81 characters)"
        )


def test_convention_parse():
    assert parse_scenario("convention = paper-figure\n").convention == Convention.PAPER_FIGURE
    with pytest.raises(ScenarioError, match="convention"):
        parse_scenario("convention = sideways\n")


def _random_scenario(rng: random.Random) -> Scenario:
    scenario = Scenario(
        convention=rng.choice(CONVENTIONS),
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
        scenario = scenario._replace(geometry_layer_spacing=rng.uniform(1e-8, 1e-5))
    if rng.random() < 0.3:
        scenario = scenario._replace(budget_beam_separation=rng.uniform(1e-6, 1e-3))
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
# Species names free of the format's own syntax ('#' starts a comment,
# values are stripped).
_NAME = st.text("abcxyzABC019_-.", min_size=1, max_size=12)


@st.composite
def _scenarios(draw, **overrides) -> Scenario:
    """A valid Scenario; overrides replace the strategy of the named fields."""
    custom = draw(st.booleans())
    override = _POSITIVE if custom else st.none() | _POSITIVE
    # One strategy per Scenario field: a key added without one fails here.
    strategies = {
        "species": _NAME if custom else st.just("Yb"),
        "species_omega0": override,
        "species_magic_wavelength": override,
        "constants_g": _POSITIVE,
        "constants_c": _POSITIVE,
        "convention": st.sampled_from(CONVENTIONS),
        "geometry_layer_spacing": st.none() | _POSITIVE,
        "interrogation_tau": _POSITIVE,
        "interrogation_xi_w_sq": st.floats(0.0, 1.0, exclude_min=True),
        "dephase_phi_l": _NONNEGATIVE,
        "dephase_sizes": _SIZES,
        "dephase_t_grid": st.lists(_NONNEGATIVE, min_size=1, max_size=8, unique=True).map(
            lambda times: tuple(sorted(times))
        ),
        "sweep_family": st.sampled_from(["cubic", "slab"]),
        "sweep_sizes": _SIZES,
        "sweep_phi_l": st.lists(_NONNEGATIVE, min_size=1, max_size=5).map(tuple),
        "sweep_atoms_per_layer": st.integers(1, 10**6),
        "budget_n_site": st.integers(1, 10**6),
        "budget_wall_distance": _POSITIVE,
        "budget_disk_radius": _POSITIVE,
        "budget_base_temperature": _POSITIVE,
        "budget_example_temperature_step": _ANY,
        "budget_delta_t": _NONNEGATIVE,
        "budget_beam_waist": _POSITIVE,
        "budget_beam_separation": st.none() | _POSITIVE,
        "budget_bias_field": _NONNEGATIVE,
        "budget_e_gradient": _NONNEGATIVE,
        "budget_baseline_e_field": _NONNEGATIVE,
        "budget_p2_linewidth": _POSITIVE,
    }
    strategies.update(overrides)
    assert set(strategies) == set(Scenario._fields)
    return Scenario(**{name: draw(strategy) for name, strategy in strategies.items()})


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


def test_preset_files_parse():
    for preset in sorted(PRESETS.glob("*.cfg")):
        parse_scenario(preset.read_text())


@pytest.mark.parametrize("preset", sorted(p.name for p in PRESETS.glob("*.cfg")))
def test_leading_byte_order_mark_is_dropped(preset):
    # Some editors save UTF-8 with a byte-order mark; one leading U+FEFF is
    # not part of the first key.
    text = (PRESETS / preset).read_text(encoding="utf-8")
    assert parse_scenario("\ufeff" + text) == parse_scenario(text)


@pytest.mark.parametrize(
    "text, line, shown",
    [
        ("\ufeff\ufeffinterrogation.tau = 30\n", 1, "'\\ufeffinterrogation.tau'"),
        ("species = Yb\n\ufeffinterrogation.tau = 30\n", 2, "'\\ufeffinterrogation.tau'"),
        ("species = Yb\ninterrogation.\ufefftau = 30\n", 2, "'interrogation.\\ufefftau'"),
    ],
    ids=["second leading", "second line", "inside a key"],
)
def test_byte_order_mark_elsewhere_is_refused_at_its_line(text, line, shown):
    with pytest.raises(ScenarioError, match=f"^line {line}: unknown key {re.escape(shown)}$"):
        parse_scenario(text)


def test_cubic_stability_preset_matches_default_grids():
    scenario = parse_scenario((PRESETS / "stability_cubic.cfg").read_text())
    assert scenario.sweep_family == "cubic"
    assert scenario.sweep_sizes == Scenario().sweep_sizes
    assert scenario.sweep_phi_l == Scenario().sweep_phi_l
    assert scenario.convention == Convention.PAPER_FIGURE


def test_dephase_preset_matches_reference_grid():
    scenario = parse_scenario((PRESETS / "dephase_curve.cfg").read_text())
    assert scenario.dephase_sizes == (100, 200, 300, 400, 500)
    assert scenario.dephase_phi_l == 1e-5
    assert len(scenario.dephase_t_grid) == 201
    assert scenario.dephase_t_grid[-1] == 200.0
