from __future__ import annotations

import collections
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from layer_sum_oracle import explicit_dirichlet, explicit_layer_sum

from gravclock import cli, dephasing, emit
from gravclock.core import CONVENTIONS, YB, per_layer_phase_rate
from gravclock.dephasing import (
    BlochSummary,
    Convention,
    DephasingInput,
    bloch_sum,
    dephase_curve,
    dirichlet,
    effective_phase_rate,
)
from gravclock.scenario import Scenario, parse_scenario

PHI_G = per_layer_phase_rate(Scenario().consts_obj(), YB, YB.default_layer_spacing)
PRESETS = Path(__file__).resolve().parent.parent / "presets"
# Each convention, its test id naming its constant.
BY_CONVENTION = pytest.mark.parametrize(
    "convention", CONVENTIONS, ids=["Convention.PHYSICAL", "Convention.PAPER_FIGURE"]
)


def make_input(phi_l, phi_g, layer_count, t):
    return DephasingInput(phi_l=phi_l, phi_g=phi_g, layer_count=layer_count, t=t)


def bloch_columns(phi_l, m, grid, convention):
    """The dephase_curve columns (ratios, contrasts) that bloch_sum gives over grid."""
    rate = effective_phase_rate(PHI_G, m, convention)
    summaries = [bloch_sum(make_input(phi_l, rate, m, t)) for t in grid]
    return [s.ratio for s in summaries], [s.length / m for s in summaries]


def test_effective_rate_compares_conventions_by_value():
    # A convention parsed from a file is an equal string, not the constant itself.
    assert effective_phase_rate(2.0, 11, "".join(["phys", "ical"])) == 2.0
    assert effective_phase_rate(2.0, 11, "".join(["paper-", "figure"])) == 20.0
    with pytest.raises(ValueError) as excinfo:
        effective_phase_rate(2.0, 11, "florp")
    assert str(excinfo.value) == (
        "unknown convention 'florp'; expected one of: physical, paper-figure"
    )


def test_effective_rate_scaling():
    assert effective_phase_rate(2.0, 501, Convention.PHYSICAL) == 2.0
    assert effective_phase_rate(2.0, 501, Convention.PAPER_FIGURE) == 1000.0
    assert effective_phase_rate(1e300, 10**400, Convention.PHYSICAL) == 1e300


@pytest.mark.parametrize("phi_g, layer_count", [(1e300, 10**20), (1.0, 10**400)])
def test_effective_rate_refuses_out_of_range(phi_g, layer_count):
    # phi_g (m - 1) past float range, or m itself beyond it, names its keys.
    with pytest.raises(OverflowError) as excinfo:
        effective_phase_rate(phi_g, layer_count, Convention.PAPER_FIGURE)
    message = str(excinfo.value)
    assert message.startswith("paper-figure rate phi_g' = phi_g (m - 1) is out of float range")
    for key in ("species.omega0", "constants.g", "constants.c", "geometry.layer_spacing"):
        assert key in message
    assert "dephase.sizes or sweep.sizes" in message


def test_zero_laser_phase_cancels_sy():
    # k <-> -k symmetry: S_y vanishes for any gravitational rate.
    for m in (2, 3, 101, 500):
        result = bloch_sum(make_input(0.0, PHI_G, m, 123.4))
        assert result.s_y == pytest.approx(0.0, abs=1e-13 * m)
        assert result.phi_eff == pytest.approx(0.0, abs=1e-13)
        assert result.ratio is None


def test_no_gravity_all_layers_identical():
    result = bloch_sum(make_input(1e-5, 0.0, 501, 100.0))  # phi_l * t = 1e-3
    assert result.length == pytest.approx(501.0, rel=1e-15)
    assert result.ratio == pytest.approx(1.0, rel=1e-12)


def test_fig1_forty_percent_loss_point():
    # n_site = 500 at t = 100 s under the span-scaled convention: the arcsine
    # estimate recovers only ~60% of the drift.
    rate = effective_phase_rate(PHI_G, 501, Convention.PAPER_FIGURE)
    result = bloch_sum(make_input(1e-5, rate, 501, 100.0))
    assert result.ratio == pytest.approx(0.5876, abs=0.02)


def test_fig1_point_under_physical_convention():
    rate = effective_phase_rate(PHI_G, 501, Convention.PHYSICAL)
    result = bloch_sum(make_input(1e-5, rate, 501, 100.0))
    assert abs(result.ratio - 1.0) < 1e-4


def test_ratio_even_in_phi_g():
    # Sign flip of phi_g mirrors the layer stack; the kernel takes |theta|,
    # so the results match exactly.
    for convention in CONVENTIONS:
        rate = effective_phase_rate(PHI_G, 77, convention)
        a = bloch_sum(make_input(3e-4, rate, 77, 55.0))
        b = bloch_sum(make_input(3e-4, -rate, 77, 55.0))
        assert a.ratio == b.ratio
        assert a.s_y == b.s_y


def test_length_bound_and_phi_eff_branch():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 400))
        inp = make_input(
            float(rng.uniform(0, 1e-2)),
            float(rng.uniform(0, 1e-4)),
            m,
            float(rng.uniform(0, 500.0)),
        )
        result = bloch_sum(inp)
        assert 0.0 <= result.length <= m * (1 + 1e-12)
        assert abs(result.phi_eff) <= math.pi / 2
        assert result.s_x**2 + result.s_y**2 <= m * m * (1 + 1e-12)


def test_full_length_iff_rephased():
    # theta = 2 pi restores the full vector; anything in between shortens it.
    m = 11
    t_rephase = 2 * math.pi / PHI_G
    result = bloch_sum(make_input(0.0, PHI_G, m, t_rephase))
    assert result.length == pytest.approx(m, rel=1e-9)
    result = bloch_sum(make_input(0.0, PHI_G, m, 0.25 * t_rephase))
    assert result.length < m * (1 - 1e-6)


def test_closed_form_coherent_limit():
    # theta = phi_g' t = 0: every layer in phase.
    assert abs(dirichlet(17, 0.0)) / 17 == 1.0
    assert abs(dirichlet(1, 0.0)) / 1 == 1.0


def test_closed_form_two_antipodal_spins():
    assert abs(dirichlet(2, math.pi)) / 2 == pytest.approx(0.0, abs=1e-15)


def test_closed_form_first_null_501():
    theta = 2 * math.pi / 501  # m * theta / 2 = pi
    assert abs(dirichlet(501, theta)) / 501 == pytest.approx(0.0, abs=1e-9)


def test_closed_form_matches_bloch_sum_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(1, 2001))
        theta = float(rng.uniform(0.0, math.pi * (1 - 1e-9)))
        rate, t = theta, 1.0
        oracle = math.hypot(*explicit_layer_sum(0.0, rate, m, t)) / m
        direct = bloch_sum(make_input(0.0, rate, m, t)).length / m
        assert direct == pytest.approx(oracle, rel=1e-9, abs=1e-9)
        assert abs(dirichlet(m, rate * t)) / m == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_small_spread_quadratic_expansion():
    # 1 - ratio ~ (m^2 - 1) theta^2 / 24 while the total spread is small.
    for m, theta in ((51, 1e-3), (501, 2e-4), (11, 5e-3)):
        inp = make_input(1e-8, theta, m, 1.0)
        ratio = bloch_sum(inp).ratio
        expansion = (m * m - 1) * theta * theta / 24.0
        assert (1.0 - ratio) == pytest.approx(expansion, rel=0.1)


def test_brute_force_small_layer_counts():
    # Term-by-term oracle summation; equality up to libm rounding.
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 8))
        phi_l = rng.integers(1, 10) / rng.integers(1, 10)
        phi_g = rng.integers(0, 10) / rng.integers(1, 10)
        t = rng.integers(0, 5) / max(1, rng.integers(1, 4))
        inp = make_input(float(phi_l), float(phi_g), m, float(t))
        s_x, s_y = explicit_layer_sum(float(phi_l), float(phi_g), m, float(t))
        result = bloch_sum(inp)
        assert result.s_x == pytest.approx(s_x, rel=1e-14, abs=1e-14)
        assert result.s_y == pytest.approx(s_y, rel=1e-14, abs=1e-14)


@settings(max_examples=300)
@given(
    m=st.integers(1, 3001),
    j=st.integers(0, 1000),
    log_delta=st.floats(-15.0, 0.5),
    sign=st.sampled_from((1.0, -1.0)),
)
# Regression points where the unreduced sin(m theta/2)/sin(theta/2) gave
# -4.04 m and 0.999994 m.
@example(m=101, j=30000, log_delta=-11.0, sign=1.0)
@example(m=3, j=1, log_delta=-10.0, sign=1.0)
@example(m=8, j=7, log_delta=-math.inf, sign=1.0)
@example(m=9, j=7, log_delta=-math.inf, sign=1.0)
def test_dirichlet_matches_explicit_sum_near_rephasing(m, j, log_delta, sign):
    # theta = 2 pi j +- delta, delta from 1e-15 to ~3 (0 for the -inf examples),
    # both parities of m: the range-reduced kernel against the explicit sum.
    theta = 2.0 * math.pi * j + sign * 10.0**log_delta
    assert abs(dirichlet(m, theta) - explicit_dirichlet(m, theta)) <= 1e-9 * m


def _range_reduced(m, theta):
    """The range-reduced form at every theta, j = round(theta / 2 pi) included."""
    theta = abs(theta)
    j = round(theta / math.tau)
    x = (0.5 * theta - j * dephasing._PI_HI) - j * dephasing._PI_LO
    s = math.sin(x)
    d = float(m) if s == 0.0 else math.sin(m * x) / s
    return -d if m % 2 == 0 and j % 2 else d


@settings(max_examples=500)
@given(m=st.integers(1, 10**6), theta=st.floats(0.0, math.pi, exclude_max=True))
@example(m=7, theta=0.0)
@example(m=8, theta=5e-324)
@example(m=101, theta=math.pi)
@example(m=101, theta=math.nextafter(math.pi, 0.0))
@example(m=102, theta=math.nextafter(math.pi, math.inf))
@example(m=2, theta=math.pi)
def test_dirichlet_fast_path_is_bit_identical_to_the_reduced_form(m, theta):
    # |theta| < pi takes the j = 0 path, which skips the range reduction.
    for value in (theta, -theta):
        assert dirichlet(m, value).hex() == _range_reduced(m, value).hex()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_dirichlet_refuses_a_non_finite_phase_spread(theta):
    with pytest.raises(ValueError) as excinfo:
        dirichlet(5, theta)
    assert str(excinfo.value) == (
        f"layer phase spread phi_g' t must be finite, got {theta!r}; phi_g is set by"
        " species.omega0, constants.g, constants.c and geometry.layer_spacing (default"
        " species.magic_wavelength / 2), times the layer gaps under the paper-figure convention"
    )


@settings(max_examples=300)
@given(
    m=st.integers(1, 10**6),
    theta=st.floats(0.0, 20.0),
    a=st.floats(2.0**-1022, dephasing.SMALL_ANGLE, exclude_max=True),
)
def test_small_angle_ratio_is_the_limit_of_the_ratio_form(m, theta, a):
    # Below |phi_l t| = 2^-26 the ratio is D / m: asin(sin(a) D / m) / a
    # agrees to its three roundings wherever sin(a) D / m is normal.
    d = dirichlet(m, theta)
    x = math.sin(a) * d / m
    assume(abs(x) >= sys.float_info.min)
    assert abs(math.asin(x) / a - d / m) <= 2 * math.ulp(d / m)


@BY_CONVENTION
def test_subnormal_laser_phase_takes_the_small_angle_ratio(convention):
    # phi_l t is subnormal on every row but t = 0, where sin and asin would
    # round the ratio to 1: each row is bloch_sum's, with ratio D / m.
    m, phi_l, grid = 854, 5e-324, [0.0, 1.0, 10.0, 100.0]
    rate = effective_phase_rate(PHI_G, m, convention)
    ratios, contrasts = dephase_curve(phi_l, rate, m, grid)
    assert (ratios, contrasts) == bloch_columns(phi_l, m, grid, convention)
    assert (ratios[0], contrasts[0]) == (None, 1.0)
    for t, ratio in zip(grid[1:], ratios[1:]):
        assert ratio == dirichlet(m, rate * t) / m < 1.0


def test_even_layer_count_uses_half_integer_offsets():
    # Two layers at +/- theta/2: S_x = 2 cos(theta/2).
    theta = 0.8
    result = bloch_sum(make_input(0.0, theta, 2, 1.0))
    assert result.s_x == pytest.approx(2 * math.cos(theta / 2), rel=1e-14)


def test_input_validation():
    with pytest.raises(ValueError):
        make_input(math.nan, 0.0, 5, 1.0)
    with pytest.raises(ValueError):
        make_input(0.0, math.inf, 5, 1.0)
    with pytest.raises(ValueError):
        make_input(0.0, 0.0, 0, 1.0)
    with pytest.raises(ValueError):
        make_input(0.0, 0.0, 5, -1.0)
    with pytest.raises(ValueError, match="finite"):
        bloch_sum(make_input(0.0, 1e300, 5, 1e300))  # phi_g' t overflows


def test_dephase_curve_rows():
    grid = [0.0, 50.0, 100.0, 200.0]
    rate = effective_phase_rate(PHI_G, 101, Convention.PAPER_FIGURE)
    ratios, contrasts = dephase_curve(1e-5, rate, 101, grid)
    assert (ratios, contrasts) == bloch_columns(1e-5, 101, grid, Convention.PAPER_FIGURE)
    # t = 0: no nominal phase, every layer in phase
    assert (ratios[0], contrasts[0]) == (None, 1.0)
    for ratio in ratios[1:]:
        assert abs(ratio - 1.0) < 2e-2


def test_dephase_curve_empty_grid():
    assert dephase_curve(1e-5, PHI_G, 101, []) == ([], [])


def test_dephase_curve_rejects_bad_grid():
    for grid in ([0.0, 0.0], [1.0, 0.5], [-1.0, 0.5]):
        with pytest.raises(ValueError):
            dephase_curve(1e-5, PHI_G, 101, grid)


def test_dephase_curve_names_a_bad_grid_before_what_it_breaks():
    # phi_l t overflows at row 0 only because the grid is not increasing:
    # the refusal names the grid, not the sine of an infinite phase.
    with pytest.raises(ValueError) as excinfo:
        dephase_curve(10.0, PHI_G, 5, [1e308, 1.0])
    assert str(excinfo.value) == "t_grid must be strictly increasing at index 1"


@settings(max_examples=300)
@given(
    grid=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=20, unique=True).map(sorted),
    defect=st.sampled_from(["equal", "smaller", "negative first", "nan", "inf", "-inf"]),
    data=st.data(),
    phi_l=st.sampled_from([1e-5, sys.float_info.max]),
    layer_count=st.integers(1, 10**4),
    sequence=st.sampled_from([list, tuple]),
)
def test_dephase_curve_names_the_one_defect_of_a_grid(
    grid, defect, data, phi_l, layer_count, sequence
):
    # One defect at a drawn index of an otherwise valid grid: the one C-level
    # check catches it and _check_grid names it, also where phi_l t = inf at
    # row 0 (phi_l at float max) would fail a row first.
    if defect in ("equal", "smaller"):
        assume(len(grid) > 1)
        i = data.draw(st.integers(1, len(grid) - 1))
        fraction = 1.0 if defect == "equal" else data.draw(st.floats(0.0, 1.0, exclude_max=True))
        grid[i] = grid[i - 1] * fraction
        expected = f"t_grid must be strictly increasing at index {i}"
    else:
        if defect == "negative first":
            i, value = 0, -data.draw(st.floats(5e-324, 1e300))
        else:
            i, value = data.draw(st.integers(0, len(grid) - 1)), float(defect)
        grid[i] = value
        expected = f"t_grid[{i}] must be >= 0 and finite, got {value!r}"
    with pytest.raises(ValueError) as excinfo:
        dephase_curve(phi_l, PHI_G, layer_count, sequence(grid))
    assert str(excinfo.value) == expected
    with pytest.raises(ValueError) as named:
        dephasing._check_grid(grid)
    assert str(named.value) == expected


def test_dephase_curve_accepts_a_negative_zero_first_point():
    ratios, contrasts = dephase_curve(1e-5, PHI_G, 101, [-0.0, 1.0])
    assert ratios[0] is None and contrasts[0] == 1.0 and len(ratios) == len(contrasts) == 2
    with pytest.raises(ValueError, match=r"^t_grid must be strictly increasing at index 1$"):
        dephase_curve(1e-5, PHI_G, 101, [-0.0, 0.0])


def test_dephase_curve_matches_single_evaluation():
    rate = effective_phase_rate(PHI_G, 501, Convention.PAPER_FIGURE)
    columns = dephase_curve(1e-5, rate, 501, [100.0])
    direct = bloch_sum(make_input(1e-5, rate, 501, 100.0))
    assert columns == ([direct.ratio], [direct.length / 501])


@BY_CONVENTION
@pytest.mark.parametrize("m", [1, 2, 101, 2001])
def test_dephase_curve_equals_bloch_sum_per_point(convention, m):
    phi_l = 1e-2
    rate = effective_phase_rate(PHI_G, m, convention)
    # t = 0 (no ratio), points before and past the arcsine fold at
    # phi_l t = pi/2, and the first rephasing point phi_g' t = 2 pi.
    grid = {0.0, 10.0, 100.0, 200.0, 1000.0}
    if rate:
        grid.add(math.tau / rate)
    grid = sorted(grid)
    ratios, contrasts = dephase_curve(phi_l, rate, m, grid)
    assert (ratios, contrasts) == bloch_columns(phi_l, m, grid, convention)
    by_t = dict(zip(grid, zip(ratios, contrasts)))
    assert by_t[0.0][0] is None
    assert by_t[1000.0][0] < (math.pi / 2) / (phi_l * 1000.0)  # folded
    if rate:
        assert by_t[math.tau / rate][1] == pytest.approx(1.0, rel=1e-9)
    assert type(ratios) is list and type(contrasts) is list
    assert len(ratios) == len(contrasts) == len(grid)


# dephase_curve checks its inputs once per call, also for an empty grid.
# A non-finite phi_l is refused as an out-of-range laser phase, by its keys.
@pytest.mark.parametrize(
    "phi_l, phi_g, layer_count, grid, error, message",
    [
        (
            math.nan, PHI_G, 5, [0.0, 1.0], OverflowError,
            "laser phase phi_l t = nan rad/s x 1.0 s is out of float range;"
            " it is set by dephase.phi_l and dephase.t_grid",
        ),
        (
            math.inf, PHI_G, 5, [], OverflowError,
            "laser phase phi_l t = inf rad/s x 0.0 s is out of float range;"
            " it is set by dephase.phi_l and dephase.t_grid",
        ),
        (1e-5, math.nan, 5, [0.0, 1.0], ValueError, "phi_g must be finite, got nan"),
        (1e-5, -math.inf, 5, [1.0], ValueError, "phi_g must be finite, got -inf"),
        (1e-5, math.inf, 5, [], ValueError, "phi_g must be finite, got inf"),
        (1e-5, PHI_G, 0, [0.0, 1.0], ValueError, "layer_count must be >= 1, got 0"),
        (1e-5, PHI_G, -3, [], ValueError, "layer_count must be >= 1, got -3"),
    ],
    ids=[
        "nan phi_l",
        "inf phi_l, empty grid",
        "nan phi_g",
        "-inf phi_g",
        "inf phi_g, empty grid",
        "no layers",
        "negative layers, empty grid",
    ],
)
def test_dephase_curve_refuses_bad_inputs(phi_l, phi_g, layer_count, grid, error, message):
    with pytest.raises(error) as excinfo:
        dephase_curve(phi_l, phi_g, layer_count, grid)
    assert str(excinfo.value) == message


def test_dephase_curve_refuses_overflowing_layer_phase():
    for convention, phi_g in ((Convention.PHYSICAL, 1e300), (Convention.PAPER_FIGURE, 1e299)):
        with pytest.raises(ValueError, match="phi_g' t must be finite, got inf") as excinfo:
            dephase_curve(0.0, effective_phase_rate(phi_g, 5, convention), 5, [0.0, 1e10])
        assert "species.omega0, constants.g" in str(excinfo.value)


def test_curve_work_per_preset_row(monkeypatch, tmp_path, capsys):
    preset = PRESETS / "dephase_curve.cfg"
    scenario = parse_scenario(preset.read_text())
    sizes, grid = len(scenario.dephase_sizes), len(scenario.dephase_t_grid)
    counts = collections.Counter()

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)

        return counted

    monkeypatch.setattr(DephasingInput, "__new__", counting("inputs", DephasingInput.__new__))
    monkeypatch.setattr(BlochSummary, "__new__", counting("summaries", BlochSummary.__new__))
    monkeypatch.setattr(cli, "dephase_curve", counting("curves", dephase_curve))
    monkeypatch.setattr(cli, "effective_phase_rate", counting("rates", effective_phase_rate))
    monkeypatch.setattr(dephasing, "dirichlet", counting("dirichlet", dirichlet))
    # Per row, no Python function formats a float: the t column is formatted
    # once, and each size's rows through one % over its row template.
    for module in (cli, emit):
        monkeypatch.setattr(module, "fmt_float", counting("fmt_float", emit.fmt_float))
    monkeypatch.setattr(cli, "fmt_floats", counting("fmt_floats", emit.fmt_floats))
    for convention in ("physical", "paper-figure"):
        counts.clear()
        argv = ["dephase-curve", "--scenario", str(preset), "--convention", convention]
        assert cli.main(argv + ["--out", str(tmp_path / convention)]) == 0
        rows = sizes * grid
        assert counts["curves"] == sizes
        assert counts["inputs"] <= sizes
        assert counts["summaries"] == 0
        assert counts["rates"] == sizes
        assert counts["dirichlet"] == rows
        assert counts["fmt_float"] <= 1
        assert counts["fmt_floats"] == 1
    capsys.readouterr()
