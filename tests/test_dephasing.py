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
from gravclock.core import CONVENTIONS, MAX_COUNT, PHI_G_KEYS, YB, per_layer_phase_rate
from gravclock.dephasing import (
    BlochSummary,
    Convention,
    DephasingInput,
    bloch_sum,
    dephase_curve,
    dirichlet,
    effective_phase_rate,
    phase_ratio,
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
        f"layer phase spread phi_g' t must be finite, got {theta!r}; phi_g (times m - 1 under"
        " paper-figure) is set by species.omega0, constants.g, constants.c and"
        " geometry.layer_spacing (default species.magic_wavelength / 2)"
    )


@settings(max_examples=1000)
@given(
    theta=st.floats(1e300, sys.float_info.max) | st.floats(allow_nan=False, allow_infinity=False)
)
@example(theta=sys.float_info.max)
@example(theta=-sys.float_info.max)
@example(theta=1e200)
def test_dirichlet_is_finite_at_the_largest_layer_count(theta):
    # A dephase size of MAX_COUNT sums MAX_COUNT + 1 layers. Near the float
    # maximum the reduced angle x is at most ~1.6e292 (the rounding of j pi),
    # so m x stays below ~1.5e308 and sin never sees an infinity.
    assert math.isfinite(dirichlet(MAX_COUNT + 1, theta))


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
    # The fields come from parsed scenario keys; only a phase spread that
    # their product makes non-finite is refused.
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


def test_dephase_curve_accepts_a_negative_zero_first_point():
    ratios, contrasts = dephase_curve(1e-5, PHI_G, 101, [-0.0, 1.0])
    assert ratios[0] is None and contrasts[0] == 1.0 and len(ratios) == len(contrasts) == 2


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


def _phase_ratio_rows(phi_l, phi_g, m, grid):
    """dephase_curve's columns by one phase_ratio call per row."""
    rows = [phase_ratio(m, phi_l, phi_g, t) for t in grid]
    return [ratio for ratio, _ in rows], [abs(d) / m for _, d in rows]


def _outcome(curve, *args):
    """curve(*args) as its columns by .hex(), or its refusal's type and message."""
    try:
        ratios, contrasts = curve(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return [r if r is None else r.hex() for r in ratios], [c.hex() for c in contrasts]


_FLOAT_MAX_INT = int(sys.float_info.max)


@settings(max_examples=400)
@given(
    m=st.sampled_from([1, 2, 3, 101, 2**53 + 1, 2**60, _FLOAT_MAX_INT]) | st.integers(1, 10**6),
    phi_l=st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-310, 3e-5, -3e-5])
    | st.floats(-10.0, 10.0),
    phi_g=st.sampled_from([0.0, 5e-324, -1e-300, 1e-7]) | st.floats(-1e3, 1e3),
    points=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.floats(0.0, 2.0) | st.integers(-8, 8).map(lambda k: 1.0 + k * 2.0**-52),
        ),
        max_size=14,
    ),
)
# phi_g' = 0: x = 0, so every row calls phase_ratio.
@example(m=101, phi_l=1e-3, phi_g=0.0, points=[(0, 0.0), (0, 1.0), (0, 10.0)])
# A subnormal phi_g' t: x = 0 through t = 1, so those rows call phase_ratio;
# the rows from t = 2 run its operations inline.
@example(m=7, phi_l=1e-3, phi_g=5e-324, points=[(0, 1.0), (0, 2.0), (0, 3.0), (0, 7.0)])
# m x overflows on an inline row at t = 1.5, and sin refuses it.
@example(m=_FLOAT_MAX_INT, phi_l=1e-3, phi_g=2.0, points=[(0, 0.5), (0, 1.0), (0, 1.5), (0, 1.6)])
# phi_g' t overflows at t = 1e10, where phase_ratio's dirichlet would refuse
# it; dephase_curve refuses the grid up front.
@example(m=5, phi_l=1e-3, phi_g=1e300, points=[(0, 0.0), (0, 1e-300), (0, 1e10)])
def test_dephase_curve_equals_phase_ratio_per_row(m, phi_l, phi_g, points):
    # Each grid point is a factor times an anchor: 1 s, or where |phi_l t|
    # crosses 2^-26, or x = |phi_g' t| / 2 crosses pi/2, pi or 2 pi, so rows
    # that call phase_ratio and rows that run its operations inline meet
    # mid-grid. Every prefix of the grid, the empty and one-point ones too,
    # gives phase_ratio's rows bit for bit, or the refusal of its first
    # refused row; a prefix whose last phi_g' t overflows is refused up front.
    anchors = [1.0] + [
        crossing / abs(rate) if rate else math.inf
        for crossing, rate in [
            (dephasing.SMALL_ANGLE, phi_l),
            (math.pi, phi_g),
            (math.tau, phi_g),
            (2 * math.tau, phi_g),
        ]
    ]
    grid = sorted({anchors[i] * f for i, f in points if anchors[i] * f < math.inf})
    assume(not grid or abs(phi_l * grid[-1]) < math.inf)
    for k in range(len(grid) + 1):
        outcome = _outcome(dephase_curve, phi_l, phi_g, m, grid[:k])
        if k and not abs(phi_g) * grid[k - 1] < math.inf:
            assert outcome[0] is OverflowError and "layer phase phi_g' t" in outcome[1]
            with pytest.raises(ValueError, match="phi_g' t must be finite"):
                _phase_ratio_rows(phi_l, phi_g, m, grid[:k])
        else:
            assert outcome == _outcome(_phase_ratio_rows, phi_l, phi_g, m, grid[:k])


# The laser phase phi_l t at the last time is checked once per call, also for
# an empty grid; a non-finite phi_l is refused as out of range, by its keys.
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
    ],
    ids=["nan phi_l", "inf phi_l, empty grid"],
)
def test_dephase_curve_refuses_bad_inputs(phi_l, phi_g, layer_count, grid, error, message):
    with pytest.raises(error) as excinfo:
        dephase_curve(phi_l, phi_g, layer_count, grid)
    assert str(excinfo.value) == message


def test_dephase_curve_refuses_overflowing_layer_phase():
    # Refused up front under either convention, by the keys of phi_g, m and t.
    for convention, phi_g in ((Convention.PHYSICAL, 1e300), (Convention.PAPER_FIGURE, 1e299)):
        with pytest.raises(OverflowError) as excinfo:
            dephase_curve(0.0, effective_phase_rate(phi_g, 5, convention), 5, [0.0, 1e10])
        assert str(excinfo.value) == (
            f"layer phase phi_g' t is out of float range; it is set by {PHI_G_KEYS},"
            " dephase.sizes under paper-figure and dephase.t_grid"
        )


def test_curve_work_per_preset_row(monkeypatch, tmp_path, capsys, preset_under):
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
    monkeypatch.setattr(dephasing, "phase_ratio", counting("phase_ratio", phase_ratio))
    # Per row, no Python function formats a float: the t column is formatted
    # once, and each size's rows through csv_text's one % over its templates.
    for module in (cli, emit):
        monkeypatch.setattr(module, "fmt_float", counting("fmt_float", emit.fmt_float))
    monkeypatch.setattr(cli, "fmt_floats", counting("fmt_floats", emit.fmt_floats))
    for convention in ("physical", "paper-figure"):
        argv = ["dephase-curve", "--scenario", str(preset_under(preset.name, convention))]
        counts.clear()
        assert cli.main(argv + ["--out", str(tmp_path / convention)]) == 0
        assert counts["curves"] == sizes
        assert counts["inputs"] <= sizes
        assert counts["summaries"] == 0
        assert counts["rates"] == sizes
        # The t = 0 row of each size is the only row that calls phase_ratio;
        # every other row of the preset runs its float operations inline,
        # which call neither.
        assert grid > 1 and counts["phase_ratio"] == counts["dirichlet"] == sizes
        assert counts["fmt_float"] <= 1
        assert counts["fmt_floats"] == 1
    capsys.readouterr()
