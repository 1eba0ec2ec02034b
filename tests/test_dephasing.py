from __future__ import annotations

import collections
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from layer_sum_oracle import explicit_dirichlet, explicit_layer_sum

from gravclock import cli, dephasing, emit
from gravclock.core import PhysicalConstants, YB, per_layer_phase_rate
from gravclock.dephasing import (
    BlochSummary,
    Convention,
    DephasingInput,
    bloch_sum,
    dephase_curve,
    dirichlet,
    effective_phase_rate,
)
from gravclock.scenario import parse_scenario

PHI_G = per_layer_phase_rate(PhysicalConstants(), YB, YB.default_layer_spacing)
PRESETS = Path(__file__).resolve().parent.parent / "presets"


def make_input(phi_l, phi_g, layer_count, t, convention=Convention.PHYSICAL):
    return DephasingInput(
        phi_l=phi_l, phi_g=phi_g, layer_count=layer_count, t=t, convention=convention
    )


def test_convention_wire_names():
    assert Convention.from_wire("physical") is Convention.PHYSICAL
    assert Convention.from_wire("paper-figure") is Convention.PAPER_FIGURE
    with pytest.raises(ValueError):
        Convention.from_wire("florp")


def test_effective_rate_scaling():
    assert effective_phase_rate(2.0, 501, Convention.PHYSICAL) == 2.0
    assert effective_phase_rate(2.0, 501, Convention.PAPER_FIGURE) == 1000.0


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
    result = bloch_sum(make_input(1e-5, PHI_G, 501, 100.0, Convention.PAPER_FIGURE))
    assert result.ratio == pytest.approx(0.5876, abs=0.02)


def test_fig1_point_under_physical_convention():
    result = bloch_sum(make_input(1e-5, PHI_G, 501, 100.0, Convention.PHYSICAL))
    assert abs(result.ratio - 1.0) < 1e-4


def test_ratio_even_in_phi_g():
    # Sign flip of phi_g mirrors the layer stack; the kernel takes |theta|,
    # so the results match exactly.
    for convention in Convention:
        a = bloch_sum(make_input(3e-4, PHI_G, 77, 55.0, convention))
        b = bloch_sum(make_input(3e-4, -PHI_G, 77, 55.0, convention))
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
    rows = dephase_curve(1e-5, PHI_G, 101, Convention.PAPER_FIGURE, grid)
    assert [t for t, _ in rows] == grid
    assert rows[0][1].ratio is None  # t = 0 leaves the nominal phase empty
    for _, summary in rows[1:]:
        assert isinstance(summary, BlochSummary)
        assert abs(summary.ratio - 1.0) < 2e-2


def test_dephase_curve_empty_grid():
    assert dephase_curve(1e-5, PHI_G, 101, Convention.PHYSICAL, []) == []


def test_dephase_curve_rejects_bad_grid():
    for grid in ([0.0, 0.0], [1.0, 0.5], [-1.0, 0.5]):
        with pytest.raises(ValueError):
            dephase_curve(1e-5, PHI_G, 101, Convention.PHYSICAL, grid)


def test_dephase_curve_matches_single_evaluation():
    rows = dephase_curve(1e-5, PHI_G, 501, Convention.PAPER_FIGURE, [100.0])
    direct = bloch_sum(make_input(1e-5, PHI_G, 501, 100.0, Convention.PAPER_FIGURE))
    assert rows[0][1] == direct


@pytest.mark.parametrize("convention", list(Convention))
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
    rows = dephase_curve(phi_l, PHI_G, m, convention, grid)
    assert rows == [(t, bloch_sum(make_input(phi_l, PHI_G, m, t, convention))) for t in grid]
    by_t = dict(rows)
    assert by_t[0.0].ratio is None
    assert by_t[1000.0].ratio < (math.pi / 2) / (phi_l * 1000.0)  # folded
    if rate:
        assert by_t[math.tau / rate].length == pytest.approx(m, rel=1e-9)
    for _, summary in rows:
        assert isinstance(summary, BlochSummary) and summary == tuple(summary)


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
    for convention in Convention:
        with pytest.raises(error) as excinfo:
            dephase_curve(phi_l, phi_g, layer_count, convention, grid)
        assert str(excinfo.value) == message


def test_dephase_curve_refuses_overflowing_layer_phase():
    for convention, phi_g in ((Convention.PHYSICAL, 1e300), (Convention.PAPER_FIGURE, 1e299)):
        with pytest.raises(ValueError, match="phi_g' t must be finite, got inf") as excinfo:
            dephase_curve(0.0, phi_g, 5, convention, [0.0, 1e10])
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
    monkeypatch.setattr(dephasing, "effective_phase_rate", counting("rates", effective_phase_rate))
    monkeypatch.setattr(dephasing, "dirichlet", counting("dirichlet", dirichlet))
    monkeypatch.setattr(cli, "fmt_float", counting("fmt_float", emit.fmt_float))
    for convention in ("physical", "paper-figure"):
        counts.clear()
        argv = ["dephase-curve", "--scenario", str(preset), "--convention", convention]
        assert cli.main(argv + ["--out", str(tmp_path / convention)]) == 0
        rows = sizes * grid
        assert counts["inputs"] <= sizes
        assert counts["rates"] <= sizes
        assert counts["dirichlet"] == rows
        assert counts["fmt_float"] <= 2 * rows + grid + 1
    capsys.readouterr()
