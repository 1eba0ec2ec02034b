from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from regime_fit import scaling_exponent

from gravclock import sweep as sweep_module
from gravclock.cli import main
from gravclock.core import default_size_grid, geomspace, linspace
from gravclock.dephasing import Convention
from gravclock.scenario import Scenario, ScenarioError, parse_scenario
from gravclock.sweep import sweep

PF = Convention.PAPER_FIGURE


def yb_sweep(family, sizes, phi_l_grid, atoms_per_layer=Scenario().sweep_atoms_per_layer):
    """A paper-figure sweep of Yb at its magic-wavelength spacing."""
    return sweep(
        Scenario(
            convention=PF,
            sweep_family=family,
            sweep_sizes=tuple(sizes),
            sweep_phi_l=tuple(phi_l_grid),
            sweep_atoms_per_layer=atoms_per_layer,
        )
    )


def cubic_curve(phi_l, sizes=None):
    return yb_sweep("cubic", sizes or Scenario().sweep_sizes, (phi_l,))


def cubic_point(size, phi_l):
    (point,) = yb_sweep("cubic", (size,), (phi_l,))
    return point


def test_default_size_grid():
    sizes = Scenario().sweep_sizes
    assert sizes[0] == 2 and sizes[-1] == 1000
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert 30 <= len(sizes) <= 40


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400)
@given(a=_FINITE, b=_FINITE, n=st.integers(1, 2000))
@example(a=0.0, b=200.0, n=201)  # the default dephase t grid
@example(a=3.5, b=3.5, n=7)  # a == b
@example(a=10.0, b=-2.5, n=5)  # a > b
@example(a=0.0, b=1e-321, n=1000)  # the step underflows to zero
@example(a=-1e-300, b=1e-300, n=2000)
@example(a=-1.7e308, b=1.7e308, n=4)  # b - a overflows
@example(a=-0.0, b=1.0, n=1)
def test_linspace_is_bit_identical_to_numpy(a, b, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(a, b, n)
    assert _bits(linspace(a, b, n)) == _bits(expected)


_POSITIVE = st.floats(1e-300, 1e300)


@settings(max_examples=300)
@given(a=_POSITIVE, b=_POSITIVE, n=st.integers(1, 500))
@example(a=1e-6, b=1e9, n=481)  # the tau_max scan grid
@example(a=1e-300, b=1e300, n=2)
def test_geomspace_is_numpy_geomspace_to_one_ulp(a, b, n):
    # Same steps as np.geomspace; only the rounding of pow may differ.
    got, want = geomspace(a, b, n), np.geomspace(a, b, n).tolist()
    assert len(got) == n
    assert got[0] == a and got[-1] == (b if n > 1 else a)
    assert all(abs(x - y) <= math.ulp(y) for x, y in zip(got, want))


def _numpy_size_grid(lo, hi, points):
    raw = np.geomspace(lo, hi, points)
    return tuple(int(v) for v in np.unique(np.round(raw)).astype(int))


@settings(max_examples=500)
@given(lo=st.integers(1, 39), extra=st.integers(0, 9_999), points=st.integers(1, 100))
@example(lo=2, extra=998, points=40)  # the default grid
@example(lo=1, extra=9_999, points=100)
@example(lo=39, extra=0, points=100)
def test_default_size_grid_matches_numpy_geomspace(lo, extra, points):
    hi = min(lo + extra, 10_000)
    assert default_size_grid(lo, hi, points) == _numpy_size_grid(lo, hi, points)


def test_sigma_1s_definition_exact():
    for point in cubic_curve(1e-4, sizes=(10, 50, 200)):
        assert point.sigma_at_1s == point.sigma_at_tau * math.sqrt(point.tau_max_s)


def test_fig2_point_n200():
    point = cubic_point(200, 1e-2)
    assert 40.0 <= point.tau_max_s <= 90.0
    assert point.sigma_at_tau == pytest.approx(2.58e-20, rel=0.3)
    assert point.sigma_at_1s == pytest.approx(2e-19, rel=0.3)


def test_laser_regime_point_n2():
    point = cubic_point(2, 1e-6)
    assert point.tau_max_s == pytest.approx(1.97e6, rel=0.1)


def test_sigma_monotone_in_phi_l():
    for size in (10, 100, 500):
        sigmas = [
            point.sigma_at_1s for point in yb_sweep("cubic", (size,), Scenario().sweep_phi_l)
        ]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(sigmas, sigmas[1:]))


def test_interior_minimum_for_strong_drift():
    curve = cubic_curve(1e-2)
    sigmas = [p.sigma_at_1s for p in curve]
    best = min(sigmas)
    assert sigmas[0] > best and sigmas[-1] > best
    idx = sigmas.index(best)
    assert 0 < idx < len(sigmas) - 1


def test_cubic_laser_slope_near_minus_one():
    assert scaling_exponent(cubic_curve(1e-2), "small") == pytest.approx(-1.0, abs=0.15)


def test_cubic_gravity_slope_near_plus_quarter():
    assert scaling_exponent(cubic_curve(1e-2), "large") == pytest.approx(0.25, abs=0.10)


def test_slab_gravity_slope_near_plus_one():
    slab = yb_sweep("slab", Scenario().sweep_sizes, (1e-6,))
    assert scaling_exponent(slab, "large") == pytest.approx(1.0, abs=0.15)


def test_slab_flat_then_rising():
    points = yb_sweep("slab", Scenario().sweep_sizes, (1e-2,))
    sigmas = [p.sigma_at_1s for p in points]
    # Laser-limited plateau at small layer counts.
    assert sigmas[1] == pytest.approx(sigmas[0], rel=1e-3)
    # Gravity-limited rise at large layer counts.
    assert sigmas[-1] > 3 * sigmas[0]


def test_slab_monotone_in_gravity_regime():
    sigmas = [p.sigma_at_1s for p in yb_sweep("slab", Scenario().sweep_sizes, (1e-6,))]
    large = sigmas[sigmas.index(min(sigmas)) + 1:]
    assert all(b > a for a, b in zip(large, large[1:]))


def test_sweep_row_order_is_size_major():
    cells = [(p.size, p.phi_l) for p in yb_sweep("cubic", (3, 7), (1e-4, 1e-2))]
    assert cells == [(3, 1e-4), (3, 1e-2), (7, 1e-4), (7, 1e-2)]


def test_single_cell_sweep():
    points = yb_sweep("cubic", (100,), (1e-3,))
    assert len(points) == 1
    assert points[0].size == 100


def test_flagged_point_capped_at_tau_limit():
    # A single slab layer with a silent laser never dephases.
    (point,) = yb_sweep("slab", (1,), (0.0,), atoms_per_layer=100)
    assert point.flag == "non-bracketable"
    assert point.tau_max_s == 1e9
    assert point.sigma_at_1s == point.sigma_at_tau * math.sqrt(1e9)


def test_sweep_rejects_unknown_family():
    # sweep.family is checked once, by its key; sweep takes the parsed value.
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario("sweep.family = pyramid\n")
    assert str(excinfo.value) == (
        "line 1: invalid value for 'sweep.family': must be cubic or slab, got 'pyramid'"
    )


@pytest.mark.parametrize(
    "sizes", [f"{2**53 + 1}", f"2,{2**53 + 1}"], ids=["first size", "second size"]
)
def test_sweep_size_past_the_bound_is_refused_before_any_cell_is_solved(
    monkeypatch, tmp_path, capsys, sizes
):
    # A size past 2^53 is refused as sweep.sizes is read: no cell is solved,
    # not even one of the sizes before it.
    cells = []
    real_solve = sweep_module.solve_tau_max

    def counted(cell):
        cells.append(cell)
        return real_solve(cell)

    monkeypatch.setattr(sweep_module, "solve_tau_max", counted)
    scenario = tmp_path / "sizes.cfg"
    scenario.write_text(f"sweep.sizes = {sizes}\nsweep.phi_l = 1e-3,0\n")
    out = tmp_path / "out"
    assert main(["stability-sweep", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "gravclock: error: line 1: invalid value for 'sweep.sizes': sizes must be at most"
        " 2^53 = 9007199254740992, got 9007199254740993\n"
    )
    assert cells == []
    assert not out.exists()
