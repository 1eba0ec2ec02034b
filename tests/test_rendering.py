"""Both CSV commands render their rows in bulk; these tests hold them to the
row-by-row renderers they replaced, kept verbatim below as byte references.

The references format every cell with their own fmt_float (the f-string
it was) and assemble the file with their own csv_text, so a change to the
shared float format or to csv_text shows here as a byte difference. They
reach the kernels through the cli module, so a kernel patched there feeds
both renderers the same rows.
"""

from __future__ import annotations

import itertools
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from gravclock import cli, emit
from gravclock.core import CONVENTIONS, Convention
from gravclock.scenario import Scenario

_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max]
_EDGE_FLOATS += [-value for value in _EDGE_FLOATS[4:]]


def _reference_fmt_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value!r}")
    return f"{value:.17g}"


def _reference_csv_text(header: list[str], lines: list[str]) -> str:
    commas = len(header) - 1
    for line in lines:
        if line.count(",") != commas:
            raise ValueError(f"row width {line.count(',') + 1} != header width {len(header)}")
    return "\n".join([",".join(header), *lines]) + "\n"


def _reference_dephase_curve(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    """The previous dephase-curve renderer: one formatted line per row."""
    fmt_float = _reference_fmt_float
    species = scenario.species_obj()
    consts = scenario.consts_obj()
    phi_g = cli.per_layer_phase_rate(consts, species, scenario.layer_spacing())

    phi_l, t_grid = scenario.dephase_phi_l, scenario.dephase_t_grid
    t_cells = [fmt_float(t) for t in t_grid]
    phi_l_cell, convention = fmt_float(phi_l), scenario.convention
    lines: list[str] = []
    for n_site in scenario.dephase_sizes:
        middle = f",{n_site},{phi_l_cell},{convention},"
        rate = cli.effective_phase_rate(phi_g, n_site + 1, scenario.convention)
        ratios, contrasts = cli.dephase_curve(phi_l, rate, n_site + 1, t_grid)
        lines += [
            f"{t_cell}{middle}{'' if ratio is None else fmt_float(ratio)},{fmt_float(contrast)}"
            for t_cell, ratio, contrast in zip(t_cells, ratios, contrasts)
        ]
    header = ["t_s", "n_site", "phi_l", "convention", "ratio", "contrast"]
    files = {scenario.output_dephase_curve: _reference_csv_text(header, lines)}
    text = f"dephase-curve: {len(lines)} rows ({len(scenario.dephase_sizes)} sizes)\n"
    return files, [], text


def _reference_stability_sweep(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    """The previous stability-sweep renderer: one formatted line per point."""
    fmt_float = _reference_fmt_float
    family, convention = scenario.sweep_family, scenario.convention
    points = cli.sweep(scenario)
    header = [
        "geometry",
        "size",
        "phi_l",
        "convention",
        "tau_max_s",
        "sigma_at_tau",
        "sigma_at_1s",
        "flag",
    ]
    lines = [
        ",".join(
            [
                family,
                str(point.size),
                fmt_float(point.phi_l),
                convention,
                fmt_float(point.tau_max_s),
                fmt_float(point.sigma_at_tau),
                fmt_float(point.sigma_at_1s),
                point.flag,
            ]
        )
        for point in points
    ]
    flags = [
        f"{family}:{point.size}:phi_l={fmt_float(point.phi_l)}: {point.flag}"
        for point in points
        if point.flag
    ]
    files = {scenario.output_stability_sweep: _reference_csv_text(header, lines)}
    text = f"stability-sweep: {len(lines)} rows, {len(flags)} flagged\n"
    return files, flags, text


def _increasing(values) -> tuple[float, ...]:
    return tuple(sorted(set(values)))


_CONVENTIONS = st.sampled_from(CONVENTIONS)
# A laser phase phi_l t that is 0 everywhere, underflows over the grid's
# leading rows (a subnormal phi_l), or passes the arcsine fold at pi/2.
_PHI_L = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2e-308),
    st.floats(1e-4, 1.0),
)
_T_GRIDS = st.builds(
    lambda zero, ts: _increasing([0.0] * zero + ts),
    st.booleans(),
    st.lists(st.floats(0.0, 1e4), min_size=1, max_size=30),
)
# n_site 1 .. 9999: layer counts m = n_site + 1 from 2 to 10^4.
_CURVE_SIZES = st.lists(st.integers(1, 9999), min_size=1, max_size=3, unique=True).map(
    lambda sizes: tuple(sorted(sizes))
)
_CURVES = st.builds(
    Scenario,
    dephase_phi_l=_PHI_L,
    dephase_sizes=_CURVE_SIZES,
    dephase_t_grid=_T_GRIDS,
    convention=_CONVENTIONS,
)
_SUBNORMAL_CURVE = Scenario(
    dephase_phi_l=5e-324,
    dephase_sizes=(1, 9999),
    dephase_t_grid=(0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 300.0),
)
# Sizes from 1, phi_l from 0 (flagged non-bracketable) to far past any cap.
_SWEEPS = st.builds(
    Scenario,
    sweep_family=st.sampled_from(["cubic", "slab"]),
    sweep_sizes=st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True).map(
        lambda sizes: tuple(sorted(sizes))
    ),
    sweep_phi_l=st.lists(
        st.sampled_from([0.0, 5e-324, 1e300]) | st.floats(1e-7, 1.0), min_size=1, max_size=3
    ).map(_increasing),
    sweep_atoms_per_layer=st.integers(1, 10**6),
    convention=_CONVENTIONS,
)


@settings(max_examples=150)
@given(_CURVES)
@example(_SUBNORMAL_CURVE)
@example(_SUBNORMAL_CURVE._replace(dephase_phi_l=0.0, convention=Convention.PAPER_FIGURE))
def test_curve_csv_equals_the_row_by_row_reference(scenario):
    assert cli._run_dephase_curve(scenario) == _reference_dephase_curve(scenario)


def test_subnormal_curve_leaves_its_underflowing_rows_blank():
    (text,) = cli._run_dephase_curve(_SUBNORMAL_CURVE)[0].values()
    ratios = [line.split(",")[4] for line in text.splitlines()[1:9]]
    assert ratios[:4] == [""] * 4 and all(ratios[4:])


@settings(max_examples=40)
@given(_SWEEPS)
def test_sweep_csv_equals_the_row_by_row_reference(scenario):
    assert cli._run_stability_sweep(scenario) == _reference_stability_sweep(scenario)


def test_sweep_reference_covers_flagged_cells_and_size_1():
    scenario = Scenario(sweep_sizes=(1, 2, 50), sweep_phi_l=(0.0, 1e-3, 1e300))
    files, flags, text = cli._run_stability_sweep(scenario)
    assert flags == ["cubic:1:phi_l=0: non-bracketable"]
    assert (files, flags, text) == _reference_stability_sweep(scenario)


def _refusals(monkeypatch, name, poison, scenario, runners):
    """The message each runner refuses with while cli.<name> is poisoned."""
    messages = []
    for runner in runners:
        calls = itertools.count()
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: poison(next(calls), original(*args)))
        with pytest.raises(ValueError) as refused:
            runner(scenario)
        monkeypatch.setattr(cli, name, original)
        messages.append(str(refused.value))
    return messages


@settings(max_examples=100)
@given(_CURVES, st.data())
def test_curve_refuses_a_non_finite_cell_like_the_reference(scenario, data):
    size_index = data.draw(st.integers(0, len(scenario.dephase_sizes) - 1))
    row = data.draw(st.integers(0, len(scenario.dephase_t_grid) - 1))
    column, value = data.draw(st.integers(0, 1)), data.draw(_NON_FINITE)

    def poison(call, columns):
        if call == size_index:
            columns[column][row] = value
        return columns

    with pytest.MonkeyPatch.context() as monkeypatch:
        new, old = _refusals(
            monkeypatch,
            "dephase_curve",
            poison,
            scenario,
            (cli._run_dephase_curve, _reference_dephase_curve),
        )
    assert new == old and old.startswith("not a finite number: ")


# (row, value) pairs put into the contrast column. The rows whose ratio is
# None lead the grid, so a bad contrast among them is first in row order; the
# last row's contrast lies past the end of the ratio column cut at those rows,
# so a check that paired the two columns unaligned would miss it.
@pytest.mark.parametrize(
    "poisoned",
    [((0, math.inf), (-1, math.nan)), ((-1, -math.inf),), ((3, math.nan), (4, math.inf))],
    ids=["None row and last row", "last row", "last None row and the next"],
)
@pytest.mark.parametrize(
    "scenario",
    [_SUBNORMAL_CURVE, _SUBNORMAL_CURVE._replace(dephase_phi_l=0.0)],
    ids=["leading None ratios", "every ratio None"],
)
def test_curve_refuses_a_non_finite_contrast_in_row_order(poisoned, scenario):
    def poison(call, columns):
        for row, value in poisoned:
            columns[1][row] = value
        return columns

    with pytest.MonkeyPatch.context() as monkeypatch:
        new, old = _refusals(
            monkeypatch,
            "dephase_curve",
            poison,
            scenario,
            (cli._run_dephase_curve, _reference_dephase_curve),
        )
    assert new == old == f"not a finite number: {poisoned[0][1]!r}"


@settings(max_examples=30)
@given(_SWEEPS, st.data())
def test_sweep_refuses_a_non_finite_cell_like_the_reference(scenario, data):
    cells = len(scenario.sweep_sizes) * len(scenario.sweep_phi_l)
    index = data.draw(st.integers(0, cells - 1))
    field = data.draw(st.sampled_from(["tau_max_s", "sigma_at_tau", "sigma_at_1s"]))
    value = data.draw(_NON_FINITE)

    def poison(call, points):
        points[index] = points[index]._replace(**{field: value})
        return points

    with pytest.MonkeyPatch.context() as monkeypatch:
        new, old = _refusals(
            monkeypatch,
            "sweep",
            poison,
            scenario,
            (cli._run_stability_sweep, _reference_stability_sweep),
        )
    assert new == old and old.startswith("not a finite number: ")


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
@example(_EDGE_FLOATS)
def test_bulk_float_text_equals_fmt_float(values):
    expected = [_reference_fmt_float(value) for value in values]
    assert [emit.fmt_float(value) for value in values] == expected
    assert emit.fmt_floats(values) == expected
    assert (f"{emit.FLOAT}," * len(values) % tuple(values)).split(",")[:-1] == expected


def test_bulk_check_refuses_the_first_bad_value_row_by_row():
    with pytest.raises(ValueError, match=r"^not a finite number: -inf$"):
        emit.fmt_floats([1.0, -math.inf, math.nan])
    with pytest.raises(ValueError, match=r"^not a finite number: nan$"):
        emit.check_finite([1.0, 2.0, math.inf], [3.0, math.nan, 4.0])
    emit.check_finite([1.0, 2.0], [-0.0, 5e-324])


@pytest.mark.parametrize(
    "rows",
    [["1,2,3", "4,5,6"], ["1,2,3"], [",,", "a,b,c", ",,"]],
    ids=["two rows", "one row", "empty cells"],
)
def test_csv_block_equals_its_rows_as_lines(rows):
    header = ["a", "b", "c"]
    expected = _reference_csv_text(header, rows)
    assert emit.csv_text(header, [(rows, ())]) == expected
    assert emit.csv_text(header, [([row], ()) for row in rows]) == expected
    cells = [cell for row in rows for cell in row.split(",")]
    assert emit.csv_text(header, [(["%s,%s,%s"] * len(rows), cells)]) == expected
