from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from bisection_oracle import bisect_root
from layer_sum_oracle import explicit_layer_sum

from gravclock import sweep as sweep_module, thresholds
from gravclock.cli import main
from gravclock.core import CONVENTIONS, YB, geomspace, per_layer_phase_rate
from gravclock.dephasing import Convention, dirichlet, effective_phase_rate
from gravclock.scenario import Scenario
from gravclock.thresholds import (
    TauMaxProblem,
    decoherence_atom_count,
    decoherence_sizes,
    solve_tau_max,
)

PRESETS = Path(__file__).resolve().parent.parent / "presets"
CONSTS = Scenario().consts_obj()
SPACING = YB.default_layer_spacing
PHI_G = per_layer_phase_rate(CONSTS, YB, SPACING)


def test_per_layer_size_is_497():
    n_star, _ = decoherence_sizes(YB, CONSTS, 30.0, SPACING)
    assert round(n_star) == 497
    assert n_star == pytest.approx(497.0, abs=0.5)


def test_per_layer_root_satisfies_equation():
    n, _ = decoherence_sizes(YB, CONSTS, 30.0, SPACING)
    lhs = 1.0 / (YB.omega0 * 30.0 * n)
    rhs = CONSTS.g * n * YB.default_layer_spacing / CONSTS.c**2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_halves_size_is_165():
    _, n_star = decoherence_sizes(YB, CONSTS, 30.0, SPACING)
    assert round(n_star) == 165


def test_halves_matches_numeric_root():
    # Independent root of 1/(omega0 tau sqrt(n^3/2)) = g n d / c^2.
    def residual(n):
        lhs = 1.0 / (YB.omega0 * 30.0 * math.sqrt(n**3 / 2.0))
        rhs = CONSTS.g * n * YB.default_layer_spacing / CONSTS.c**2
        return lhs - rhs

    oracle = bisect_root(residual, 1.0, 1e6, xtol=1e-9)
    assert decoherence_sizes(YB, CONSTS, 30.0, SPACING)[1] == pytest.approx(oracle, rel=1e-9)


def test_size_scales_as_inverse_sqrt_tau():
    base, _ = decoherence_sizes(YB, CONSTS, 30.0, SPACING)
    slower, _ = decoherence_sizes(YB, CONSTS, 120.0, SPACING)
    assert slower == pytest.approx(0.5 * base, rel=1e-12)


def test_atom_counts():
    assert decoherence_atom_count(497) == 123010482
    assert decoherence_atom_count(497) == pytest.approx(1.23e8, rel=1e-2)
    assert decoherence_atom_count(1) == 2
    assert decoherence_atom_count(165) == 4519350
    assert isinstance(decoherence_atom_count(497), int)
    # n^2 sites in each of n + 1 layers, exhaustively over the swept range.
    for n in range(1, 1001):
        assert decoherence_atom_count(n) == n * n * (n + 1)


def test_tau_max_fig2_anchor():
    problem = TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE)
    result = solve_tau_max(problem)
    assert result.bracketed
    assert 40.0 <= result.tau_s <= 90.0


def test_tau_max_laser_dominated_anchor():
    problem = TauMaxProblem.cubic(2, 1e-6, Convention.PAPER_FIGURE)
    result = solve_tau_max(problem)
    assert result.tau_s == pytest.approx(1.97e6, rel=0.1)
    # phi_l * tau ~ 1 in the laser-dominated regime.
    assert problem.phi_l * result.tau_s == pytest.approx(2.0, abs=0.5)


def test_tau_max_residual_within_tolerance():
    for n_site in (10, 100, 317):
        problem = TauMaxProblem.cubic(n_site, 1e-3, Convention.PAPER_FIGURE)
        result = solve_tau_max(problem)
        assert result.bracketed
        assert abs(result.error_at_tau - result.threshold) <= 1e-3 * result.threshold


def test_tau_max_monotone_in_size():
    taus = []
    for n_site in range(50, 501, 50):
        result = solve_tau_max(TauMaxProblem.cubic(n_site, 1e-4, Convention.PAPER_FIGURE))
        assert result.bracketed
        taus.append(result.tau_s)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(taus, taus[1:]))


def test_tau_max_monotone_in_phi_l():
    taus = []
    for phi_l in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        result = solve_tau_max(TauMaxProblem.cubic(150, phi_l, Convention.PAPER_FIGURE))
        assert result.bracketed
        taus.append(result.tau_s)
    assert all(b <= a * (1 + 1e-9) for a, b in zip(taus, taus[1:]))


def test_tau_max_no_error_sources_is_non_bracketable():
    problem = TauMaxProblem(layer_count=3, atoms_per_layer=4, phi_l=0.0, phi_g=0.0)
    result = solve_tau_max(problem)
    assert not result.bracketed
    assert not result.converged
    assert result.tau_s == 1e9


def test_tau_max_zero_phi_l_uses_contrast_criterion():
    problem = TauMaxProblem.cubic(100, 0.0, Convention.PAPER_FIGURE)
    result = solve_tau_max(problem)
    assert result.criterion == "contrast"
    assert result.bracketed
    # At the returned time, the contrast loss of the explicit layer sum
    # equals the per-layer SQL.
    m = problem.layer_count
    loss = 1.0 - math.hypot(*explicit_layer_sum(0.0, problem.phi_g, m, result.tau_s)) / m
    assert loss == pytest.approx(result.threshold, rel=1e-3)


def test_bisection_out_of_iterations_is_not_converged(monkeypatch):
    problem = TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE)
    assert solve_tau_max(problem).converged
    monkeypatch.setattr(thresholds, "_ROOT_MAX_STEPS", 1)
    result = solve_tau_max(problem)
    assert result.bracketed
    assert not result.converged


# The plain scan grid, 1e-6 s to the cap at 32 points per decade, that
# bracketed tau_max before the closed-form bracket: the reference for it.
_SCAN_GRID = geomspace(1e-6, thresholds.TAU_CAP_S, 32 * 15 + 1)


def _reference_bracket(errors, thr):
    # The plain scan: every grid point in order, no skipping.
    if errors[0] > thr:
        return 0
    for i in range(1, len(errors)):
        if errors[i - 1] <= thr < errors[i]:
            return i
    return None


def _error_at(problem):
    """thresholds._error of problem as a function of t alone."""
    m, _, phi_l, rate = problem
    return lambda t: thresholds._error(m, phi_l, rate, t)


def _t_end(problem):
    """The end of problem's bracket, where its error reaches 1."""
    return thresholds._bracket(*problem)[1]


def _problem(layer_count, atoms_per_layer, phi_l, phi_g, convention):
    """The TauMaxProblem whose phi_g' is the per-layer phi_g under convention."""
    rate = effective_phase_rate(phi_g, layer_count, convention)
    return TauMaxProblem(layer_count, atoms_per_layer, phi_l, rate)


_PROBLEMS = st.builds(
    _problem,
    layer_count=st.one_of(st.integers(1, 3001), st.integers(1, 10**6)),
    atoms_per_layer=st.one_of(st.integers(1, 10**6), st.integers(1, 10**44)),
    phi_l=st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)),
    phi_g=st.one_of(st.just(PHI_G), st.just(0.0), st.floats(-12.0, 2.0).map(lambda e: 10.0**e)),
    convention=st.sampled_from(CONVENTIONS),
)


@settings(max_examples=150)
@given(problem=_PROBLEMS)
@example(_problem(201, 40_000, 1e-2, PHI_G, Convention.PAPER_FIGURE))
@example(TauMaxProblem(2, 10**44, 0.0, PHI_G))  # thr = 1e-22
@example(TauMaxProblem(3, 10**44, 1e-3, 0.0))  # rounding alone crosses
@example(TauMaxProblem(67, 1, 1e-5, 66.0))  # phi_l t_end below 2^-26
def test_root_lies_in_the_full_scan_bracket(problem):
    # A converged tau lies in the bracket of the plain scan and meets the
    # residual tolerance.
    error = _error_at(problem)
    threshold = 1.0 / math.sqrt(problem.atoms_per_layer)
    i = _reference_bracket([error(t) for t in _SCAN_GRID], threshold)
    result = solve_tau_max(problem)
    assert result.bracketed == (i is not None)
    if result.converged:
        assert (_SCAN_GRID[i - 1] if i else 0.0) <= result.tau_s <= _SCAN_GRID[i]
        assert abs(result.error_at_tau - result.threshold) <= 1e-4 * result.threshold


def _asin_rounding(problem, t):
    """How far the error at t may move when asin's argument moves by 4 ulps.

    asin is ill-conditioned near the fold (argument near 1), so the rounding
    of sin(phi_l t) D / m moves the computed phase ratio by up to ~1e-8 there.
    An argument that rounds to exactly 1 counts as 1 - 1.15e-16.
    """
    a = problem.phi_l * t
    if not a:
        return 0.0
    x = math.sin(a) * dirichlet(problem.layer_count, problem.phi_g * t) / problem.layer_count
    return 4.5e-16 / (a * math.sqrt(max(1.0 - x * x, 2.3e-16)))


@settings(max_examples=200)
@given(problem=_PROBLEMS, fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@example(_problem(201, 40_000, 1e-2, PHI_G, Convention.PAPER_FIGURE), [0.1, 0.5])
@example(TauMaxProblem(2, 4, 0.0, PHI_G), [0.5, 1.0])  # contrast
@example(TauMaxProblem(1, 4, 1e-3, PHI_G), [0.49999999, 0.5])  # asin fold
def test_error_rises_from_0_to_1_on_the_bracket(problem, fractions):
    # The monotonicity that makes [0, t_end] a bracket, on sorted samples, up
    # to rounding; and error(t_end) = 1 wherever t_end is finite.
    error, t_end = _error_at(problem), _t_end(problem)
    assume(t_end < math.inf)
    times = sorted(f * t_end for f in fractions) + [t_end]
    errors = [error(t) for t in times]
    for k in range(len(times) - 1):
        slack = 1e-14 + _asin_rounding(problem, times[k]) + _asin_rounding(problem, times[k + 1])
        assert errors[k + 1] >= errors[k] - slack
    assert errors[-1] == pytest.approx(1.0, abs=1e-12)


def _oracle_error(problem, t):
    """(error, tolerance) at t from the explicit layer sum S = (S_x, S_y).

    |1 - asin(S_y / m) / (phi_l t)|, or where phi_l t < 2^-26, too small a
    phase for the arcsine to resolve, the ratio's limit 1 - |S| / m (the
    contrast loss for phi_l = 0). Each term's phase is off by ~2 eps times
    itself, so S / m is within dx of exact; asin magnifies dx by
    1 / sqrt(1 - x^2), which is up to ~1e8 near the fold, where x ~ 1.
    """
    m, phi_l, rate = problem.layer_count, problem.phi_l, problem.phi_g
    s_x, s_y = explicit_layer_sum(phi_l, rate, m, t)
    a = phi_l * t
    dx = 8 * sys.float_info.epsilon * (1.0 + a + 0.5 * (m - 1) * rate * t)
    if a < 2.0**-26:
        return 1.0 - math.hypot(s_x, s_y) / m, 2 * dx
    x = max(-1.0, min(1.0, s_y / m))
    return abs(1.0 - math.asin(x) / a), 1e-15 + 2 * dx / (a * math.sqrt(max(1 - x * x, dx)))


def _oracle_points(seed):
    """Seeded (problem, t) pairs on [0, t_end] (t up to 1e9 s where t_end is inf)."""
    rng = random.Random(seed)
    for _ in range(400):
        m = round(10 ** rng.uniform(0.0, 4.0))
        phi_g = 10 ** rng.uniform(-10.0, 0.0)
        phi_l = rng.choice([0.0, 5e-324, 10 ** rng.uniform(-8.0, 0.0), 0.5 * m * phi_g])
        problem = _problem(m, 100, phi_l, phi_g, rng.choice(CONVENTIONS))
        t_end = _t_end(problem)
        t_top = t_end if t_end < math.inf else 1e9
        # Half the points past the fold, phi_l t > pi / 2, where it is in reach.
        low = 0.5 if phi_l and rng.random() < 0.5 and t_top == t_end else 0.0
        yield problem, t_top * rng.uniform(low, 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_error_matches_the_explicit_layer_sum(seed):
    # The tau_max error at seeded points against the explicit O(m) sum: both
    # conventions, m from 1 to 1e4, phi_l = 0, a subnormal phi_l t, and
    # phase-ratio points past the arcsine fold.
    past_fold = 0
    for problem, t in _oracle_points(seed):
        error = _error_at(problem)
        want, tolerance = _oracle_error(problem, t)
        assert abs(error(t) - want) <= tolerance, (problem, t)
        past_fold += problem.phi_l * t > 0.5 * math.pi
    assert past_fold >= 50


@pytest.mark.parametrize(
    "problem, bracketed",
    [
        (TauMaxProblem(2, 1, 1e-2, PHI_G), True),
        (_problem(101, 1, 1e-6, PHI_G, Convention.PAPER_FIGURE), True),
        (TauMaxProblem(2, 1, 1e300, PHI_G), True),  # t_end ~ 3e-300 s
        (_problem(2, 1, 0.0, PHI_G, Convention.PAPER_FIGURE), False),  # contrast
        (TauMaxProblem(1, 1, 1e-10, PHI_G), False),  # t_end > cap
        (TauMaxProblem(67, 1, 1e-5, 66.0), True),  # phi_l t_end below 2^-26
    ],
)
def test_single_atom_layers_end_at_t_end(problem, bracketed):
    # With one atom per layer the threshold is 1, which the error reaches at
    # t_end. Only the phase ratio exceeds it there (it turns negative past
    # t_end), so tau = t_end exactly; the contrast loss never exceeds 1.
    error, t_end = _error_at(problem), _t_end(problem)
    result = solve_tau_max(problem)
    assert result.threshold == 1.0
    assert (result.bracketed, result.converged) == (bracketed, bracketed)
    if bracketed:
        assert result.tau_s == t_end
        assert error(t_end * (1 + 1e-9)) > 1.0
    else:
        assert result.tau_s == thresholds.TAU_CAP_S
    assert result.error_at_tau == error(result.tau_s)


@pytest.mark.parametrize("atoms", [4, 100, 10**4, 10**6])
def test_first_step_solves_its_closed_forms(atoms):
    # The phase-wrap root is exact where every layer stays in phase (one
    # layer), and the dephasing root of the contrast loss is good to second
    # order: the error there is off by about 0.047 thr^3, where the
    # first-order root's is off by about 0.3 thr^2.
    for phi_l in (1e-6, 1e-2, 3.0):
        thr, _, step, wrap = thresholds._bracket(1, atoms, phi_l, PHI_G)
        assert wrap
        assert thresholds._error(1, phi_l, PHI_G, step) == pytest.approx(thr, abs=1e-13)
    for m in (2, 3, 101, 10**5):
        thr, _, step, wrap = thresholds._bracket(m, atoms, 0.0, 1e-3)
        assert not wrap
        error = thresholds._error(m, 0.0, 1e-3, step)
        assert error == pytest.approx(thr, rel=0.06 * thr**2 + 1e-12)


def _counting_solver(monkeypatch, error=thresholds._error):
    """solve_tau_max, also returning the error evaluations it made."""
    calls = []

    def counted(m, phi_l, rate, t):
        calls.append(t)
        return error(m, phi_l, rate, t)

    monkeypatch.setattr(thresholds, "_error", counted)

    def solve(problem):
        calls.clear()
        result = solve_tau_max(problem)
        return result, len(calls)

    return solve


def test_safeguard_converges_where_illinois_stalls(monkeypatch):
    # error = thr exp(1e5 (t/60 - 1)) is flat below its root and steep above
    # it: on the bracket [0, TAU_CAP_S] (t_end = inf) it is ~1e304 thr at
    # the cap, so regula falsi creeps up from below, and the Illinois
    # halving alone would need ~1,000 steps to cross. A floor of -1e-16
    # where it is flat stands for a contrast loss 1 - |D| / m that rounds
    # below 0, which must not break the square root of the error.
    # With phi_l = phi_g' = 0, _bracket gives t_end and the first step inf.
    problem = TauMaxProblem(3, 4, 0.0, 0.0)
    for floor in (0.0, -1e-16):

        def stalling(m, phi_l, rate, t, thr=1.0 / math.sqrt(4), floor=floor):
            return thr * math.exp(min(700.0, 1e5 * (t / 60.0 - 1.0))) + floor

        solve = _counting_solver(monkeypatch, stalling)
        result, evaluations = solve(problem)
        assert result.bracketed and result.converged
        assert result.tau_s == pytest.approx(60.0, rel=1e-9)
        # One evaluation at the cap, then the root finder: the safeguard's 64
        # halvings in 3 * 64 steps narrow 1e9 s to below 1e-12 of 60 s.
        assert thresholds.TAU_CAP_S / 2.0**64 <= 1e-12 * 60.0
        assert evaluations <= 1 + 3 * 64 == 1 + thresholds._ROOT_MAX_STEPS


def test_root_evaluations_per_preset_cell(monkeypatch, tmp_path, capsys):
    # Every error evaluation per bracketed cell, the bracket's included, as
    # the result reports it and as a count of _error calls; phi_g' is
    # resolved once per size by the sweep, never by the search; and each cell
    # is one call of gravclock.sweep.solve_tau_max on plain values, with no
    # TauMaxProblem built.
    solve = _counting_solver(monkeypatch)
    counts = []
    solved = []
    built = []
    rates = {"sweep": 0, "thresholds": 0}

    def counted_solve(problem):
        solved.append(problem)
        result, evaluations = solve(problem)
        assert result.evaluations == evaluations
        if result.bracketed:
            counts.append(result.evaluations)
        return result

    build = TauMaxProblem.__new__

    def counted_build(cls, *args):
        built.append(args)
        return build(cls, *args)

    monkeypatch.setattr(TauMaxProblem, "__new__", staticmethod(counted_build))

    def counted_rate(module):
        def counted(*args):
            rates[module.__name__.rpartition(".")[2]] += 1
            return effective_phase_rate(*args)

        monkeypatch.setattr(module, "effective_phase_rate", counted)

    monkeypatch.setattr(sweep_module, "solve_tau_max", counted_solve)
    counted_rate(sweep_module)
    counted_rate(thresholds)
    for preset in ("stability_cubic.cfg", "stability_slab.cfg"):
        for convention in ("physical", "paper-figure"):
            rates.update(sweep=0, thresholds=0)
            argv = ["stability-sweep", "--scenario", str(PRESETS / preset)]
            out = tmp_path / f"{preset}-{convention}"
            assert main(argv + ["--convention", convention, "--out", str(out)]) == 0
            assert rates == {"sweep": 37, "thresholds": 0}  # 37 sizes x 5 phi_l
    capsys.readouterr()
    assert len(solved) == len(counts) == 4 * 185
    assert built == [] and all(type(cell) is tuple for cell in solved)
    assert sum(counts) / len(counts) <= 6.5
    assert max(counts) <= 1 + thresholds._ROOT_MAX_STEPS


def _bench_shaped_cells():
    """The cells of the benchmark's sweep deck shape, single-atom layers left out.

    Cubic and slab under both conventions, 7 sizes log-spaced from 1 to
    3,000, phi_l in {0, 1e-6, 1e-4, 1e-2}, 10,000 atoms per slab layer.
    """
    sizes = [round(3000 ** (i / 6)) for i in range(7)]
    for convention in CONVENTIONS:
        for size in sizes:
            for layers, atoms in ((size + 1, size * size), (size, 10_000)):
                rate = effective_phase_rate(PHI_G, layers, convention)
                for phi_l in (0.0, 1e-6, 1e-4, 1e-2):
                    if atoms > 1:
                        yield layers, atoms, phi_l, rate


def test_root_evaluations_per_bench_shaped_cell():
    # The search's cost where the benchmark spends it, against the 7.2 error
    # evaluations that Illinois regula falsi needs on these cells.
    counts = []
    for cell in _bench_shaped_cells():
        result = solve_tau_max(cell)
        assert result.converged == result.bracketed
        if result.bracketed:
            counts.append(result.evaluations)
    assert len(counts) == 102
    assert sum(counts) / len(counts) <= 5.5
    assert max(counts) <= 1 + thresholds._ROOT_MAX_STEPS


def test_root_evaluations_over_a_wide_seeded_corpus():
    # m log-uniform from 2 to 1e5, atoms per layer from 1e2 to 1e12, phi_l =
    # 0 or from 1e-8 to 1 rad/s, phi_g' from 1e-12 to 1e-6 rad/s. The mean is
    # 5.05695 evaluations per cell, pinned to its third decimal rounded up.
    # A regula falsi fallback that clamps to the bracket's lower end instead
    # of interpolating still converges, but raises the mean to 6.09.
    rng = random.Random(20000)
    evaluations = 0
    for _ in range(20000):
        m = round(10 ** rng.uniform(math.log10(2.0), 5.0))
        atoms = round(10 ** rng.uniform(2.0, 12.0))
        phi_l = rng.choice([0.0, 10 ** rng.uniform(-8.0, 0.0)])
        evaluations += solve_tau_max((m, atoms, phi_l, 10 ** rng.uniform(-12.0, -6.0))).evaluations
    assert evaluations / 20000 <= 5.057


def _error_reaches_1(m, phi_l, rate):
    """The first time the laser phase reaches pi or, for more than one layer,
    the layers' phases spread over 2 pi: there the error is 1."""
    end = math.pi / phi_l if phi_l else math.inf
    return min(end, 2 * math.pi / m / rate) if m > 1 and rate else end


def _bisected_root(cell):
    """The root of _error - threshold by plain bisection to 1e-14 relative."""
    m, atoms, phi_l, rate = cell
    thr = 1.0 / math.sqrt(atoms)
    lo, hi = 0.0, _error_reaches_1(m, phi_l, rate)
    while hi - lo > 1e-14 * lo:
        mid = 0.5 * (lo + hi)
        if thresholds._error(m, phi_l, rate, mid) > thr:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _reference_cells(seed, count):
    """Seeded cells with a threshold of at least 1e-3 and a bracket end below
    the cap: m from 1 to 1e4, phi_l = 0 or from 1e-8 to 1 rad/s, phi_g' that
    of Yb under either convention or from 1e-10 to 1 rad/s."""
    rng = random.Random(seed)
    while count:
        m = round(10 ** rng.uniform(0.0, 4.0))
        atoms = round(10 ** rng.uniform(math.log10(2.0), 6.0))
        phi_l = rng.choice([0.0, 10 ** rng.uniform(-8.0, 0.0)])
        rate = rng.choice([PHI_G, PHI_G * (m - 1), 10 ** rng.uniform(-10.0, 0.0)])
        if _error_reaches_1(m, phi_l, rate) <= thresholds.TAU_CAP_S:
            count -= 1
            yield m, atoms, phi_l, rate


def test_tau_matches_a_plain_bisection():
    # The secant steps, their closing step and the bisection schedule against
    # nothing but halving: every cell converges, to the same root. A
    # phase-wrap first step lands within 10% of it (400-odd cells here),
    # where pi / ((2 - thr) phi_l), blind to the dephasing, misses 46 of
    # them by more.
    wraps = 0
    for cell in _reference_cells(2020, 2000):
        result = solve_tau_max(cell)
        assert result.converged, cell
        want = _bisected_root(cell)
        assert abs(result.tau_s - want) <= 2e-12 * want, cell
        _, _, step, wrap = thresholds._bracket(*cell)
        if wrap:
            wraps += 1
            assert abs(step - want) <= 0.1 * want, cell
    assert wraps >= 400


_PHI_L = st.one_of(st.just(0.0), st.floats(-7.0, -1.0).map(lambda e: 10.0**e))


def _family_tau(family, size, phi_l, convention, atoms_per_layer):
    if family == "cubic":
        problem = TauMaxProblem.cubic(size, phi_l, convention)
    else:
        problem = _problem(size, atoms_per_layer, phi_l, PHI_G, convention)
    return solve_tau_max(problem).tau_s


@settings(max_examples=100)
@given(
    family=st.sampled_from(("cubic", "slab")),
    size=st.integers(1, 1500),
    step=st.integers(1, 300),
    phi_l=_PHI_L,
    convention=st.sampled_from(CONVENTIONS),
    atoms_per_layer=st.integers(1, 10**5),
)
def test_tau_max_monotone_in_size_property(
    family, size, step, phi_l, convention, atoms_per_layer
):
    small = _family_tau(family, size, phi_l, convention, atoms_per_layer)
    large = _family_tau(family, size + step, phi_l, convention, atoms_per_layer)
    assert large <= small * (1 + 1e-9)


@settings(max_examples=100)
@given(
    family=st.sampled_from(("cubic", "slab")),
    size=st.integers(1, 1500),
    phi_l=_PHI_L,
    decades=st.floats(0.0, 2.0),
    convention=st.sampled_from(CONVENTIONS),
    atoms_per_layer=st.integers(1, 10**5),
)
def test_tau_max_monotone_in_phi_l_property(
    family, size, phi_l, decades, convention, atoms_per_layer
):
    # Any drift is faster than none.
    faster = phi_l * 10.0**decades if phi_l else 1e-3 * 10.0**-decades
    slow = _family_tau(family, size, phi_l, convention, atoms_per_layer)
    fast = _family_tau(family, size, faster, convention, atoms_per_layer)
    assert fast <= slow * (1 + 1e-9)


def test_tau_max_contrast_limit_continuity():
    # For vanishing phi_l the phase-ratio criterion tends to the contrast
    # criterion, so the two solve to nearby times.
    ratio_result = solve_tau_max(TauMaxProblem.cubic(100, 1e-12, Convention.PAPER_FIGURE))
    contrast_result = solve_tau_max(TauMaxProblem.cubic(100, 0.0, Convention.PAPER_FIGURE))
    assert ratio_result.tau_s == pytest.approx(contrast_result.tau_s, rel=1e-3)


def test_tau_max_slab_uses_atoms_per_layer_threshold():
    problem = _problem(50, 10_000, 1e-4, PHI_G, Convention.PAPER_FIGURE)
    result = solve_tau_max(problem)
    assert result.threshold == pytest.approx(0.01)
    assert result.bracketed


def test_problem_validation():
    # A subnormal species.magic_wavelength halves to a layer spacing of 0.
    with pytest.raises(ValueError, match="^layer_spacing must be positive, got 0.0;"):
        decoherence_sizes(YB, CONSTS, 30.0, 5e-324 / 2)


def test_error_takes_the_contrast_limit_where_phi_l_t_underflows():
    # A subnormal phi_l times t < 1 rounds to 0, and times a larger t stays
    # subnormal, too few digits for sin and asin; the ratio form's limit there
    # is the contrast loss, which phi_l = 0 uses.
    tiny, zero = (_error_at(TauMaxProblem(101, 100, phi_l, PHI_G)) for phi_l in (5e-324, 0.0))
    for t in (0.25, 3.0, 1e3):
        assert tiny(t) == zero(t) > 0.0


def _scaling_cells(seed, count):
    """Seeded cells: m log-uniform from 2 to 1e5 or one of 1, 2 and 3, atoms
    per layer from 1 to 1e12, phi_l = 0 or from 1e-8 to 1 rad/s, phi_g' from
    1e-12 to 1e-6 rad/s."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice([1, 2, 3, round(10 ** rng.uniform(math.log10(2.0), 5.0))])
        atoms = round(10 ** rng.uniform(0.0, 12.0))
        phi_l = rng.choice([0.0, 10 ** rng.uniform(-8.0, 0.0)])
        yield m, atoms, phi_l, 10 ** rng.uniform(-12.0, -6.0)


def test_tau_max_is_equivariant_under_power_of_two_rate_scaling():
    # Scaling phi_l and phi_g' by 2^k is exact, and so is every step of the
    # search after it: tau_s scales by exactly 2^-k, with the same evaluations.
    # TAU_CAP_S is the one absolute time, so both bracket ends stay below it.
    checked, cap = 0, thresholds.TAU_CAP_S
    for cell in _scaling_cells(2, 1000):
        base = solve_tau_max(cell)
        if not base.bracketed or thresholds._bracket(*cell)[1] >= cap:
            continue
        m, atoms, phi_l, rate = cell
        for k in (-3, -1, 1, 2, 5):
            scaled_cell = (m, atoms, math.ldexp(phi_l, k), math.ldexp(rate, k))
            if thresholds._bracket(*scaled_cell)[1] >= cap:
                continue
            scaled = solve_tau_max(scaled_cell)
            assert scaled.tau_s == math.ldexp(base.tau_s, -k), (cell, k)
            assert scaled[1:] == base[1:], (cell, k)  # the error, flags and evaluations
            checked += 1
    assert checked >= 3000
