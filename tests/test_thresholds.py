from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from layer_sum_oracle import explicit_layer_sum
from scipy.optimize import brentq

from gravclock import thresholds
from gravclock.core import PhysicalConstants, YB, per_layer_phase_rate
from gravclock.dephasing import Convention, effective_phase_rate
from gravclock.thresholds import (
    TauMaxProblem,
    decoherence_atom_count,
    decoherence_sizes,
    solve_tau_max,
)

CONSTS = PhysicalConstants()
PHI_G = per_layer_phase_rate(CONSTS, YB, YB.default_layer_spacing)


def test_per_layer_size_is_497():
    n_star, _ = decoherence_sizes(tau=30.0)
    assert round(n_star) == 497
    assert n_star == pytest.approx(497.0, abs=0.5)


def test_per_layer_root_satisfies_equation():
    n, _ = decoherence_sizes(tau=30.0)
    lhs = 1.0 / (YB.omega0 * 30.0 * n)
    rhs = CONSTS.g * n * YB.default_layer_spacing / CONSTS.c**2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_halves_size_is_165():
    _, n_star = decoherence_sizes(tau=30.0)
    assert round(n_star) == 165


def test_halves_matches_numeric_root():
    # Independent root of 1/(omega0 tau sqrt(n^3/2)) = g n d / c^2.
    def residual(n):
        lhs = 1.0 / (YB.omega0 * 30.0 * math.sqrt(n**3 / 2.0))
        rhs = CONSTS.g * n * YB.default_layer_spacing / CONSTS.c**2
        return lhs - rhs

    oracle = brentq(residual, 1.0, 1e6, xtol=1e-9)
    assert decoherence_sizes(tau=30.0)[1] == pytest.approx(oracle, rel=1e-9)


def test_size_scales_as_inverse_sqrt_tau():
    base, _ = decoherence_sizes(tau=30.0)
    slower, _ = decoherence_sizes(tau=120.0)
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
    with pytest.raises(ValueError):
        decoherence_atom_count(0)


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
    problem = TauMaxProblem(
        layer_count=3,
        atoms_per_layer=4,
        phi_l=0.0,
        phi_g=0.0,
        convention=Convention.PHYSICAL,
    )
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
    rate = effective_phase_rate(problem.phi_g, m, problem.convention)
    loss = 1.0 - math.hypot(*explicit_layer_sum(0.0, rate, m, result.tau_s)) / m
    assert loss == pytest.approx(problem.threshold, rel=1e-3)


def test_bisection_out_of_iterations_is_not_converged(monkeypatch):
    problem = TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE)
    assert solve_tau_max(problem).converged
    monkeypatch.setattr(thresholds, "_BISECT_MAX_ITER", 1)
    result = solve_tau_max(problem)
    assert result.bracketed
    assert not result.converged


def _reference_bracket(errors, thr):
    # The plain scan: every grid point in order, no skipping.
    if errors[0] > thr:
        return 0
    for i in range(1, len(errors)):
        if errors[i - 1] <= thr < errors[i]:
            return i
    return None


@settings(max_examples=300)
@given(
    levels=st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0)), min_size=2, max_size=30),
    thr=st.sampled_from((0.5, 1.0, 1.5)),
    skip=st.booleans(),
)
def test_scan_matches_scalar_loop_with_ties(levels, thr, skip):
    # Step functions over the grid, with errors exactly at the threshold. The
    # bound is either absent or the running maximum, which dominates.
    grid = thresholds._scan_grid()
    errors = [levels[i * len(levels) // len(grid)] for i in range(len(grid))]
    by_t = dict(zip(grid, errors))
    peaks = dict(zip(grid, itertools.accumulate(errors, max)))
    bound = peaks.__getitem__ if skip else lambda t: math.inf
    assert thresholds._scan(by_t.__getitem__, bound, thr) == _reference_bracket(errors, thr)


_PROBLEMS = st.builds(
    TauMaxProblem,
    layer_count=st.one_of(st.integers(1, 3001), st.integers(1, 10**6)),
    atoms_per_layer=st.one_of(st.integers(1, 10**6), st.integers(1, 10**44)),
    phi_l=st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)),
    phi_g=st.one_of(st.just(PHI_G), st.just(0.0), st.floats(-12.0, 2.0).map(lambda e: 10.0**e)),
    convention=st.sampled_from(Convention),
)


@settings(max_examples=300)
@given(
    problem=_PROBLEMS,
    t=st.one_of(
        st.floats(-6.0, 9.0).map(lambda e: 10.0**e),
        st.integers(0, 480).map(lambda i: thresholds._scan_grid()[i]),
    ),
    near_one=st.floats(-1e-6, 1e-6),
)
@example(TauMaxProblem(201, 40_000, 1e-2, PHI_G, Convention.PAPER_FIGURE), 100.0, 0.0)
@example(TauMaxProblem(3, 1, 0.0, PHI_G, Convention.PHYSICAL), 1e9, 0.0)
def test_error_bound_dominates_error(problem, t, near_one):
    # Up to rounding, at any time and in particular where phi_l * t is close
    # to 1, the largest phase the bound is claimed for. The scan skips only
    # with a further factor of 2 to spare.
    error, bound, _ = thresholds._error_function(problem)
    if problem.phi_l and near_one:
        t = (1.0 + near_one) / problem.phi_l
    assert error(t) <= bound(t) + thresholds._SKIP_SLACK
    if problem.phi_l * t <= 1.0:
        assert bound(t) < math.inf


@settings(max_examples=150)
@given(problem=_PROBLEMS)
@example(TauMaxProblem(201, 40_000, 1e-2, PHI_G, Convention.PAPER_FIGURE))
@example(TauMaxProblem(3, 4, 0.0, 0.0, Convention.PHYSICAL))  # capped: never crosses
@example(TauMaxProblem(2, 10**44, 0.0, PHI_G, Convention.PHYSICAL))  # thr = 1e-22
@example(TauMaxProblem(3, 10**44, 1e-3, 0.0, Convention.PHYSICAL))  # rounding alone crosses
@example(TauMaxProblem(1, 100, 1e-9, PHI_G, Convention.PHYSICAL))  # capped: slow drift, one layer
def test_skip_scan_picks_full_scan_bracket(problem):
    error, bound, _ = thresholds._error_function(problem)
    full = [error(t) for t in thresholds._scan_grid()]
    assert thresholds._scan(error, bound, problem.threshold) == _reference_bracket(
        full, problem.threshold
    )


def test_scan_skips_the_bounded_prefix():
    # The paper's ~60 s cell crosses at grid point ~250; the bound rules out
    # nearly all of the points before it, so few errors are evaluated.
    problem = TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE)
    error, bound, _ = thresholds._error_function(problem)
    seen = []

    def counted(t):
        seen.append(t)
        return error(t)

    i = thresholds._scan(counted, bound, problem.threshold)
    assert i is not None and i > 200
    assert len(seen) <= 10


_PHI_L = st.one_of(st.just(0.0), st.floats(-7.0, -1.0).map(lambda e: 10.0**e))


def _family_tau(family, size, phi_l, convention, atoms_per_layer):
    if family == "cubic":
        problem = TauMaxProblem.cubic(size, phi_l, convention)
    else:
        problem = TauMaxProblem(size, atoms_per_layer, phi_l, PHI_G, convention)
    return solve_tau_max(problem).tau_s


@settings(max_examples=100)
@given(
    family=st.sampled_from(("cubic", "slab")),
    size=st.integers(1, 1500),
    step=st.integers(1, 300),
    phi_l=_PHI_L,
    convention=st.sampled_from(Convention),
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
    convention=st.sampled_from(Convention),
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
    problem = TauMaxProblem(50, 10_000, 1e-4, PHI_G, Convention.PAPER_FIGURE)
    assert problem.threshold == pytest.approx(0.01)
    assert solve_tau_max(problem).bracketed


def test_problem_validation():
    with pytest.raises(ValueError):
        TauMaxProblem.cubic(0, 1e-3, Convention.PHYSICAL)
    with pytest.raises(ValueError):
        TauMaxProblem.cubic(10, -1e-3, Convention.PHYSICAL)
    with pytest.raises(ValueError):
        decoherence_sizes(tau=0.0)
    with pytest.raises(ValueError):
        decoherence_sizes(layer_spacing=-1.0)


def test_error_takes_the_contrast_limit_where_phi_l_t_underflows():
    # A subnormal phi_l times t < 1 rounds to 0; the ratio form's limit there
    # is the contrast loss, which phi_l = 0 uses.
    tiny, zero = (
        thresholds._error_function(TauMaxProblem(101, 100, phi_l, PHI_G, Convention.PHYSICAL))[0]
        for phi_l in (5e-324, 0.0)
    )
    assert tiny(0.25) == zero(0.25) > 0.0
