"""Decoherence thresholds: critical lattice sizes and the maximum interrogation time.

Two separate questions. decoherence_sizes asks how large the lattice
must be before the gravitational phase spread across it reaches the quantum
projection noise (closed-form algebra). solve_tau_max asks how long a given
ensemble can be interrogated before the dephasing-induced error in the
measured phase reaches the per-layer standard quantum limit (a closed-form
bracket, then Illinois regula falsi with a bisection safeguard on the
layer-sum model).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .core import ClockSpecies, PhysicalConstants, YB, per_layer_phase_rate
from .dephasing import Convention, effective_phase_rate, phase_ratio

TAU_CAP_S = 1e9
# The safeguard halves the bracket at least every 3 steps, and 64 halvings
# narrow [0, hi] below _ROOT_REL_TOL * tau wherever hi / tau <= 2^64 * 1e-12
# ~ 1.8e7. hi / tau <= K = max(pi, 1.61 / sqrt(threshold)), since at t = hi / K
# the error is at most (1 - c) tan(a) / a < (pi^2 / 6) tan(1) / K^2 <= threshold
# (a <= pi / K <= 1, theta <= 2 pi / (m K), 1 - c <= (m^2 - 1) theta^2 / 24).
# That covers every threshold >= 7.6e-15; below ~1e-12 the error's rounding
# (~1e-16) misses _RESIDUAL_REL_TOL anyway.
_ROOT_MAX_STEPS = 3 * 64
_ROOT_REL_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-4
# The phi_g of TauMaxProblem.cubic: Yb at its magic-wavelength spacing [rad/s].
_YB_PHI_G = per_layer_phase_rate(PhysicalConstants(), YB, YB.default_layer_spacing)
# The scenario keys behind c^2/(omega0 tau g d), named when a size overflows.
SIZE_KEYS = (
    "constants.c, constants.g, species.omega0, interrogation.tau and"
    " geometry.layer_spacing (default species.magic_wavelength / 2)"
)


def decoherence_sizes(
    species: ClockSpecies, consts: PhysicalConstants, tau: float, layer_spacing: float
) -> tuple[float, float]:
    """Lattice sizes (per_layer, halves) at which the gravitational phase
    spread across the ensemble equals the quantum projection noise.

    With k = c^2 / (omega0 tau g d), d the layer spacing, per_layer solves
    1/(omega0 tau n) = g n d / c^2, so n = sqrt(k). halves puts the SQL of
    half the ensemble (N/2 ~ n^3/2 atoms) on the left, so
    n = (sqrt(2) k)^(2/5); that equation is a reconstruction pinned to the
    documented critical size (165), not a stated formula, and outputs label
    it as such. No phase-rate convention enters.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if not (layer_spacing > 0 and math.isfinite(layer_spacing)):
        raise ValueError(
            f"layer_spacing must be positive, got {layer_spacing!r}; it is set by"
            " geometry.layer_spacing (default species.magic_wavelength / 2)"
        )
    denominator = species.omega0 * tau * consts.g * layer_spacing
    k = consts.c * consts.c / denominator if denominator > 0 else math.inf
    if not math.sqrt(2.0) * k < math.inf:
        raise OverflowError(
            f"size ratio c^2/(omega0 tau g d) = {k!r} is out of range; it is set by {SIZE_KEYS}"
        )
    return math.sqrt(k), (math.sqrt(2.0) * k) ** 0.4


def decoherence_atom_count(n: int) -> int:
    """Total atoms of the cubic ensemble at size n: n^2 (n + 1), exact integer.

    The cube shorthand n^3 differs from this by a factor (n+1)/n, about 0.6%
    at n = 165; this function is always n^2 (n + 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * n * (n + 1)


class TauMaxProblem(namedtuple("TauMaxProblem", "layer_count atoms_per_layer phi_l phi_g")):
    """Ensemble and laser for the maximum-interrogation-time search.

    layer_count is the number of summed layers, atoms_per_layer sets the
    per-layer SQL phase 1/sqrt(atoms_per_layer), phi_l and phi_g in rad/s,
    where phi_g is phi_g', the convention already applied
    (effective_phase_rate).
    """

    __slots__ = ()

    def __new__(cls, layer_count: int, atoms_per_layer: int, phi_l: float, phi_g: float):
        if layer_count < 1:
            raise ValueError(f"layer_count must be >= 1, got {layer_count}")
        if atoms_per_layer < 1:
            raise ValueError(f"atoms_per_layer must be >= 1, got {atoms_per_layer}")
        if not (phi_l >= 0 and math.isfinite(phi_l)):
            raise ValueError(f"phi_l must be >= 0 and finite, got {phi_l!r}")
        if not (phi_g >= 0 and math.isfinite(phi_g)):
            raise ValueError(f"phi_g must be >= 0 and finite, got {phi_g!r}")
        return super().__new__(cls, layer_count, atoms_per_layer, phi_l, phi_g)

    # namedtuple's _make, and so _replace, would skip __new__ and its checks.
    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def cubic(cls, n_site: int, phi_l: float, convention: Convention) -> "TauMaxProblem":
        """A Yb cube of side n_site: n_site + 1 layers of n_site^2 atoms."""
        if n_site < 1:
            raise ValueError(f"n_site must be >= 1, got {n_site}")
        rate = effective_phase_rate(_YB_PHI_G, n_site + 1, convention)
        return cls(n_site + 1, n_site * n_site, phi_l, rate)

    @property
    def threshold(self) -> float:
        """Per-layer SQL phase: 1/sqrt(atoms_per_layer) rad."""
        return 1.0 / math.sqrt(self.atoms_per_layer)


class TauMaxResult(NamedTuple):
    """Outcome of the tau_max search.

    bracketed is False when the error never exceeds the threshold within
    (0, TAU_CAP_S]: the laser-dominated regime with unbounded tau. tau_s then
    holds the cap. Otherwise tau_s and error_at_tau are the last point the
    root finder evaluated. converged is True only when the root finder met
    both its width and residual tolerances; it is False for an unbracketed
    search and for one that ran out of steps. criterion records whether the
    phase-ratio error or the phi_l = 0 contrast fallback was used.
    """

    tau_s: float
    error_at_tau: float
    threshold: float
    bracketed: bool
    converged: bool
    criterion: str


def _error_function(problem: TauMaxProblem):
    """(error, t_end, first_step, criterion): the dephasing error at one t,
    relative to the nominal phase, the first time it reaches 1, and the
    search's closed-form first step.

    For phi_l > 0: |1 - ratio| with dephasing.phase_ratio's ratio =
    phi_eff / (phi_l t), where problem.phi_g is phi_g'. Where phi_l t = 0,
    and always for phi_l = 0, the nominal phase vanishes and phi_eff is
    identically zero by the k <-> -k symmetry, so the criterion is the
    contrast loss 1 - |D_m| / m, the phi_l -> 0 limit of the ratio form
    wherever D_m >= 0, as on [0, t_end].

    t_end = min(pi / phi_l, 2 pi / (m phi_g')), the first term only for
    phi_l > 0 and the second only for m > 1 and phi_g' > 0 (D_1 = 1 never
    vanishes): there the laser phase reaches pi or D_m its first zero, and
    error(t_end) = 1. first_step is the smaller of the phase-wrap point,
    pi / a - 1 = 1 - thr, and the small-angle dephasing root,
    (m^2 - 1) theta^2 / 24 = thr, each under the same condition as its
    t_end term. Both are inf when neither term applies.
    """
    m, phi_l, rate = problem.layer_count, problem.phi_l, problem.phi_g
    thr = problem.threshold
    t_end = first_step = math.inf
    if phi_l:
        t_end = math.pi / phi_l
        first_step = math.pi * (1.0 + 0.5 * thr) / (2.0 * phi_l)
    if m > 1 and rate:
        # Divided in turn: m phi_g' and m^2 can overflow.
        t_end = min(t_end, math.tau / m / rate)
        first_step = min(first_step, math.sqrt(24.0 * thr / (m - 1) / (m + 1)) / rate)

    def error(t: float) -> float:
        ratio, d = phase_ratio(m, phi_l, rate, t)
        return 1.0 - abs(d) / m if ratio is None else abs(1.0 - ratio)

    return error, t_end, first_step, "contrast" if phi_l == 0.0 else "phase-ratio"


def solve_tau_max(problem: TauMaxProblem) -> TauMaxResult:
    """Largest tau with dephasing error at or below the per-layer SQL.

    The error rises monotonically from 0 to 1 on [0, t_end] (t_end as in
    _error_function). With theta = phi_g' t, a = phi_l t and c = D_m / m:
    (1) c is the mean of the cos(k theta) over |k| <= (m-1)/2. On theta in
    [0, 2 pi / m] each term is non-increasing, and c >= 0 with c = 0 at
    2 pi / m. (2) For c in [0, 1], h(a) = asin(c sin a) is concave on
    [0, pi], since h'' = c (c^2 - 1) sin a / (1 - c^2 sin^2 a)^(3/2) <= 0,
    and h(0) = 0, so the ratio h(a) / a is non-increasing in a; it is also
    non-decreasing in c. (3) Therefore the ratio falls from 1 to 0 and the
    error rises from 0 to 1. For phi_l = 0 the error is 1 - c. The
    convention only changes the constant phi_g', which the problem holds.

    So [0, min(t_end, TAU_CAP_S)] brackets the root: the error is 1 at
    t_end <= TAU_CAP_S, and otherwise one evaluation at the cap decides
    between bracketed and non-bracketable. A single-atom layer has threshold
    1 = error(t_end): a phase ratio turns negative past t_end, so its error
    exceeds 1 and tau = t_end exactly, while the contrast loss never does.

    Regula falsi with the Illinois modification (Dowell & Jarratt, BIT 11,
    168, 1971) then runs on f = sqrt(error) - sqrt(threshold), which has the
    same root and is nearly linear in t where the error grows as t^2: where
    two falsi steps in a row keep the same end, its value is halved. A
    falsi step stays half the width tolerance inside the bracket. As a
    safeguard, the step after two steps in a row that each failed to halve
    the bracket bisects it; bisection steps leave the Illinois bookkeeping
    alone. The first step goes instead to _error_function's closed-form
    root estimate, if strictly inside the bracket. It takes a falsi step's
    place and counts like one toward the safeguard, so the step budget
    holds. The search converges once the bracket is no wider than 1e-12 of
    its lower end and the last error is within 1e-4 of the threshold, and
    gives up after 192 steps.
    Deterministic: no grid, no randomness.
    """
    error, t_end, guess, criterion = _error_function(problem)
    thr = problem.threshold
    if t_end > TAU_CAP_S:
        tau = TAU_CAP_S
        e_tau = error(tau)
        if not e_tau > thr:
            return TauMaxResult(tau, e_tau, thr, False, False, criterion)
    elif thr < 1.0:
        tau, e_tau = t_end, 1.0
    else:  # one atom per layer: thr = 1 = error(t_end)
        bracketed = criterion == "phase-ratio"
        tau = t_end if bracketed else TAU_CAP_S
        return TauMaxResult(tau, error(tau), thr, bracketed, bracketed, criterion)
    root_thr = math.sqrt(thr)
    lo, hi = 0.0, tau
    # error(0) = 0: no dephasing before any time has passed.
    f_lo, f_hi = -root_thr, math.sqrt(e_tau) - root_thr
    guess = guess if lo < guess < hi else 0.0  # 0: no estimate step
    # The end the last falsi step kept (-1 lo, 1 hi, 0 none yet), and the
    # steps in a row that failed to halve the bracket.
    kept = slow = 0
    converged = False
    width, residual_tol = hi - lo, _RESIDUAL_REL_TOL * thr
    for _ in range(_ROOT_MAX_STEPS):
        if guess:
            tau, falsi, guess = guess, False, 0.0
        elif slow < 2:
            # Held inside the bracket by half the width tolerance, so that
            # a step beside an end already at the root crosses the root.
            margin = 0.5 * _ROOT_REL_TOL * lo
            low, high = lo + margin, hi - margin
            step = lo + width * (f_lo / (f_lo - f_hi))
            step = low if step < low else high if step > high else step
            falsi = lo < step < hi
            tau = step if falsi else lo + 0.5 * width
        else:
            tau, falsi = lo + 0.5 * width, False
        e_tau = error(tau)
        # The contrast form 1 - |D| / m can round to just below 0.
        f_tau = (math.sqrt(e_tau) if e_tau > 0.0 else 0.0) - root_thr
        if e_tau > thr:
            hi, f_hi = tau, f_tau
            if falsi:
                if kept < 0:
                    f_lo *= 0.5
                kept = -1
        else:
            lo, f_lo = tau, f_tau
            if falsi:
                if kept > 0:
                    f_hi *= 0.5
                kept = 1
        previous, width = width, hi - lo
        slow = slow + 1 if width > 0.5 * previous else 0
        if width <= _ROOT_REL_TOL * lo and abs(e_tau - thr) <= residual_tol:
            converged = True
            break
    return TauMaxResult(tau, e_tau, thr, True, converged, criterion)
