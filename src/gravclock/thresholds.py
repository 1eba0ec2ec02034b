"""Decoherence thresholds: critical lattice sizes and the maximum interrogation time.

Two separate questions. decoherence_sizes asks how large the lattice
must be before the gravitational phase spread across it reaches the quantum
projection noise (closed-form algebra). solve_tau_max asks how long a given
ensemble can be interrogated before the dephasing-induced error in the
measured phase reaches the per-layer standard quantum limit (a closed-form
bracket and first step, then secant steps with a bisection schedule on the
layer-sum model).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import SIZE_RATIO_KEYS, SPACING_KEYS, YB, ClockSpecies, PhysicalConstants
from .core import per_layer_phase_rate
from .dephasing import effective_phase_rate, phase_ratio
from .scenario import Scenario

TAU_CAP_S = 1e9
# The search bisects whenever the bracket is wider than hi 2^(31.5 - k / 2)
# after k steps, hi its first width; the first 64 steps are free of it. Any
# other step keeps the bracket no wider and a bisection halves it, so by
# induction it is at most hi 2^(32 - k / 2) wide: after 192 steps 2^-64 hi,
# below _ROOT_REL_TOL * tau wherever hi / tau <= 2^64 * 1e-12 ~ 1.8e7.
# hi / tau <= K = max(pi, 1.61 / sqrt(threshold)), since at t = hi / K
# the error is at most (1 - c) tan(a) / a < (pi^2 / 6) tan(1) / K^2 <= threshold
# (a <= pi / K <= 1, theta <= 2 pi / (m K), 1 - c <= (m^2 - 1) theta^2 / 24).
# That covers every threshold >= 7.6e-15; below ~1e-12 the error's rounding
# (~1e-16) misses _RESIDUAL_REL_TOL anyway.
_ROOT_MAX_STEPS = 192
_ROOT_REL_TOL = 1e-12
_RESIDUAL_REL_TOL = 1e-4
# The phi_g of TauMaxProblem.cubic: Yb at its magic-wavelength spacing [rad/s].
_YB_PHI_G = per_layer_phase_rate(Scenario().consts_obj(), YB, YB.default_layer_spacing)


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
    # d is parsed positive, but a subnormal species.magic_wavelength halves to 0.
    if not layer_spacing > 0:
        raise ValueError(
            f"layer_spacing must be positive, got {layer_spacing!r}; it is set by {SPACING_KEYS}"
        )
    denominator = species.omega0 * tau * consts.g * layer_spacing
    k = consts.c * consts.c / denominator if denominator > 0 else math.inf
    if not math.sqrt(2.0) * k < math.inf:
        raise OverflowError(
            f"size ratio c^2/(omega0 tau g d) = {k!r} is out of range; it is set by"
            f" {SIZE_RATIO_KEYS}"
        )
    return math.sqrt(k), (math.sqrt(2.0) * k) ** 0.4


def decoherence_atom_count(n: int) -> int:
    """Total atoms of the cubic ensemble at size n: n^2 (n + 1), exact integer.

    The cube shorthand n^3 differs from this by a factor (n+1)/n, about 0.6%
    at n = 165; this function is always n^2 (n + 1).
    """
    return n * n * (n + 1)


class TauMaxProblem(NamedTuple):
    """Ensemble and laser for the maximum-interrogation-time search.

    layer_count is the number of summed layers, atoms_per_layer sets the
    per-layer SQL phase 1/sqrt(atoms_per_layer), phi_l and phi_g in rad/s,
    where phi_g is phi_g', the convention already applied
    (effective_phase_rate).
    """

    layer_count: int
    atoms_per_layer: int
    phi_l: float
    phi_g: float

    @classmethod
    def cubic(cls, n_site: int, phi_l: float, convention: str) -> "TauMaxProblem":
        """A Yb cube of side n_site: n_site + 1 layers of n_site^2 atoms."""
        rate = effective_phase_rate(_YB_PHI_G, n_site + 1, convention)
        return cls(n_site + 1, n_site * n_site, phi_l, rate)


class TauMaxResult(NamedTuple):
    """Outcome of the tau_max search.

    bracketed is False when the error never exceeds the threshold within
    (0, TAU_CAP_S]: the laser-dominated regime with unbounded tau. tau_s then
    holds the cap. Otherwise tau_s and error_at_tau are the last point the
    root finder evaluated. converged is True only when the root finder met
    both its width and residual tolerances; it is False for an unbracketed
    search and for one that ran out of steps. criterion records whether the
    phase-ratio error or the phi_l = 0 contrast fallback was used.
    evaluations counts the error evaluations the search made, the one at
    TAU_CAP_S included; no output file reads it.
    """

    tau_s: float
    error_at_tau: float
    threshold: float
    bracketed: bool
    converged: bool
    criterion: str
    evaluations: int


def _error(m: int, phi_l: float, rate: float, t: float) -> float:
    """The dephasing error at t relative to the nominal phase; rate is phi_g'.

    For phi_l > 0: |1 - ratio| with dephasing.phase_ratio's ratio =
    phi_eff / (phi_l t). Where phi_l t = 0, and always for phi_l = 0, the
    nominal phase vanishes and phi_eff is identically zero by the k <-> -k
    symmetry, so the criterion is the contrast loss 1 - |D_m| / m, the
    phi_l -> 0 limit of the ratio form wherever D_m >= 0, as on [0, t_end].
    """
    ratio, d = phase_ratio(m, phi_l, rate, t)
    return 1.0 - abs(d) / m if ratio is None else abs(1.0 - ratio)


def _bracket(m: int, atoms: int, phi_l: float, rate: float) -> tuple[float, float, float, bool]:
    """(thr, t_end, first_step, wrap): the per-layer SQL 1/sqrt(atoms), the
    first time _error reaches 1, the search's closed-form first step, and
    whether the phase-wrap root set it.

    t_end = min(pi / phi_l, 2 pi / (m phi_g')), the first term only for
    phi_l > 0 and the second only for m > 1 and phi_g' > 0 (D_1 = 1 never
    vanishes): there the laser phase reaches pi or D_m its first zero, and
    error(t_end) = 1. With s = (m^2 - 1) phi_g'^2 / 24 (0 without the second
    term), first_step is the dephasing root where that term applies and it
    falls at a = phi_l t < 1.2 (always for phi_l = 0), else the phase-wrap
    root for phi_l > 0, else inf. The dephasing root solves 1 - c =
    (m^2 - 1) theta^2 / 24 (1 - (3 m^2 - 7) theta^2 / 240) = thr to second
    order, then for phi_l > 0 once more with thr a / tan(a) in place of
    thr, as the phase ratio's error is about (1 - c) tan(a) / a. Near the
    fold, with b = pi / 2 - a, the error is about (sqrt(2 (1 - c) + b^2) -
    b) / a, which is thr where 1 - c = thr a (b + thr a / 2); with 1 - c =
    s t^2 that gives the phase-wrap root pi / ((2 - thr) phi_l +
    2 s / (thr phi_l)), exact for s = 0, as past the fold the error of
    layers in phase (c = 1) is (2 a - pi) / a.
    """
    thr = 1.0 / math.sqrt(atoms)
    t_end = first_step = math.inf
    s = 0.0  # 1 - c ~ s t^2
    if m > 1 and rate:
        # Divided in turn: m phi_g' and m^2 can overflow.
        t_end = math.tau / m / rate
        scale = 24.0 / (m - 1) / (m + 1)
        bend = 0.3 - scale / 60.0  # (3 m^2 - 7) / (10 (m^2 - 1))
        first_step = math.sqrt(scale * thr / (1.0 - bend * thr)) / rate
        a = phi_l * first_step
        if 0.0 < a < 1.2:
            loss = thr * (a / math.tan(a))
            first_step = math.sqrt(scale * loss / (1.0 - bend * loss)) / rate
        s = rate * rate * (m - 1) * (m + 1) / 24.0
    wrap = phi_l > 0.0 and not phi_l * first_step < 1.2
    if phi_l:
        t_end = min(t_end, math.pi / phi_l)
    if wrap:
        first_step = math.pi / ((2.0 - thr) * phi_l + 2.0 * s / thr / phi_l)
    return thr, t_end, first_step, wrap


def solve_tau_max(cell: tuple[int, int, float, float]) -> TauMaxResult:
    """Largest tau with dephasing error at or below the per-layer SQL.

    cell is the four values (layer_count, atoms_per_layer, phi_l, phi_g') as
    the scenario keys give them: counts >= 1, phi_l and phi_g' finite and >= 0. The
    error, _error, rises monotonically from 0 to 1 on [0, t_end]
    (_bracket). With theta = phi_g' t, a = phi_l t and c = D_m / m:
    (1) c is the mean of the cos(k theta) over |k| <= (m-1)/2. On theta in
    [0, 2 pi / m] each term is non-increasing, and c >= 0 with c = 0 at
    2 pi / m. (2) For c in [0, 1], h(a) = asin(c sin a) is concave on
    [0, pi], since h'' = c (c^2 - 1) sin a / (1 - c^2 sin^2 a)^(3/2) <= 0,
    and h(0) = 0, so the ratio h(a) / a is non-increasing in a; it is also
    non-decreasing in c. (3) Therefore the ratio falls from 1 to 0 and the
    error rises from 0 to 1. For phi_l = 0 the error is 1 - c. The
    convention only changes the constant phi_g', which the cell holds.

    So [0, min(t_end, TAU_CAP_S)] brackets the root: the error is 1 at
    t_end <= TAU_CAP_S, and otherwise one evaluation at the cap decides
    between bracketed and non-bracketable. A single-atom layer has threshold
    1 = error(t_end): a phase ratio turns negative past t_end, so its error
    exceeds 1 and tau = t_end exactly, while the contrast loss never does.

    The first step goes to _bracket's closed-form root estimate, if strictly
    inside the bracket. Secant steps through the last two points follow, on
    a function with the error's root that is nearly linear in t near it:
    error - threshold where the phase-wrap root set the first step, as near
    the fold the error grows about linearly (as 2 - pi / a past it), and
    otherwise sqrt(error) - sqrt(threshold), as the error grows as t^2. The
    first anchor is the far end of the bracket for the former and the origin
    (error(0) = 0) for the latter. A secant step that leaves the bracket is
    a regula falsi step instead. Every step stays half the width tolerance
    inside the bracket, whose ends are the last points on either side: a
    step that would move less than that crosses the root by exactly that
    much, so that the next evaluation closes the bracket. A step at least
    half as long as the one before last bisects instead (Brent's rule), and
    so does any step while the bracket is wider than hi 2^(31.5 - k / 2)
    after k steps, hi its first upper end, which keeps the step budget
    (_ROOT_MAX_STEPS). The search converges once the bracket is no wider
    than 1e-12 of its lower end and the last error is within 1e-4 of the
    threshold, and gives up after 192 steps. Deterministic: no grid, no
    randomness.
    """
    m, _, phi_l, rate = cell
    thr, t_end, guess, wrap = _bracket(*cell)
    criterion = "contrast" if phi_l == 0.0 else "phase-ratio"
    evaluations = 0
    if t_end > TAU_CAP_S:
        tau, evaluations = TAU_CAP_S, 1
        e_tau = _error(m, phi_l, rate, tau)
        if not e_tau > thr:
            return TauMaxResult(tau, e_tau, thr, False, False, criterion, 1)
    elif thr < 1.0:
        tau, e_tau = t_end, 1.0
    else:  # one atom per layer: thr = 1 = error(t_end)
        bracketed = criterion == "phase-ratio"
        tau = t_end if bracketed else TAU_CAP_S
        e_tau = _error(m, phi_l, rate, tau)
        return TauMaxResult(tau, e_tau, thr, bracketed, bracketed, criterion, 1)
    target = thr if wrap else math.sqrt(thr)
    lo, hi = 0.0, tau
    # error(0) = 0: no dephasing before any time has passed.
    f_lo, f_hi = -target, (e_tau if wrap else math.sqrt(e_tau)) - target
    # The secant runs through (x0, f0) and the last point (x1, f1), an end of
    # the bracket; before the first step, (x1, f1) is the anchor.
    x0, f0, x1, f1 = (lo, f_lo, hi, f_hi) if wrap else (hi, f_hi, lo, f_lo)
    guess = guess if lo < guess < hi else 0.0  # 0: no estimate step
    width, allowed = hi, hi * 2.0**31.5
    last = before_last = math.inf  # step lengths
    residual_tol = _RESIDUAL_REL_TOL * thr
    converged = False
    for evaluations in range(evaluations + 1, evaluations + 1 + _ROOT_MAX_STEPS):
        if guess:
            tau, guess = guess, 0.0
        elif width > allowed:
            tau = lo + 0.5 * width
        else:
            tau = x1 - f1 * ((x1 - x0) / (f1 - f0)) if f1 != f0 else x1
            if not lo < tau < hi:
                tau = lo + width * (f_lo / (f_lo - f_hi)) if f_lo != f_hi else lo
            # Half the width tolerance inside: the step that closes the bracket.
            margin = 0.5 * _ROOT_REL_TOL * lo
            low, high = lo + margin, hi - margin
            tau = low if tau < low else high if tau > high else tau
            # Brent's rule; a bracket too narrow for the margins is bisected.
            if not lo < tau < hi or abs(tau - x1) >= 0.5 * before_last:
                tau = lo + 0.5 * width
        before_last, last = last, abs(tau - x1)
        allowed *= 0.5**0.5
        e_tau = _error(m, phi_l, rate, tau)
        if wrap:
            f_tau = e_tau - target
        else:
            # The contrast form 1 - |D| / m can round to just below 0.
            f_tau = (math.sqrt(e_tau) if e_tau > 0.0 else 0.0) - target
        x0, f0, x1, f1 = x1, f1, tau, f_tau
        if e_tau > thr:
            hi, f_hi = tau, f_tau
        else:
            lo, f_lo = tau, f_tau
        width = hi - lo
        if width <= _ROOT_REL_TOL * lo and abs(e_tau - thr) <= residual_tol:
            converged = True
            break
    return TauMaxResult(tau, e_tau, thr, True, converged, criterion, evaluations)
