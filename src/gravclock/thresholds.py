"""Decoherence thresholds: critical lattice sizes and the maximum interrogation time.

Two separate questions. decoherence_sizes asks how large the lattice
must be before the gravitational phase spread across it reaches the quantum
projection noise (closed-form algebra). solve_tau_max asks how long a given
ensemble can be interrogated before the dephasing-induced error in the
measured phase reaches the per-layer standard quantum limit (bracketing plus
bisection on the layer-sum model).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .core import ClockSpecies, PhysicalConstants, YB, geomspace, per_layer_phase_rate
from .dephasing import Convention, dirichlet, effective_phase_rate

TAU_CAP_S = 1e9
_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-6
_RESIDUAL_REL_TOL = 1e-4
# A grid point is skipped only where 2*bound(t) + _SKIP_SLACK <= threshold:
# the factor 2 and the absolute slack absorb the rounding of error(t), which
# can exceed the bound by ~1e-15 where both are tiny. A threshold at or below
# the slack skips nothing, so the scan then covers the whole grid.
_SKIP_SLACK = 1e-14
# The phi_g of TauMaxProblem.cubic: Yb at its magic-wavelength spacing [rad/s].
_YB_PHI_G = per_layer_phase_rate(PhysicalConstants(), YB, YB.default_layer_spacing)
# The scenario keys behind c^2/(omega0 tau g d), named when a size overflows.
SIZE_KEYS = (
    "constants.c, constants.g, species.omega0, interrogation.tau and"
    " geometry.layer_spacing (default species.magic_wavelength / 2)"
)


@functools.cache
def _scan_grid() -> tuple[float, ...]:
    """The tau_max scan grid, 1e-6 s to TAU_CAP_S at 32 points per decade.

    Built on first use, so that only runs that solve for tau_max pay for it.
    """
    return geomspace(1e-6, TAU_CAP_S, 32 * 15 + 1)


def decoherence_sizes(
    species: ClockSpecies = YB,
    consts: PhysicalConstants = PhysicalConstants(),
    tau: float = 30.0,
    layer_spacing: float | None = None,
) -> tuple[float, float]:
    """Lattice sizes (per_layer, halves) at which the gravitational phase
    spread across the ensemble equals the quantum projection noise.

    With k = c^2 / (omega0 tau g d), d the layer spacing (None: magic
    wavelength / 2), per_layer solves 1/(omega0 tau n) = g n d / c^2, so
    n = sqrt(k). halves puts the SQL of half the ensemble (N/2 ~ n^3/2 atoms)
    on the left, so n = (sqrt(2) k)^(2/5); that equation is a reconstruction
    pinned to the documented critical size (165), not a stated formula, and
    outputs label it as such. No phase-rate convention enters.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if layer_spacing is None:
        layer_spacing = species.default_layer_spacing
    elif not (layer_spacing > 0 and math.isfinite(layer_spacing)):
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


@dataclass(frozen=True)
class TauMaxProblem:
    """Ensemble and laser for the maximum-interrogation-time search.

    layer_count is the number of summed layers, atoms_per_layer sets the
    per-layer SQL phase 1/sqrt(atoms_per_layer), phi_l and phi_g in rad/s
    (phi_g physical per layer, adjusted by the convention).
    """

    layer_count: int
    atoms_per_layer: int
    phi_l: float
    phi_g: float
    convention: Convention

    def __post_init__(self) -> None:
        if self.layer_count < 1:
            raise ValueError(f"layer_count must be >= 1, got {self.layer_count}")
        if self.atoms_per_layer < 1:
            raise ValueError(f"atoms_per_layer must be >= 1, got {self.atoms_per_layer}")
        if not (self.phi_l >= 0 and math.isfinite(self.phi_l)):
            raise ValueError(f"phi_l must be >= 0 and finite, got {self.phi_l!r}")
        if not (self.phi_g >= 0 and math.isfinite(self.phi_g)):
            raise ValueError(f"phi_g must be >= 0 and finite, got {self.phi_g!r}")

    @classmethod
    def cubic(cls, n_site: int, phi_l: float, convention: Convention) -> "TauMaxProblem":
        """A Yb cube of side n_site: n_site + 1 layers of n_site^2 atoms."""
        if n_site < 1:
            raise ValueError(f"n_site must be >= 1, got {n_site}")
        return cls(n_site + 1, n_site * n_site, phi_l, _YB_PHI_G, convention)

    @property
    def threshold(self) -> float:
        """Per-layer SQL phase: 1/sqrt(atoms_per_layer) rad."""
        return 1.0 / math.sqrt(self.atoms_per_layer)


@dataclass(frozen=True)
class TauMaxResult:
    """Outcome of the tau_max search.

    bracketed is False when the error never reaches the threshold within
    (0, TAU_CAP_S]: the laser-dominated regime with unbounded tau. tau_s then
    holds the cap. converged is True only when the bisection met both its
    tau and residual tolerances; it is False for an unbracketed search and
    for one that ran out of iterations. criterion records whether the
    phase-ratio error or the phi_l = 0 contrast fallback was used.
    """

    tau_s: float
    error_at_tau: float
    threshold: float
    bracketed: bool
    converged: bool
    criterion: str


def _error_function(problem: TauMaxProblem):
    """(error, bound, criterion): the dephasing error at one t, relative to
    the nominal phase, and a cheap upper bound on it that rises with t.

    For phi_l > 0: |1 - phi_eff / (phi_l t)| with phi_eff = asin(S_y / m),
    S_y = sin(phi_l t) D_m(phi_g' t). Where phi_l t = 0 (phi_l = 0, or a
    product that underflows) the nominal phase vanishes and phi_eff is
    identically zero by the k <-> -k symmetry, so the criterion degrades
    continuously to the contrast loss 1 - |D_m| / m (the phi_l -> 0 limit of
    the ratio form). A phase phi_l t out of float range is refused.

    The bound is B = (m^2 - 1) theta^2 / 24 * tan(a) / a with theta = phi_g' t
    and a = phi_l t (the last factor is 1 at a = 0): 1 - D_m / m <= (m^2 - 1)
    theta^2 / 24 because cos x >= 1 - x^2 / 2 term by term, and asin is
    convex on [0, 1]. It is claimed only for a <= 1, away from the asin fold
    at pi/2 where error(t) is ill-conditioned; for a > 1 it is inf.
    """
    m = problem.layer_count
    rate = effective_phase_rate(problem.phi_g, m, problem.convention)
    phi_l = problem.phi_l
    quad = (float(m) * m - 1.0) / 24.0

    def error(t: float) -> float:
        d = dirichlet(m, rate * t)
        a = phi_l * t
        if a == 0.0:
            return 1.0 - abs(d) / m
        if a == math.inf:
            raise OverflowError(
                f"laser phase phi_l t at t = {t!r} s is out of float range; phi_l is sweep.phi_l"
            )
        s_y = math.sin(a) * d
        return abs(1.0 - math.asin(max(-1.0, min(1.0, s_y / m))) / a)

    def bound(t: float) -> float:
        a = phi_l * t
        if a > 1.0:
            return math.inf
        theta = rate * t
        b = quad * theta * theta
        return b * math.tan(a) / a if a else b

    return error, bound, "contrast" if phi_l == 0.0 else "phase-ratio"


def _scan(error, bound, thr: float) -> int | None:
    """Index of the first scan-grid point whose error exceeds thr, or None.

    The points where the bound proves the error below thr form a prefix of
    the grid, since the bound rises with t; a binary search finds its end,
    and the scan evaluates error from there. NaN in the bound skips nothing.
    """
    grid = _scan_grid()
    start = bisect.bisect_left(
        grid, True, key=lambda t: not 2.0 * bound(t) + _SKIP_SLACK <= thr
    )
    return next((i for i in range(start, len(grid)) if error(grid[i]) > thr), None)


def solve_tau_max(problem: TauMaxProblem) -> TauMaxResult:
    """Largest tau with dephasing error at or below the per-layer SQL.

    Scans a fixed geometric grid from 1e-6 s to TAU_CAP_S for the first
    point past the threshold, skipping the points an upper bound on the
    error proves below it, then bisects that bracket to a relative tau
    tolerance of 1e-6 (at most 200 iterations, tightening until the error
    residual is within 1e-4 of the threshold). Deterministic: fixed grid,
    fixed iteration policy, no randomness.
    """
    error, bound, criterion = _error_function(problem)
    thr = problem.threshold
    i = _scan(error, bound, thr)
    tau, converged = TAU_CAP_S, False
    if i is None:
        e_tau = error(tau)
    else:
        # i == 0 is pathological: already past threshold at the scan floor,
        # so bisection starts from lo = 0 (the error vanishes with t).
        grid = _scan_grid()
        lo, hi = (grid[i - 1] if i else 0.0), grid[i]
        tau = 0.5 * (lo + hi)
        e_tau = error(tau)
        for _ in range(_BISECT_MAX_ITER):
            if e_tau > thr:
                hi = tau
            else:
                lo = tau
            tau = 0.5 * (lo + hi)
            e_tau = error(tau)
            converged = (
                hi - lo <= _BISECT_REL_TOL * max(lo, 1e-300)
                and abs(e_tau - thr) <= _RESIDUAL_REL_TOL * thr
            )
            if converged:
                break
    return TauMaxResult(
        tau_s=tau,
        error_at_tau=e_tau,
        threshold=thr,
        bracketed=i is not None,
        converged=converged,
        criterion=criterion,
    )
