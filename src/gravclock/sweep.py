"""Best-stability sweeps over lattice size and laser drift rate.

For each (size, phi_l) the maximum interrogation time is solved, the
per-layer SQL at that time is evaluated, and the result is converted to a
1 s stability through the tau^(-1/2) scaling. Cubic sweeps report
1/(omega0 tau n_site); slab sweeps report 1/(omega0 tau sqrt(atoms_per_layer)).
Reporting the per-layer SQL (not the whole-ensemble QPN) is what makes the
laser-limited branch scale as 1/size for cubes and stay flat for slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    DEFAULT_PHI_L_GRID,
    DEFAULT_SLAB_ATOMS_PER_LAYER,
    ClockSpecies,
    PhysicalConstants,
    YB,
    default_size_grid,
    per_layer_phase_rate,
)
from .dephasing import Convention
from .thresholds import TauMaxProblem, solve_tau_max

FLAG_NON_BRACKETABLE = "non-bracketable"
FLAG_NON_CONVERGED = "non-converged"


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep: geometry family x sizes x phi_l values."""

    family: str  # "cubic" or "slab"
    sizes: tuple[int, ...] = field(default_factory=default_size_grid)
    phi_l_grid: tuple[float, ...] = DEFAULT_PHI_L_GRID
    convention: Convention = Convention.PHYSICAL
    atoms_per_layer: int = DEFAULT_SLAB_ATOMS_PER_LAYER  # slab only
    species: ClockSpecies = YB
    consts: PhysicalConstants = PhysicalConstants()
    layer_spacing: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("cubic", "slab"):
            raise ValueError(f"family must be 'cubic' or 'slab', got {self.family!r}")
        if not self.sizes:
            raise ValueError("sizes grid must be non-empty")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("sizes grid must be strictly increasing")
        if self.sizes[0] < 1:
            raise ValueError(f"sizes must be >= 1, got {self.sizes[0]}")
        if not self.phi_l_grid:
            raise ValueError("phi_l grid must be non-empty")
        if self.atoms_per_layer < 1:
            raise ValueError(f"atoms_per_layer must be >= 1, got {self.atoms_per_layer}")


@dataclass(frozen=True)
class StabilityPoint:
    """One sweep cell. sigma_at_1s = sigma_at_tau * sqrt(tau_max_s), exactly."""

    family: str
    size: int
    phi_l: float
    convention: Convention
    tau_max_s: float
    sigma_at_tau: float
    sigma_at_1s: float
    flag: str = ""


def best_stability_at_1s(
    size: int,
    phi_l: float,
    family: str = "cubic",
    convention: Convention = Convention.PHYSICAL,
    atoms_per_layer: int = DEFAULT_SLAB_ATOMS_PER_LAYER,
    species: ClockSpecies = YB,
    consts: PhysicalConstants = PhysicalConstants(),
    layer_spacing: float | None = None,
) -> StabilityPoint:
    """Stability of one (size, phi_l) cell, converted to 1 s integration.

    A non-bracketable tau search (laser never limits) yields a flagged point
    evaluated at the tau cap instead of aborting. A bracketed search whose
    bisection ran out of iterations before meeting its tolerances is
    flagged non-converged.
    """
    spacing = species.default_layer_spacing if layer_spacing is None else layer_spacing
    phi_g = per_layer_phase_rate(consts, species, spacing)
    if family == "cubic":
        problem = TauMaxProblem.cubic(size, phi_l, convention, phi_g=phi_g)
    elif family == "slab":
        problem = TauMaxProblem.slab(size, atoms_per_layer, phi_l, convention, phi_g=phi_g)
    else:
        raise ValueError(f"family must be 'cubic' or 'slab', got {family!r}")

    result = solve_tau_max(problem)
    flag = "" if result.converged else (
        FLAG_NON_CONVERGED if result.bracketed else FLAG_NON_BRACKETABLE
    )
    tau = result.tau_s
    sigma_at_tau = 1.0 / (species.omega0 * tau * math.sqrt(problem.atoms_per_layer))
    return StabilityPoint(
        family=family,
        size=size,
        phi_l=phi_l,
        convention=convention,
        tau_max_s=tau,
        sigma_at_tau=sigma_at_tau,
        sigma_at_1s=sigma_at_tau * math.sqrt(tau),
        flag=flag,
    )


def sweep(spec: SweepSpec) -> list[StabilityPoint]:
    """Cartesian product of the grids, size-major row order."""
    return [
        best_stability_at_1s(
            size,
            phi_l,
            family=spec.family,
            convention=spec.convention,
            atoms_per_layer=spec.atoms_per_layer,
            species=spec.species,
            consts=spec.consts,
            layer_spacing=spec.layer_spacing,
        )
        for size in spec.sizes
        for phi_l in spec.phi_l_grid
    ]


def split_at_minimum(
    points: list[StabilityPoint],
) -> tuple[list[StabilityPoint], list[StabilityPoint]]:
    """Split one curve (single phi_l, ascending sizes) at its sigma_at_1s argmin.

    Returns (small, large): sizes strictly below and strictly above the
    minimum. The minimum point itself belongs to neither regime.
    """
    if not points:
        raise ValueError("empty curve")
    phis = {p.phi_l for p in points}
    if len(phis) != 1:
        raise ValueError(f"curve must hold a single phi_l, got {sorted(phis)}")
    idx = min(range(len(points)), key=lambda i: points[i].sigma_at_1s)
    return points[:idx], points[idx + 1:]


def scaling_exponent(points: list[StabilityPoint], regime: str) -> float:
    """Least-squares slope of log(sigma_at_1s) vs log(size) in one regime.

    regime 'small' takes the sizes below the curve's stability minimum,
    'large' the sizes above it. Requires at least 3 unflagged points.
    """
    if regime not in ("small", "large"):
        raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")
    small, large = split_at_minimum(points)
    slice_ = small if regime == "small" else large
    if any(p.flag for p in slice_):
        raise ValueError("regime slice contains flagged points")
    if len(slice_) < 3:
        raise ValueError(f"need >= 3 points in the {regime} regime, got {len(slice_)}")
    import statistics  # a few ms of import that no CLI command needs

    x = [math.log(p.size) for p in slice_]
    y = [math.log(p.sigma_at_1s) for p in slice_]
    return statistics.linear_regression(x, y).slope
