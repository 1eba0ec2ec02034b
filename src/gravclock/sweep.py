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
import sys
from typing import NamedTuple, Sequence

from .core import ClockSpecies, PhysicalConstants, per_layer_phase_rate
from .dephasing import effective_phase_rate
from .thresholds import check_cells, solve_tau_max

FLAG_NON_BRACKETABLE = "non-bracketable"
FLAG_NON_CONVERGED = "non-converged"


class StabilityPoint(NamedTuple):
    """One sweep cell. sigma_at_1s = sigma_at_tau * sqrt(tau_max_s), exactly."""

    size: int
    phi_l: float
    tau_max_s: float
    sigma_at_tau: float
    sigma_at_1s: float
    flag: str = ""


def _magnitude(n: int) -> str:
    """An int of any size in 4-digit scientific notation, truncated."""
    digits = str(n)
    return f"{digits[0]}.{digits[1:4].ljust(3, '0')}e+{len(digits) - 1:02d}"


def sweep(
    family: str,
    sizes: Sequence[int],
    phi_l_grid: Sequence[float],
    convention: str,
    atoms_per_layer: int,
    species: ClockSpecies,
    consts: PhysicalConstants,
    layer_spacing: float,
) -> list[StabilityPoint]:
    """Stability of every (size, phi_l) cell at 1 s integration, size-major.

    A cubic size n sums n + 1 layers of n^2 atoms; a slab size n sums n
    layers of atoms_per_layer atoms. The convention is applied once per
    size, where its layer count meets phi_g. Each size and the phi_l grid
    are checked once (check_cells); cells go to solve_tau_max as plain
    tuples. A non-bracketable tau search (laser never limits) yields a
    flagged point evaluated at the tau cap instead of aborting. A bracketed
    search whose root finder (secant steps with a bisection schedule) used
    its 192 steps before narrowing tau_max to 1e-12 relative with the error
    within 1e-4 of the SQL is flagged non-converged.
    """
    if family not in ("cubic", "slab"):
        raise ValueError(f"family must be 'cubic' or 'slab', got {family!r}")
    if family == "slab" and atoms_per_layer > sys.float_info.max:
        raise OverflowError(
            f"sweep.atoms_per_layer = {_magnitude(atoms_per_layer)} is out of float range"
        )
    phi_g = per_layer_phase_rate(consts, species, layer_spacing)
    omega0 = species.omega0
    points = []
    for size in sizes:
        if family == "cubic":
            layer_count, atoms = size + 1, size * size
        else:
            layer_count, atoms = size, atoms_per_layer
        if max(layer_count, atoms) > sys.float_info.max:
            raise OverflowError(
                f"sweep.sizes: a {family} ensemble of size {_magnitude(size)} has a layer"
                " or atom count out of float range"
            )
        rate = effective_phase_rate(phi_g, layer_count, convention)
        check_cells(layer_count, atoms, phi_l_grid[:1] if points else phi_l_grid, rate)
        root_atoms = math.sqrt(atoms)
        for phi_l in phi_l_grid:
            tau, _, _, bracketed, converged, _, _ = solve_tau_max(
                (layer_count, atoms, phi_l, rate)
            )
            flag = "" if converged else (
                FLAG_NON_CONVERGED if bracketed else FLAG_NON_BRACKETABLE
            )
            denominator = omega0 * tau * root_atoms
            sigma_at_tau = 1.0 / denominator if denominator else math.inf
            sigma_at_1s = sigma_at_tau * math.sqrt(tau)
            if not max(sigma_at_tau, sigma_at_1s) < math.inf:
                raise OverflowError(
                    f"SQL 1/(omega0 tau_max sqrt(N)) at size {_magnitude(size)}, phi_l {phi_l!r},"
                    f" tau_max {tau!r} s is out of float range; it is set by species.omega0,"
                    " sweep.sizes and, for slabs, sweep.atoms_per_layer"
                )
            points.append(StabilityPoint(size, phi_l, tau, sigma_at_tau, sigma_at_1s, flag))
    return points


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
    if any(b.size <= a.size for a, b in zip(points, points[1:])):
        raise ValueError("curve sizes must be strictly increasing")
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
