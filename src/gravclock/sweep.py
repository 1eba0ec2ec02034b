"""Best-stability sweeps over lattice size and laser drift rate.

For each (size, phi_l) the maximum interrogation time is solved, the
per-layer SQL at that time is evaluated, and the result is converted to a
1 s stability through the tau^(-1/2) scaling. Cubic sweeps report
1/(omega0 tau n_site); slab sweeps report 1/(omega0 tau sqrt(atoms_per_layer)).
Reporting the per-layer SQL (not the whole-ensemble QPN) is what makes the
laser-limited branch scale as 1/size for cubes and stay flat for slabs.
The tests, not this module, fit the paper's -1, +0.25 and +1 slopes.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import echo_int, per_layer_phase_rate
from .dephasing import effective_phase_rate
from .scenario import Scenario
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


def sweep(scenario: Scenario) -> list[StabilityPoint]:
    """Stability of every (size, phi_l) cell of the scenario's sweep.sizes and
    sweep.phi_l grids at 1 s integration, size-major.

    sweep.family picks the ensemble: a cubic size n sums n + 1 layers of n^2
    atoms; a slab size n sums n layers of sweep.atoms_per_layer atoms. The
    scenario's species, constants and layer spacing give phi_g; its
    convention is applied once per size, where its layer count meets phi_g.
    Each size and the phi_l grid are checked once (check_cells); cells go to
    solve_tau_max as plain tuples. A non-bracketable tau search (laser never
    limits) yields a flagged point evaluated at the tau cap instead of
    aborting. A bracketed search whose root finder (secant steps with a
    bisection schedule) used its 192 steps before narrowing tau_max to 1e-12
    relative with the error within 1e-4 of the SQL is flagged non-converged.
    """
    family, phi_l_grid = scenario.sweep_family, scenario.sweep_phi_l
    atoms_per_layer, convention = scenario.sweep_atoms_per_layer, scenario.convention
    if family not in ("cubic", "slab"):
        raise ValueError(f"sweep.family must be 'cubic' or 'slab', got {family!r}")
    if family == "slab" and atoms_per_layer > sys.float_info.max:
        raise OverflowError(
            f"sweep.atoms_per_layer is {echo_int(atoms_per_layer)}, out of float range"
        )
    species = scenario.species_obj()
    phi_g = per_layer_phase_rate(scenario.consts_obj(), species, scenario.layer_spacing())
    omega0 = species.omega0
    points = []
    for size in scenario.sweep_sizes:
        if family == "cubic":
            layer_count, atoms = size + 1, size * size
        else:
            layer_count, atoms = size, atoms_per_layer
        if max(layer_count, atoms) > sys.float_info.max:
            raise OverflowError(
                f"sweep.sizes: a {family} ensemble has a layer or atom count out of float"
                f" range; its size is {echo_int(size)}"
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
                    f"SQL 1/(omega0 tau_max sqrt(N)) at size {echo_int(size)}, phi_l {phi_l!r},"
                    f" tau_max {tau!r} s is out of float range; it is set by species.omega0,"
                    " sweep.sizes and, for slabs, sweep.atoms_per_layer"
                )
            points.append(StabilityPoint(size, phi_l, tau, sigma_at_tau, sigma_at_1s, flag))
    return points
