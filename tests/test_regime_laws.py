"""The sweep against its two closed-form regime laws, under both conventions.

tests/regime_laws.py holds the gravity law tau_G and the laser law tau_L.
Far from their crossover a cell's tau_max lies on the smaller law; this
checks that on the two stability presets and the default sweep.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from regime_laws import regime

from gravclock.core import CONVENTIONS, per_layer_phase_rate
from gravclock.dephasing import effective_phase_rate
from gravclock.scenario import Scenario, parse_scenario
from gravclock.sweep import sweep

PRESETS = Path(__file__).resolve().parent.parent / "presets"
SWEEPS = ["stability_cubic.cfg", "stability_slab.cfg", "defaults"]

# A cell is checked when its laws lie more than CROSSOVER apart; nearer the
# crossover both regimes shape tau_max, and cells lie up to ~27% below the
# smaller law.
CROSSOVER = 10.0
# The laws are first-order expansions in thr, so a threshold of 1/2 or more
# (a layer of at most 4 atoms) is left out.
MAX_THR = 0.5
# Within 0.5% of the smaller law: at a law ratio of 10 the other regime still
# shortens tau_max by about 0.4%. In the gravity regime that is a^2 / 6, from
# the phase ratio's tan(a) / a at a = phi_l tau ~ pi / 20; in the laser regime
# it is 4 / (pi^2 ratio^2), from the phase-wrap root's 2 s / (thr phi_l) term.
# The largest seen is 0.397%, below the law.
NEAR = 5e-3
# At most 0.1 thr^2 relative above the smaller law: the other regime only
# shortens tau_max, so a cell can exceed the law only by the O(thr^2) term
# the law neglects (the solver's 1e-12 width tolerance is far below it). The
# largest seen is 0.024 thr^2.
ABOVE = 0.1


def _scenario(name: str, convention: str) -> Scenario:
    scenario = Scenario() if name == "defaults" else parse_scenario((PRESETS / name).read_text())
    return scenario._replace(convention=convention)


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_cells_lie_on_the_smaller_regime_law(name, convention):
    scenario = _scenario(name, convention)
    species = scenario.species_obj()
    phi_g = per_layer_phase_rate(scenario.consts_obj(), species, scenario.layer_spacing())
    checked = {"gravity": 0, "laser": 0}
    for point in sweep(scenario):
        if scenario.sweep_family == "cubic":
            m, atoms = point.size + 1, point.size * point.size
        else:
            m, atoms = point.size, scenario.sweep_atoms_per_layer
        thr = 1.0 / math.sqrt(atoms)
        if point.flag or m < 2 or not thr < MAX_THR:
            continue
        rate = effective_phase_rate(phi_g, m, convention)
        law_name, law, ratio = regime(m, atoms, point.phi_l, rate)
        if not ratio > CROSSOVER:
            continue
        deviation = (point.tau_max_s - law) / law
        cell = (point.size, point.phi_l, law_name, deviation)
        assert abs(deviation) <= NEAR, cell
        assert deviation <= ABOVE * thr * thr, cell
        checked[law_name] += 1
    # Each sweep has cells far on both sides of the crossover.
    assert min(checked.values()) > 0, checked
