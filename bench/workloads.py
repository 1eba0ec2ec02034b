"""Seeded scenario decks for the three benchmark workloads.

A deck is the fixed list of scenario files one workload cycles through. The
seed only jitters values inside narrow ranges, so every seed gives the same
structure (families, conventions, grid shapes) at nearly the same cost, and
run-to-run spread comes from the machine rather than from the inputs.

- sweep: stability-sweep scenarios, cubic and slab under both conventions,
  sizes log-spaced from 1 up to about 3,000 layers, phi_l grid including 0.
  This is the tau_max search, the hot path. Size 1 with phi_l = 0 gives the
  capped (non-bracketable) cells and phi_l = 0 the contrast criterion, so
  every branch of solve_tau_max runs.
- curve: dephase-curve scenarios with sizes 1 .. about 2,000 and t grids of
  about 1,300 points whose phi_l * t crosses the arcsine fold (pi/2). One
  layer-sum evaluation per output row, so rendering weighs more than in
  sweep.
- quick: threshold and budget scenarios with seeded tau, n_site, wall
  distance, beam waist and temperatures. The kernels do almost no work, so
  interpreter start and import dominate a fresh-process run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "curve", "quick")

CONVENTIONS = ("physical", "paper-figure")


@dataclass(frozen=True)
class Case:
    """One scenario file of a deck and what the oracle needs to check it.

    units is the work the case represents for units_per_s: sweep cells,
    curve rows, or 1 for a single quick invocation.
    """

    name: str
    command: str
    text: str
    params: dict
    units: int


def _jitter(rng: random.Random, value: float, spread: float) -> float:
    """value times a factor drawn log-uniformly from [1/(1+spread), 1+spread]."""
    return value * math.exp(rng.uniform(-1.0, 1.0) * math.log1p(spread))


def _log_sizes(rng: random.Random, top: int, points: int) -> tuple[int, ...]:
    """1, then log-spaced jittered sizes, ending exactly at top."""
    sizes = [1]
    for i in range(1, points):
        nominal = top ** (i / (points - 1))
        value = top if i == points - 1 else round(_jitter(rng, nominal, 0.15))
        sizes.append(max(value, sizes[-1] + 1))
    return tuple(sizes)


def _sweep_case(rng: random.Random, index: int, family: str, convention: str) -> Case:
    top = round(3000 * _jitter(rng, 1.0, 0.03))
    sizes = _log_sizes(rng, top, 7)
    phi_l = (0.0,) + tuple(_jitter(rng, 10.0**e, 0.5) for e in (-6, -4, -2))
    atoms_per_layer = round(10_000 * _jitter(rng, 1.0, 0.25))
    lines = [
        f"convention = {convention}",
        f"sweep.family = {family}",
        "sweep.sizes = " + ",".join(str(s) for s in sizes),
        "sweep.phi_l = " + ",".join(repr(p) for p in phi_l),
        f"sweep.atoms_per_layer = {atoms_per_layer}",
    ]
    params = {
        "family": family,
        "convention": convention,
        "sizes": sizes,
        "phi_l": phi_l,
        "atoms_per_layer": atoms_per_layer,
    }
    return Case(
        name=f"sweep-{index}",
        command="stability-sweep",
        text="\n".join(lines) + "\n",
        params=params,
        units=len(sizes) * len(phi_l),
    )


def _curve_case(rng: random.Random, index: int, convention: str) -> Case:
    t_end = rng.uniform(200.0, 300.0)
    points = rng.randint(1250, 1350)
    # phi_l * t_end lands in [2.5, 3.8] rad, past the fold at pi/2.
    phi_l = math.pi / t_end * rng.uniform(0.8, 1.2)
    sizes = (1, round(45 * _jitter(rng, 1.0, 0.3)), round(2000 * _jitter(rng, 1.0, 0.03)))
    lines = [
        f"convention = {convention}",
        f"dephase.phi_l = {phi_l!r}",
        "dephase.sizes = " + ",".join(str(s) for s in sizes),
        f"dephase.t_grid = linspace:0:{t_end!r}:{points}",
    ]
    params = {
        "convention": convention,
        "phi_l": phi_l,
        "sizes": sizes,
        "t_end": t_end,
        "points": points,
    }
    return Case(
        name=f"curve-{index}",
        command="dephase-curve",
        text="\n".join(lines) + "\n",
        params=params,
        units=len(sizes) * points,
    )


def _threshold_case(rng: random.Random, index: int, convention: str) -> Case:
    tau = _jitter(rng, 30.0, 2.0)
    lines = [f"convention = {convention}", f"interrogation.tau = {tau!r}"]
    return Case(
        name=f"threshold-{index}",
        command="threshold",
        text="\n".join(lines) + "\n",
        params={"convention": convention, "tau": tau},
        units=1,
    )


def _budget_case(rng: random.Random, index: int, convention: str) -> Case:
    params = {
        "convention": convention,
        "n_site": rng.randint(20, 400),
        "wall_distance": rng.uniform(0.03, 0.10),
        "beam_waist": rng.uniform(100e-6, 300e-6),
        "base_temperature": rng.uniform(285.0, 305.0),
        "example_temperature_step": rng.uniform(0.5, 2.0),
        "delta_t": rng.uniform(0.005, 0.020),
    }
    lines = [f"convention = {convention}"]
    lines.extend(
        f"budget.{key} = {value!r}" for key, value in params.items() if key != "convention"
    )
    return Case(
        name=f"budget-{index}",
        command="budget",
        text="\n".join(lines) + "\n",
        params=params,
        units=1,
    )


def make_deck(workload: str, seed: int) -> list[Case]:
    """The workload's scenario deck; the same (workload, seed) gives the same deck."""
    rng = random.Random(f"gravclock-bench:{workload}:{seed}")
    if workload == "sweep":
        combos = [
            ("cubic", "physical"),
            ("slab", "paper-figure"),
            ("cubic", "paper-figure"),
            ("slab", "physical"),
        ]
        return [_sweep_case(rng, i, fam, conv) for i, (fam, conv) in enumerate(combos)]
    if workload == "curve":
        return [_curve_case(rng, i, CONVENTIONS[i % 2]) for i in range(4)]
    if workload == "quick":
        deck = []
        for i in range(4):
            deck.append(_threshold_case(rng, i, CONVENTIONS[i % 2]))
            deck.append(_budget_case(rng, i, CONVENTIONS[(i + 1) % 2]))
        return deck
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
