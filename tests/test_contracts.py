"""What the benchmark reaches in the program, and defaults written twice.

bench/run.py wraps the functions named in its TRACED table and times a few
kernel calls directly. These tests read that table from the benchmark's
source with ast, without importing the benchmark, and check that every name
it wraps is still a module-level callable and that its timed calls still run
and agree with an independent computation.

The benchmark calls assemble_budget() with no arguments, so each budget
default is written both as a `budget.` scenario key and as a keyword default
of assemble_budget; the last test keeps the two equal.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest
from layer_sum_oracle import explicit_layer_sum

from gravclock.core import PhysicalConstants, YB, per_layer_phase_rate
from gravclock.dephasing import Convention, DephasingInput, bloch_sum, effective_phase_rate
from gravclock.scenario import Scenario
from gravclock.systematics import assemble_budget
from gravclock.thresholds import TauMaxProblem, solve_tau_max

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
PHI_G = per_layer_phase_rate(PhysicalConstants(), YB, YB.default_layer_spacing)


def _traced() -> tuple[tuple[str, str, str], ...]:
    """The TRACED table of bench/run.py: (module, attribute, span name) rows."""
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {BENCH_RUN}")


def test_traced_names_are_module_level_callables():
    traced = _traced()
    assert traced
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in traced
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert not missing


@pytest.mark.parametrize("m", [101, 1001])
def test_timed_layer_sum_matches_explicit_sum(m):
    summary = bloch_sum(DephasingInput(phi_l=1e-5, phi_g=PHI_G, layer_count=m, t=30.0))
    rate = effective_phase_rate(PHI_G, m, Convention.PHYSICAL)
    s_x, s_y = explicit_layer_sum(1e-5, rate, m, 30.0)
    assert summary.length == pytest.approx(math.hypot(s_x, s_y), rel=1e-9)


def test_timed_tau_max_cell_is_bracketed():
    # The paper's ~60 s interrogation cap: a cube of 200 sites at 1e-2 rad/s.
    result = solve_tau_max(TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE))
    assert result.bracketed
    assert result.converged


def test_budget_with_no_arguments_agrees_with_closed_form():
    assert assemble_budget().intensity.closed_form_agrees


def test_budget_keyword_defaults_match_scenario_defaults():
    parameters = inspect.signature(assemble_budget).parameters
    scenario = Scenario()
    keys = [name for name in Scenario._fields if name.startswith("budget_")]
    assert len(keys) == 12
    for name in keys:
        default = parameters[name.removeprefix("budget_")].default
        assert default == getattr(scenario, name), name
