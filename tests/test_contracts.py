"""What the benchmark reaches in the program, and defaults written twice.

bench/run.py wraps the functions named in its TRACED table and times a few
kernel calls directly. These tests read that table from the benchmark's
source with ast, without importing the benchmark, and check that every name
it wraps is still a module-level callable, found where the benchmark looks
(in sys.modules once gravclock.cli is imported), and that its timed calls
still run and agree with an independent computation.

Its trace wraps cli.csv_text and cli.write_outputs at those module globals
and encodes every text that write_outputs receives, so both CSV commands
must assemble their text in one cli.csv_text call and every command must
hand write_outputs str values.

The benchmark calls assemble_budget() with no arguments. Its one parameter
defaults to Scenario(), so every budget default is the scenario key table's.
The last tests check that this call is the built-in scenario's budget, and
that assemble_budget and sweep read each `budget.` and `sweep.` key of the
table.
"""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from layer_sum_oracle import explicit_layer_sum

from gravclock import cli, emit
from gravclock import scenario as scenario_module
from gravclock.core import YB, per_layer_phase_rate
from gravclock.dephasing import Convention, DephasingInput, bloch_sum, effective_phase_rate
from gravclock.scenario import Scenario
from gravclock.sweep import sweep
from gravclock.systematics import assemble_budget
from gravclock.thresholds import TauMaxProblem, solve_tau_max

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
PRESETS = Path(__file__).resolve().parent.parent / "presets"
PHI_G = per_layer_phase_rate(Scenario().consts_obj(), YB, YB.default_layer_spacing)


def _traced() -> tuple[tuple[str, str, str], ...]:
    """The TRACED table of bench/run.py: (module, attribute, span name) rows."""
    for node in ast.parse(BENCH_RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {BENCH_RUN}")


# Run in a fresh interpreter: what `import gravclock.cli` alone loads, looked up
# in sys.modules as the trace and the micro-timings look it up.
_AFTER_CLI_IMPORT = """
import ast
import sys
import gravclock.cli

traced = ast.literal_eval(sys.argv[1])
missing = [
    f"{module}.{attribute}"
    for module, attribute, _ in traced
    if not callable(getattr(sys.modules.get(module), attribute, None))
]
thresholds = sys.modules["gravclock.thresholds"]
convention = sys.modules["gravclock.dephasing"].Convention.PAPER_FIGURE
result = thresholds.solve_tau_max(thresholds.TauMaxProblem.cubic(200, 1e-2, convention))
print(missing, result.bracketed, result.converged, result.criterion)
"""


def test_traced_names_are_module_level_callables():
    # bench/run.py --trace 1 patches each TRACED name in sys.modules after
    # importing gravclock.cli only, and reports a name it cannot find rather
    # than failing; no end-to-end run would notice one gone missing.
    traced = _traced()
    assert traced
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _AFTER_CLI_IMPORT, repr(traced)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[] True True phase-ratio\n"


# command -> the preset it runs in the tests below
COMMAND_PRESETS = {
    "threshold": "threshold",
    "dephase-curve": "dephase_curve",
    "stability-sweep": "stability_slab",
    "budget": "budget",
}


def _run_preset(command: str, out: Path) -> int:
    scenario = PRESETS / f"{COMMAND_PRESETS[command]}.cfg"
    return cli.main([command, "--scenario", str(scenario), "--out", str(out)])


@pytest.mark.parametrize("command", ["dephase-curve", "stability-sweep"])
def test_csv_commands_call_csv_text_once(monkeypatch, tmp_path, capsys, command):
    calls = []

    def counted(*args):
        calls.append(args)
        return emit.csv_text(*args)

    monkeypatch.setattr(cli, "csv_text", counted)
    assert _run_preset(command, tmp_path) == 0
    assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", COMMAND_PRESETS)
def test_write_outputs_receives_only_str(monkeypatch, tmp_path, capsys, command):
    assert set(COMMAND_PRESETS) == set(cli._COMMANDS)
    received = []

    def recorded(out_dir, files):
        received.extend(files.values())
        return emit.write_outputs(out_dir, files)

    monkeypatch.setattr(cli, "write_outputs", recorded)
    assert _run_preset(command, tmp_path) == 0
    assert len(received) >= 2
    assert all(type(text) is str for text in received)
    capsys.readouterr()


@pytest.mark.parametrize("m", [101, 1001])
def test_timed_layer_sum_matches_explicit_sum(m):
    summary = bloch_sum(DephasingInput(phi_l=1e-5, phi_g=PHI_G, layer_count=m, t=30.0))
    s_x, s_y = explicit_layer_sum(1e-5, PHI_G, m, 30.0)
    assert summary.length == pytest.approx(math.hypot(s_x, s_y), rel=1e-9)


def test_timed_tau_max_cell_is_bracketed():
    # The paper's ~60 s interrogation cap: a cube of 200 sites at 1e-2 rad/s.
    result = solve_tau_max(TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE))
    assert result.bracketed
    assert result.converged


def test_timed_tau_max_cell_is_the_paper_figure_cube():
    # The timed problem: 201 layers of 200^2 atoms at the paper-figure phi_g'.
    rate = effective_phase_rate(PHI_G, 201, Convention.PAPER_FIGURE)
    assert rate == PHI_G * 200
    problem = TauMaxProblem(201, 40_000, 1e-2, rate)
    assert TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE) == problem


def test_timed_tau_max_cell_is_the_same_from_deck_text():
    # A deck gives the convention as scenario text, equal to but not the
    # constant that the benchmark's timed call passes.
    paper_figure = TauMaxProblem.cubic(200, 1e-2, Convention.PAPER_FIGURE)
    assert TauMaxProblem.cubic(200, 1e-2, "paper-figure") == paper_figure
    physical = TauMaxProblem.cubic(200, 1e-2, Convention.PHYSICAL)
    assert TauMaxProblem.cubic(200, 1e-2, "physical") == physical
    assert physical.phi_g == PHI_G


def test_budget_with_no_arguments_agrees_with_closed_form():
    assert assemble_budget().intensity.closed_form_agrees


# key -> another valid value, as scenario text, for each key that
# assemble_budget or sweep reads
_OTHER_VALUES = {
    "budget.n_site": "200",
    "budget.wall_distance": "0.1",
    "budget.disk_radius": "0.1",
    "budget.base_temperature": "300",
    "budget.example_temperature_step": "2",
    "budget.delta_t": "0.02",
    "budget.beam_waist": "200e-6",
    "budget.beam_separation": "1e-4",
    "budget.bias_field": "2",
    "budget.e_gradient": "2e4",
    "budget.baseline_e_field": "1",
    "budget.p2_linewidth": "0.1",
    "sweep.family": "slab",
    "sweep.sizes": "2,3,5",
    "sweep.phi_l": "1e-3",
    "sweep.atoms_per_layer": "20000",
}


def test_budget_with_no_arguments_is_the_default_scenario():
    assert assemble_budget() == assemble_budget(Scenario())


@pytest.mark.parametrize(
    "key", [key for key in scenario_module._KEYS if key.startswith(("budget.", "sweep."))]
)
def test_every_budget_and_sweep_key_is_read(key):
    # Each key set alone to another valid value changes the result; the
    # slab family is the one that reads sweep.atoms_per_layer.
    default, parse = scenario_module._KEYS[key]
    value = parse(_OTHER_VALUES[key])
    assert value != default
    base = Scenario(sweep_family="slab") if key == "sweep.atoms_per_layer" else Scenario()
    changed = base._replace(**{key.replace(".", "_"): value})
    run = assemble_budget if key.startswith("budget.") else sweep
    assert run(changed) != run(base)
