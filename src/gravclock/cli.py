"""Command-line front end: threshold, dephase-curve, stability-sweep, budget.

Every run reads one scenario file (or the built-in defaults), computes in
memory, then writes all outputs plus a run_record.json manifest from a
single writer. Exit codes: 0 success (--help and --version included), 2
misuse of the command line (raised as SystemExit after a usage line), or a
scenario/validation failure (an input whose arithmetic overflows, or a
failing stdout, included), 3 a solver flagged a point (non-bracketable or
non-converged) and --allow-flags was not given. A failing stderr does not
change the exit code. The _COMMANDS and _OPTIONS tables declare the
command line; cmdline parses argv and renders the usage and --help text
from them.
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import chain, takewhile

from . import __version__, cmdline
from .core import CONVENTIONS, SIZE_RATIO_KEYS, echo, per_layer_phase_rate, per_layer_sql
from .core import qpn_stability
from .dephasing import dephase_curve, effective_phase_rate
from .emit import FLOAT, RUN_RECORD_NAME, check_finite, csv_text, fmt_float, fmt_floats
from .emit import json_text, run_record, write_outputs
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario
from .sweep import sweep
from .systematics import REFERENCE_INTENSITY_CHANGE, assemble_budget
from .thresholds import decoherence_atom_count, decoherence_sizes

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FLAGGED = 3

# threshold.json block -> the definition it records
_THRESHOLD_NOTES = {
    "per_layer": "adjacent-layer SQL against the full-span redshift",
    "halves": "half-ensemble SQL (N/2 ~ n^3/2 atoms) against the full-span redshift;"
    " reconstructed criterion",
}


def _run_threshold(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    species = scenario.species_obj()
    spacing = scenario.layer_spacing()
    tau = scenario.interrogation_tau
    sizes = decoherence_sizes(species, scenario.consts_obj(), tau, spacing)

    document = {
        "species": species.name,
        "convention": scenario.convention,
        "tau_s": tau,
        "layer_spacing_m": spacing,
    }
    lines = [
        f"convention      {scenario.convention}",
        f"tau             {fmt_float(tau)} s",
    ]
    for (name, note), n_star in zip(_THRESHOLD_NOTES.items(), sizes):
        n = round(n_star)
        if n < 1:
            raise ValueError(
                f"{name}: size n* = {n_star:.3e} rounds to n = 0; n is set by {SIZE_RATIO_KEYS}"
            )
        atoms = decoherence_atom_count(n)
        if atoms > sys.float_info.max:
            raise OverflowError(
                f"{name}: total atom count n^2 (n+1) at n = {n:.3e} is out of float range;"
                f" n is set by {SIZE_RATIO_KEYS}"
            )
        document[name] = {
            "n_star": n_star,
            "n_int": n,
            "total_atoms": atoms,
            "per_layer_sql": per_layer_sql(species, tau, n),
            "ensemble_qpn": qpn_stability(species, tau, atoms, scenario.interrogation_xi_w_sq),
            "definition": note,
        }
        lines.append(f"{name:<15} n* = {n_star:.3f}  n = {n}  N = {atoms}")
    text = "\n".join(lines) + "\n"
    return {scenario.output_threshold: json_text(document)}, [], text


def _run_dephase_curve(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    species = scenario.species_obj()
    consts = scenario.consts_obj()
    phi_g = per_layer_phase_rate(consts, species, scenario.layer_spacing())

    # The t cells are formatted once; each size's block fills its row templates
    # with t cells, ratios and contrasts interleaved. The None ratios (phi_l t
    # == 0) lead, as |phi_l t| grows with t, and "%.0s" leaves their cells
    # empty; the finiteness check runs in row order, so a None after them fails it.
    phi_l, t_grid, sizes = scenario.dephase_phi_l, scenario.dephase_t_grid, scenario.dephase_sizes
    t_cells = fmt_floats(t_grid)
    phi_l_cell, convention = fmt_float(phi_l), scenario.convention
    blocks = []
    for n_site in sizes:
        rate = effective_phase_rate(phi_g, n_site + 1, convention)
        ratios, contrasts = dephase_curve(phi_l, rate, n_site + 1, t_grid)
        empty = len(list(takewhile(lambda ratio: ratio is None, ratios)))
        check_finite(contrasts[:empty])
        check_finite(ratios[empty:], contrasts[empty:])
        cells = [None] * (3 * len(t_cells))
        cells[::3], cells[1::3], cells[2::3] = t_cells, ratios, contrasts
        row = f"%s,{n_site},{phi_l_cell},{convention},{FLOAT},{FLOAT}"
        blank = f"%s,{n_site},{phi_l_cell},{convention},%.0s,{FLOAT}"
        blocks.append(([blank] * empty + [row] * (len(t_cells) - empty), cells))
    header = ["t_s", "n_site", "phi_l", "convention", "ratio", "contrast"]
    files = {scenario.output_dephase_curve: csv_text(header, blocks)}
    text = f"dephase-curve: {len(t_cells) * len(sizes)} rows ({len(sizes)} sizes)\n"
    return files, [], text


def _run_stability_sweep(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    family, convention, sizes = scenario.sweep_family, scenario.convention, scenario.sweep_sizes
    points = sweep(scenario)
    header = [
        "geometry",
        "size",
        "phi_l",
        "convention",
        "tau_max_s",
        "sigma_at_tau",
        "sigma_at_1s",
        "flag",
    ]
    # Each phi_l cell is formatted once into its row template, repeated per
    # size as the points are size-major; a point's other cells fill them.
    cells = list(chain.from_iterable(points))
    del cells[1::6]  # phi_l: size, tau_max_s, sigma_at_tau, sigma_at_1s, flag remain
    check_finite(cells[1::5], cells[2::5], cells[3::5])
    phi_l_cells = fmt_floats(scenario.sweep_phi_l)
    rows = [f"{family},%s,{cell},{convention},{FLOAT},{FLOAT},{FLOAT},%s" for cell in phi_l_cells]
    flags = [
        f"{family}:{point.size}:phi_l={fmt_float(point.phi_l)}: {point.flag}"
        for point in points
        if point.flag
    ]
    files = {scenario.output_stability_sweep: csv_text(header, [(rows * len(sizes), cells)])}
    return files, flags, f"stability-sweep: {len(points)} rows, {len(flags)} flagged\n"


def _budget_table(budget) -> str:
    headers = ["effect", "shift_hz", "fractional", "signal_hz", "passes"]
    rows = [
        [
            entry.name,
            f"{entry.differential_shift_hz:.3e}",
            f"{entry.fractional:.3e}",
            f"{budget.delta_nu:.3e}",
            "pass" if entry.passes else "FAIL",
        ]
        for entry in budget.entries
    ]
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    table = [headers, ["-" * width for width in widths], *rows]
    return "\n".join("  ".join(map(str.ljust, row, widths)) for row in table) + "\n"


def _run_budget(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    budget = assemble_budget(scenario)
    document = {
        "convention": scenario.convention,
        "n_site": scenario.budget_n_site,
        "signal": {
            "delta_z_m": budget.delta_z,
            "delta_nu_hz": budget.delta_nu,
            "fractional": budget.fractional,
        },
        "requirements": {
            "allowed_b_gradient_g_per_m": budget.allowed_b_gradient,
            "p2_calibration_shift_hz": budget.p2_calibration_shift_hz,
            "allowed_e_gradient_v_per_m2": budget.allowed_e_gradient,
            "temperature_uniformity_k": budget.temperature_limit_k,
        },
        "lattice_intensity": {
            "computed_max_change": budget.intensity.max_change,
            "reference_change": REFERENCE_INTENSITY_CHANGE,
            "z_star_m": budget.intensity.z_star,
            "stationarity_residual": budget.intensity.stationarity_residual,
            "closed_form_agrees": budget.intensity.closed_form_agrees,
        },
        "bbr_example": {
            "t1_k": scenario.budget_base_temperature,
            "t2_k": scenario.budget_base_temperature + scenario.budget_example_temperature_step,
            "ratio_minus_one": budget.bbr_example_ratio_minus_one,
            "shift_fractional": budget.bbr_example_shift_fractional,
        },
        "entries": [
            {
                "name": entry.name,
                "shift_hz": entry.differential_shift_hz,
                "fractional": entry.fractional,
                "passes": entry.passes,
                "note": entry.note,
            }
            for entry in budget.entries
        ],
        "all_pass": budget.all_pass,
    }
    table = _budget_table(budget)
    files = {
        scenario.output_budget_json: json_text(document),
        scenario.output_budget_text: table,
    }
    return files, [], table


# command -> (runner, help); cmdline and main() both read this table.
_COMMANDS = {
    "threshold": (_run_threshold, "critical lattice sizes"),
    "dephase-curve": (_run_dephase_curve, "phase-recovery ratio vs time"),
    "stability-sweep": (_run_stability_sweep, "best 1 s stability grids"),
    "budget": (_run_budget, "systematic-shift budget"),
}


def _load_scenario(path: str | None) -> tuple[Scenario, str]:
    if path is None:
        scenario = Scenario()
        return scenario, serialize_scenario(scenario)
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"scenario file {echo(path)} is not UTF-8 text: {exc}") from None
    except OSError as exc:  # missing, a directory, a name too long, unreadable
        raise OSError(f"cannot read --scenario {echo(path)}: {exc.strerror}") from None
    return parse_scenario(text), text


def _emit(stream, name: str, text: str) -> None:
    """Write and flush text to the standard stream name, or raise OSError. A
    failing stream is first pointed at os.devnull, so that the flush at exit
    cannot fail again (the SIGPIPE note of the signal module's docs)."""
    try:
        stream.write(text)
        stream.flush()
    except AttributeError:  # a descriptor closed at start-up leaves it None
        raise OSError(f"writing {name}: the file descriptor is closed") from None
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise OSError(f"writing {name}: {exc}") from None


def _report(line: str) -> None:
    """One line to stderr; a failing stderr does not change the exit code."""
    with contextlib.suppress(OSError):
        _emit(sys.stderr, "stderr", line + "\n")


# option -> (metavar, choices, help), a None metavar marking a flag. Every
# command takes every option; cmdline reads argv and renders --help from
# this table and _COMMANDS.
_OPTIONS = {
    "--scenario": ("FILE", None, "scenario file (defaults apply)"),
    "--out": ("DIR", None, "output directory"),
    "--convention": (
        "{" + ",".join(CONVENTIONS) + "}",
        CONVENTIONS,
        "override the scenario's phase-rate convention",
    ),
    "--allow-flags": (
        None,
        None,
        "exit 0 even when a solver flags non-bracketable or non-converged points",
    ),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, options = cmdline.parse(argv, _COMMANDS, _OPTIONS)
    except cmdline.UsageExit as usage:  # --help, --version, or misuse of the command line
        stream, name = (sys.stderr, "stderr") if usage.misuse else (sys.stdout, "stdout")
        with contextlib.suppress(OSError):
            _emit(stream, name, str(usage))
        raise SystemExit(EXIT_VALIDATION if usage.misuse else EXIT_OK) from None
    try:
        scenario, scenario_text = _load_scenario(options.get("--scenario"))
        if "--convention" in options:
            scenario = scenario._replace(convention=options["--convention"])
            scenario_text = serialize_scenario(scenario)
        runner, _ = _COMMANDS[command]
        files, flags, text = runner(scenario)
        files[RUN_RECORD_NAME] = json_text(run_record(scenario_text, __version__, files))
        out = options.get("--out", "out")
        try:
            write_outputs(out, files)
        except OSError as exc:  # a failure to make out, or a parent of it, names that path
            if exc.filename is None or not out.startswith(exc.filename):
                raise
            raise OSError(f"cannot make --out {echo(out)}: {exc.strerror}") from None
        _emit(sys.stdout, "stdout", text)
    except (ScenarioError, OSError, ValueError, ArithmeticError) as exc:
        _report(f"gravclock: error: {exc}")
        return EXIT_VALIDATION

    if flags and "--allow-flags" not in options:
        for flag in flags:
            _report(f"gravclock: flagged: {flag}")
        return EXIT_FLAGGED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
