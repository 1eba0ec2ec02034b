"""Command-line front end: threshold, dephase-curve, stability-sweep, budget.

Every run reads one scenario file (or the built-in defaults), computes in
memory, then writes all outputs plus a run_record.json manifest from a
single writer. Exit codes: 0 success, 2 scenario/validation failure (an
input whose arithmetic overflows, or a failing stdout, included), 3 a solver
flagged a point (non-bracketable or non-converged) and --allow-flags was not
given. A failing stderr does not change the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import __version__
from .core import per_layer_phase_rate, per_layer_sql, qpn_stability
from .dephasing import Convention, dephase_curve, effective_phase_rate
from .emit import RUN_RECORD_NAME, csv_text, fmt_float, json_text, run_record, write_outputs
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario
from .sweep import sweep
from .systematics import REFERENCE_INTENSITY_CHANGE, assemble_budget
from .thresholds import SIZE_KEYS, decoherence_atom_count, decoherence_sizes

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
        "convention": scenario.convention.value,
        "tau_s": tau,
        "layer_spacing_m": spacing,
    }
    lines = [
        f"convention      {scenario.convention.value}",
        f"tau             {fmt_float(tau)} s",
    ]
    for (name, note), n_star in zip(_THRESHOLD_NOTES.items(), sizes):
        n = round(n_star)
        if n < 1:
            raise ValueError(
                f"{name}: size n* = {n_star:.3e} rounds to n = 0; n is set by {SIZE_KEYS}"
            )
        atoms = decoherence_atom_count(n)
        if atoms > sys.float_info.max:
            raise OverflowError(
                f"{name}: total atom count n^2 (n+1) at n = {n:.3e} is out of float range;"
                f" n is set by {SIZE_KEYS}"
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

    # The t column, phi_l and the convention are the same in every size's
    # rows, so only ratio and contrast are formatted per row, and each row
    # is rendered as one line. The convention is applied once per size.
    phi_l, t_grid = scenario.dephase_phi_l, scenario.dephase_t_grid
    t_cells = [fmt_float(t) for t in t_grid]
    phi_l_cell, convention = fmt_float(phi_l), scenario.convention.value
    lines: list[str] = []
    for n_site in scenario.dephase_sizes:
        middle = f",{n_site},{phi_l_cell},{convention},"
        rate = effective_phase_rate(phi_g, n_site + 1, scenario.convention)
        curve = dephase_curve(phi_l, rate, n_site + 1, t_grid)
        lines += [
            f"{t_cell}{middle}{'' if ratio is None else fmt_float(ratio)},{fmt_float(contrast)}"
            for t_cell, (ratio, contrast) in zip(t_cells, curve)
        ]
    header = ["t_s", "n_site", "phi_l", "convention", "ratio", "contrast"]
    files = {scenario.output_dephase_curve: csv_text(header, lines)}
    text = f"dephase-curve: {len(lines)} rows ({len(scenario.dephase_sizes)} sizes)\n"
    return files, [], text


def _run_stability_sweep(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    family, convention = scenario.sweep_family, scenario.convention.value
    points = sweep(
        family,
        scenario.sweep_sizes,
        scenario.sweep_phi_l,
        scenario.convention,
        scenario.sweep_atoms_per_layer,
        scenario.species_obj(),
        scenario.consts_obj(),
        scenario.layer_spacing(),
    )
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
    lines = [
        ",".join(
            [
                family,
                str(point.size),
                fmt_float(point.phi_l),
                convention,
                fmt_float(point.tau_max_s),
                fmt_float(point.sigma_at_tau),
                fmt_float(point.sigma_at_1s),
                point.flag,
            ]
        )
        for point in points
    ]
    flags = [
        f"{family}:{point.size}:phi_l={fmt_float(point.phi_l)}: {point.flag}"
        for point in points
        if point.flag
    ]
    files = {scenario.output_stability_sweep: csv_text(header, lines)}
    text = f"stability-sweep: {len(lines)} rows, {len(flags)} flagged\n"
    return files, flags, text


def _budget_table(budget) -> str:
    headers = ["effect", "shift_hz", "fractional", "signal_hz", "passes"]
    rows = [
        [
            entry.name,
            f"{entry.differential_shift_hz:.3e}",
            f"{entry.fractional:.3e}",
            f"{entry.reference_signal_hz:.3e}",
            "pass" if entry.passes else "FAIL",
        ]
        for entry in budget.entries
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(row[i].ljust(widths[i]) for i in range(len(row))) for row in rows)
    return "\n".join(lines) + "\n"


def _run_budget(scenario: Scenario) -> tuple[dict[str, str], list[str], str]:
    # Each budget.X key is the keyword X of assemble_budget.
    conditions = {
        name.removeprefix("budget_"): value
        for name, value in zip(scenario._fields, scenario)
        if name.startswith("budget_")
    }
    budget = assemble_budget(
        species=scenario.species_obj(),
        consts=scenario.consts_obj(),
        layer_spacing=scenario.layer_spacing(),
        **conditions,
    )
    document = {
        "convention": scenario.convention.value,
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


# subcommand -> (runner, help); the parser and main() both read this table.
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
        raise ValueError(f"scenario file {path!r} is not UTF-8 text: {exc}") from None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="gravclock",
        description="Gravitational-redshift dephasing toolkit for optical lattice clocks",
    )
    parser.add_argument("--version", action="version", version=f"gravclock {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="FILE", help="scenario file (defaults apply)")
    common.add_argument("--out", metavar="DIR", default="out", help="output directory")
    common.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        help="override the scenario's phase-rate convention",
    )
    common.add_argument(
        "--allow-flags",
        action="store_true",
        help="exit 0 even when a solver flags non-bracketable or non-converged points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, scenario_text = _load_scenario(args.scenario)
        if args.convention is not None:
            scenario = scenario._replace(convention=Convention.from_wire(args.convention))
            scenario_text = serialize_scenario(scenario)
        runner, _ = _COMMANDS[args.command]
        files, flags, text = runner(scenario)
        files[RUN_RECORD_NAME] = json_text(run_record(scenario_text, __version__, files))
        write_outputs(args.out, files)
        _emit(sys.stdout, "stdout", text)
    except (ScenarioError, OSError, ValueError, ArithmeticError) as exc:
        _report(f"gravclock: error: {exc}")
        return EXIT_VALIDATION

    if flags and not args.allow_flags:
        for flag in flags:
            _report(f"gravclock: flagged: {flag}")
        return EXIT_FLAGGED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
