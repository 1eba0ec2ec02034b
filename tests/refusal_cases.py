"""Every scenario and command line that gravclock must refuse, in one table.

A case is (id, argv, scenario, phrases). It runs from a directory of its
own, where scenario (unless None) is first written as scenario.cfg; every
path in argv is relative, so a refusal reads the same wherever it runs.
`problems` checks the contract every case meets: exit 2, nothing on
stdout, one stderr line under 250 characters that starts PREFIX and holds
each phrase, no bare Python message or traceback, and the directory left
as it was found. tests/test_refusal_cases.py runs every case in-process;

    python tests/refusal_cases.py DIR

runs each in a fresh interpreter from DIR/<id>/run, writes its stderr, exit
code and leftover tree under DIR/<id>, and exits 1 if a case breaks the
contract. The table imports nothing from gravclock: each phrase is written
out, not derived from the code it checks.
"""

from __future__ import annotations

import errno
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIO, OUT, PREFIX = "scenario.cfg", "out", "gravclock: error: "
THRESHOLD, CURVE, SWEEP, BUDGET = "threshold", "dephase-curve", "stability-sweep", "budget"

# Every refusal of a scenario value names at least one scenario key.
SCENARIO_KEY = re.compile(
    r"(species|constants|geometry|interrogation|dephase|sweep|budget)\.[a-z0-9_]+"
)
# Python's own overflow messages, which name no quantity and no key.
BARE_MESSAGES = (
    "Numerical result out of range",
    "cannot convert float infinity to integer",
    "int too large to convert to float",
    "float division by zero",
    "math domain error",
)


def one_short_line(stderr: str) -> bool:
    """Whether stderr is one line, ended, of under 250 characters."""
    return stderr.count("\n") == 1 and stderr.endswith("\n") and len(stderr) < 250


class Case(NamedTuple):
    id: str
    argv: tuple[str, ...]
    scenario: bytes | None
    phrases: tuple[str, ...]


def _run(id: str, command: str, text: str, *phrases: str) -> Case:
    """command on a scenario.cfg of text's lines."""
    argv = (command, "--scenario", SCENARIO, "--out", OUT)
    return Case(id, argv, f"{text}\n".encode(), phrases)


def _keyed(id: str, command: str, text: str, *phrases: str) -> Case:
    """_run, whose refusal also names the first key of text."""
    return _run(id, command, text, *phrases, text.partition(" = ")[0])


def _long(id: str, command: str, lines: str, refusal: str, shown: int) -> Case:
    """A refused text of shown characters, on the last of lines, is cut, not echoed."""
    text = "# a long value\n" + lines
    line = text.count("\n") + 1
    return _run(id, command, text, f"{PREFIX}line {line}: ", refusal, f"... ({shown} characters)")


_LONG = "x" * 3000
_HUGE_INT = "1" + "0" * 400
# g d/c^2 out of range: c^2 underflows to 0, or g d overflows.
_TINY_C = "constants.c = 1e-200"
_HUGE_GD = "constants.g = 1e300\ngeometry.layer_spacing = 1e10"
# A finite phi_g whose paper-figure phi_g' = phi_g (m - 1) overflows at m ~ 1e15,
# a size below the 2^53 count bound.
_HUGE_RATE = (
    "species.omega0 = 1e300\nconstants.c = 1\nconvention = paper-figure\n"
    f"dephase.sizes = {10**15}\nsweep.sizes = {10**15}\nsweep.family = slab"
)
# A count past 2^53 is refused as it is read, naming the bound.
_PAST_COUNT = "must be at most 2^53 = 9007199254740992, got an integer of"
# A size n* small enough to pass, with omega0 tau n below float range.
_HUGE_GD_SQL = "constants.c = 1.6e-69\nconstants.g = 8e14\ngeometry.layer_spacing = 1.4e16"
# c^2 underflows to 0. The whole message is the phrase: it names the keys of
# g dh/c^2 and no key that the command does not read.
_REDSHIFT = (
    "constants.c = 1e-200\ngeometry.layer_spacing = 3.1234567890123457e-07\nbudget.n_site = 123"
)
_REDSHIFT_MESSAGE = (
    PREFIX + "redshift g dh/c^2 over dh = %s m is out of float range (c^2 = 0.0); it is set"
    " by constants.g, constants.c and geometry.layer_spacing (default"
    " species.magic_wavelength / 2)"
)
_MISSING, _NESTED_OUT = f"{'d' * 250}/nope.cfg", f"{OUT}/a/{'y' * 300}/b"

# fmt: off
CASES = (
    # A derived value out of float range names the quantity and the key behind it.
    _keyed("tau", THRESHOLD, "interrogation.tau = 1e-320", "c^2/(omega0 tau g d)"),
    _keyed("c", THRESHOLD, "constants.c = 1e200", "c^2/(omega0 tau g d)"),
    _keyed("magic_wavelength", THRESHOLD, "species.magic_wavelength = 1e-300",
           "total atom count n^2 (n+1)"),
    _keyed("c_threshold_underflow", THRESHOLD, _TINY_C, "size n* = 0.000e+00 rounds to n = 0"),
    # A subnormal magic wavelength halves to a layer spacing of 0.
    _keyed("magic_wavelength_threshold_underflow", THRESHOLD, "species.magic_wavelength = 5e-324",
           "layer_spacing must be positive"),
    _keyed("omega0_threshold_sql_overflow", THRESHOLD, f"species.omega0 = 5e-324\n{_HUGE_GD_SQL}",
           "QPN Allan deviation"),
    _keyed("base_temperature", BUDGET, "budget.base_temperature = 1e300",
           "BBR field weights T^4 W"),
    _keyed("delta_t", BUDGET, "budget.delta_t = 1e300", "BBR field weights T^4 W"),
    _keyed("e_gradient", BUDGET, "budget.e_gradient = 1e300", "DC Stark field"),
    _keyed("baseline_e_field", BUDGET, "budget.baseline_e_field = 1e300", "DC Stark field"),
    _keyed("bias_field", BUDGET, "budget.bias_field = 1e300", "second-order Zeeman shift"),
    _keyed("n_site_extent_overflow", BUDGET,
           "budget.n_site = 1000000\nspecies.magic_wavelength = 1e303", "extent delta_z"),
    _keyed("magic_wavelength_extent_underflow", BUDGET, "species.magic_wavelength = 5e-324",
           "extent delta_z"),
    _keyed("n_site_beyond_float_range", BUDGET, f"budget.n_site = {_HUGE_INT}",
           f"{_PAST_COUNT} 401 digits"),
    _keyed("beam_waist_underflow", BUDGET, "budget.beam_waist = 1e-311", "Rayleigh range"),
    _keyed("beam_separation_overflow", BUDGET, "budget.beam_separation = 1e300",
           "peak intensity change"),
    _keyed("magic_wavelength_separation_overflow", BUDGET,
           "species.magic_wavelength = 1e307\ngeometry.layer_spacing = 1e-9",
           "layer separation / Rayleigh range"),
    _keyed("c_budget_underflow", BUDGET, _TINY_C, "redshift g dh/c^2"),
    _keyed("c_dephase_underflow", CURVE, _TINY_C, "redshift g dh/c^2"),
    _keyed("gd_dephase_overflow", CURVE, _HUGE_GD, "redshift g dh/c^2"),
    _keyed("omega0_dephase_overflow", CURVE, "species.omega0 = 1e300\nconstants.c = 1e-100",
           "omega0 g d/c^2"),
    _keyed("c_sweep_underflow", SWEEP, _TINY_C, "redshift g dh/c^2"),
    _keyed("gd_sweep_overflow", SWEEP, _HUGE_GD, "redshift g dh/c^2"),
    _run("redshift_budget", BUDGET, _REDSHIFT, _REDSHIFT_MESSAGE % "3.841851850485186e-05"),
    _run("redshift_dephase_curve", CURVE, _REDSHIFT, _REDSHIFT_MESSAGE % "3.123456789012346e-07"),
    _run("redshift_stability_sweep", SWEEP, _REDSHIFT, _REDSHIFT_MESSAGE % "3.123456789012346e-07"),
    # A count past the 2^53 bound is refused as it is read.
    _keyed("sweep_sizes", SWEEP, f"sweep.sizes = 1,{_HUGE_INT}", f"{_PAST_COUNT} 401 digits"),
    _keyed("sweep_sizes_cubic_atoms", SWEEP, f"sweep.sizes = 1,{10**155}",
           f"{_PAST_COUNT} 156 digits"),
    _keyed("sweep_sizes_slab", SWEEP, f"sweep.sizes = 1,{10**320}\nsweep.family = slab",
           f"{_PAST_COUNT} 321 digits"),
    _keyed("sweep_atoms_per_layer_slab", SWEEP,
           f"sweep.atoms_per_layer = {10**320}\nsweep.family = slab", f"{_PAST_COUNT} 321 digits"),
    _run("sweep_atoms_per_layer_one_past_bound", SWEEP,
         f"sweep.family = slab\nsweep.atoms_per_layer = {2**53 + 1}",
         "line 2: invalid value for 'sweep.atoms_per_layer'",
         f"must be at most 2^53 = 9007199254740992, got {2**53 + 1}"),
    _keyed("dephase_sizes", CURVE, f"dephase.sizes = {_HUGE_INT}", f"{_PAST_COUNT} 401 digits"),
    # Under paper-figure, m x in dirichlet would overflow at these sizes, and
    # sin refuse it as a keyless math domain error.
    _keyed("dephase_sizes_paper_figure", CURVE,
           f"dephase.sizes = {10**200}\nconvention = paper-figure", f"{_PAST_COUNT} 201 digits"),
    _keyed("dephase_sizes_paper_figure_near_max", CURVE,
           f"dephase.sizes = {15 * 10**307}\nconvention = paper-figure",
           f"{_PAST_COUNT} 309 digits"),
    _run("dephase_sizes_paper_figure_near_max_on_line_2", CURVE,
         f"convention = paper-figure\ndephase.sizes = {15 * 10**307}",
         "line 2: invalid value for 'dephase.sizes'", f"{_PAST_COUNT} 309 digits"),
    _keyed("dephase_phi_l", CURVE, "dephase.phi_l = 1e300\ndephase.t_grid = 0,1e10", "phi_l t"),
    _keyed("dephase_g", CURVE, "constants.g = 1e300\ndephase.t_grid = 0,1e300", "phi_g' t",
           "dephase.t_grid"),
    _keyed("dephase_paper_figure_rate", CURVE, _HUGE_RATE, "phi_g' = phi_g (m - 1)"),
    _keyed("sweep_paper_figure_rate", SWEEP, _HUGE_RATE, "phi_g' = phi_g (m - 1)"),
    # A result out of float range (z_star, the BBR temperature limit, a sweep
    # sigma) is refused where it forms.
    _keyed("beam_waist_z_star", BUDGET, "budget.beam_waist = 1e300", "Rayleigh range"),
    _keyed("c_bbr_temperature_limit", BUDGET, "constants.c = 1e-100",
           "BBR differential up to the redshift signal"),
    _keyed("omega0_sweep_sigma", SWEEP, "species.omega0 = 1e-320\nsweep.sizes = 2",
           "SQL 1/(omega0 tau_max sqrt(N)) at size 2, phi_l 1e-06"),
    # A wall too far to lift the BBR differential to the signal, and a
    # Rayleigh range that underflows to 0 or overflows to inf.
    _keyed("wall_distance_bbr", BUDGET, "budget.wall_distance = 1000"),
    _keyed("beam_waist_subnormal", BUDGET, "budget.beam_waist = 1e-320"),
    _keyed("magic_wavelength_rayleigh_overflow", BUDGET, "species.magic_wavelength = 1e-320"),
    # A clock frequency omega0 / 2 pi of 0, or so small that the fractional
    # shifts overflow; a first-order Zeeman residual or a second-order Zeeman
    # shift out of float range; a redshift signal that no wall temperature reaches.
    _keyed("omega0_zero_frequency", BUDGET, "species.omega0 = 5e-324", "underflows to 0 Hz"),
    _keyed("omega0_subnormal_frequency", BUDGET, "species.omega0 = 1e-320",
           "is out of float range"),
    _keyed("p2_linewidth_zeeman_residual", BUDGET, "budget.p2_linewidth = 1.7976931348623157e308",
           "first-order Zeeman residual"),
    _keyed("omega0_second_order_zeeman", BUDGET, "species.omega0 = 1e300",
           "second-order Zeeman shift"),
    _keyed("magic_wavelength_no_wall", BUDGET, "species.magic_wavelength = 1e-30", "no wall lifts"),
    # Scenario text that the key table refuses as it reads it.
    _run("n_site_zero", THRESHOLD, "budget.n_site = 0",
         "line 1: invalid value for 'budget.n_site'"),
    _run("phi_l_linspace_two_fields", SWEEP, "sweep.phi_l = linspace:0:1",
         "line 1: invalid value for 'sweep.phi_l'", "expected linspace:a:b:n, got 'linspace:0:1'"),
    _run("t_grid_logspace_five_fields", CURVE, "dephase.t_grid = logspace:0:1:3:4",
         "line 1: invalid value for 'dephase.t_grid'",
         "expected logspace:a:b:n, got 'logspace:0:1:3:4'"),
    _long("long_tau", CURVE, "interrogation.tau = x" + "0" * 5000, "'interrogation.tau'", 5001),
    _long("long_phi_l_count", SWEEP, "sweep.phi_l = linspace:0:1:" + _LONG, "'sweep.phi_l'", 3000),
    _long("long_sizes_logspace", SWEEP, "sweep.sizes = logspace:" + _LONG, "'sweep.sizes'", 3009),
    _long("long_family", SWEEP, "sweep.family = " + _LONG, "'sweep.family'", 3000),
    _long("long_convention", THRESHOLD, "convention = " + _LONG, "'convention'", 3000),
    _long("long_species", THRESHOLD, "species = " + _LONG, "'species'", 3000),
    _long("long_budget_text", BUDGET, "output.budget_text = a/" + _LONG, "'output.budget_text'",
          3002),
    _long("long_budget_json_taken", BUDGET,
          f"output.budget_text = {_LONG}\noutput.budget_json = {_LONG}", "'output.budget_json'",
          3000),
    _long("long_key", THRESHOLD, _LONG + " = 1", "unknown key", 3000),
    _long("long_line", THRESHOLD, _LONG, "expected key = value", 3000),
    # An output name that is not a plain file name, or is reserved or taken.
    _run("name_absolute", BUDGET, "output.threshold = t.json\noutput.budget_json = /tmp/b.json",
         "line 2: ", "plain file"),
    _run("name_in_directory", BUDGET, "output.budget_json = sub/budget.json", "line 1: ",
         "plain file"),
    _run("name_backslash", BUDGET, "output.budget_json = sub\\budget.json", "line 1: ",
         "plain file"),
    _run("name_dot", BUDGET, "output.budget_json = .", "line 1: ", "plain file"),
    _run("name_dot_dot", BUDGET, "output.budget_json = ..", "line 1: ", "plain file"),
    _run("name_empty", BUDGET, "output.budget_json =", "line 1: ", "plain file"),
    _run("name_nul", THRESHOLD, "output.threshold = a\x00b", "line 1: ", "plain file"),
    _run("name_reserved", BUDGET, "output.threshold = run_record.json", "line 1: ", "reserved"),
    _run("name_taken", BUDGET, "output.budget_json = budget.txt", "line 1: ",
         "already the name of 'output.budget_text'"),
    _run("name_taken_after_comment", BUDGET,
         "output.budget_text = a\n# note\noutput.budget_json = a", "line 3: ", "already the name"),
    # A --scenario that cannot be read, and a --out that cannot be made: its
    # parents are removed again when a 300-byte component cannot be made.
    Case("scenario_not_utf8", (THRESHOLD, "--scenario", SCENARIO, "--out", OUT), b"\xff\n",
         (f"scenario file '{SCENARIO}' is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
          " in position 0: invalid start byte",)),
    Case("scenario_missing", (THRESHOLD, "--scenario", "missing.cfg", "--out", OUT), None,
         (f"cannot read --scenario 'missing.cfg': {os.strerror(errno.ENOENT)}",)),
    # The path is cut as a refused text is cut.
    Case("scenario_missing_long_path", (THRESHOLD, "--scenario", _MISSING, "--out", OUT), None,
         (f"{PREFIX}cannot read --scenario '{_MISSING[:80]}'... (259 characters):"
          f" {os.strerror(errno.ENOENT)}",)),
    Case("scenario_directory", (THRESHOLD, "--scenario", ".", "--out", OUT), None,
         (f"cannot read --scenario '.': {os.strerror(errno.EISDIR)}",)),
    Case("out_name_too_long", (THRESHOLD, "--out", "y" * 300), None,
         (f"{PREFIX}cannot make --out '{'y' * 80}'... (300 characters):"
          f" {os.strerror(errno.ENAMETOOLONG)}",)),
    Case("out_nested_name_too_long", (THRESHOLD, "--out", _NESTED_OUT), None,
         (f"{PREFIX}cannot make --out '{_NESTED_OUT[:80]}'... (308 characters):"
          f" {os.strerror(errno.ENAMETOOLONG)}",)),
)
# fmt: on


def write_scenario(case: Case, directory: Path) -> None:
    if case.scenario is not None:
        (directory / SCENARIO).write_bytes(case.scenario)


def tree(directory: Path) -> list[str]:
    """Every path under directory, relative to it, sorted."""
    return sorted(path.relative_to(directory).as_posix() for path in directory.rglob("*"))


def problems(case: Case, code: int, stdout: str, stderr: str, left: list[str]) -> list[str]:
    """How a run of case, which left the tree left, breaks the contract."""
    found = [f"exit code {code}"] if code != 2 else []
    found += [f"stdout {stdout[:200]!r}"] if stdout else []
    if not (one_short_line(stderr) and stderr.startswith(PREFIX)):
        found.append(f"stderr is not one short {PREFIX!r} line: {stderr[:400]!r}")
    found += [f"stderr lacks {phrase!r}" for phrase in case.phrases if phrase not in stderr]
    found += [f"stderr holds {bare!r}" for bare in (*BARE_MESSAGES, "Traceback") if bare in stderr]
    if left != ([] if case.scenario is None else [SCENARIO]):
        found.append(f"left {left}")
    return found


def record(case: Case, directory: Path) -> list[str]:
    """Runs case in a fresh interpreter from directory/run, writes its stderr,
    exit code and leftover tree under directory, and returns its problems."""
    run = directory / "run"
    run.mkdir(parents=True)
    write_scenario(case, run)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "gravclock.cli", *case.argv],
        cwd=run,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    left = tree(run)
    (directory / "stderr").write_bytes(result.stderr)
    (directory / "exit_code").write_text(f"{result.returncode}\n")
    (directory / "tree").write_text("".join(f"{name}\n" for name in left))
    stdout, stderr = (text.decode("utf-8", "replace") for text in (result.stdout, result.stderr))
    return problems(case, result.returncode, stdout, stderr, left)


def main(directory: Path, cases: tuple[Case, ...] = CASES) -> int:
    """Records every case under directory, which must not exist; 1 if any
    case breaks the contract, else 0."""
    directory.mkdir(parents=True)
    failed = 0
    for case in cases:
        found = record(case, directory / case.id)
        for problem in found:
            print(f"{case.id}: {problem}", file=sys.stderr)
        failed += bool(found)
    print(f"{len(cases) - failed} of {len(cases)} refusal cases refused as their rows say")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/refusal_cases.py DIR")
    sys.exit(main(Path(sys.argv[1])))
