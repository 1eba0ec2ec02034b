from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_scenario import _scenarios

from gravclock import emit, thresholds
from gravclock.cli import main
from gravclock.core import echo
from gravclock.scenario import serialize_scenario

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def run(args: list[str], capsys=None) -> int:
    code = main(args)
    if capsys is not None:
        capsys.readouterr()
    return code


def test_threshold_default_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["threshold", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "497" in stdout
    document = json.loads((out / "threshold.json").read_text())
    assert document["per_layer"]["n_int"] == 497
    assert document["halves"]["n_int"] == 165
    assert document["convention"] == "physical"
    assert document["per_layer"]["total_atoms"] == 123010482


def test_threshold_convention_is_metadata(tmp_path, capsys):
    # The size equation uses the physical per-layer redshift directly, so the
    # convention changes only the label.
    blocks = []
    for convention in ("physical", "paper-figure"):
        out = tmp_path / convention
        assert main(["threshold", "--convention", convention, "--out", str(out)]) == 0
        document = json.loads((out / "threshold.json").read_text())
        assert document["convention"] == convention
        blocks.append((document["per_layer"], document["halves"]))
    capsys.readouterr()
    assert blocks[0] == blocks[1]


def test_threshold_scenario_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["threshold", "--scenario", str(PRESETS / "threshold.cfg"), "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert (out / "run_record.json").exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    scenario = str(PRESETS / "budget.cfg")
    assert main(["budget", "--scenario", scenario, "--out", str(out_a)]) == 0
    assert main(["budget", "--scenario", scenario, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert read_tree(out_a) == read_tree(out_b)


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "tiny.cfg"
    scenario.write_text(
        "convention = paper-figure\n"
        "sweep.family = cubic\n"
        "sweep.sizes = 10,100\n"
        "sweep.phi_l = 1e-4,1e-2\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["stability-sweep", "--scenario", str(scenario), "--out", str(out_a)]) == 0
    assert main(["stability-sweep", "--scenario", str(scenario), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert read_tree(out_a) == read_tree(out_b)


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("budget.n_site = 0\n")
    assert main(["threshold", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 1: invalid value for 'budget.n_site'" in err


def _scenario_refusal(tmp_path, capsys, path: str) -> str:
    """The stderr of a run on --scenario path, which must exit 2 with one
    line under 250 characters and make nothing under --out."""
    assert main(["threshold", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 250
    assert not (tmp_path / "o").exists()
    return captured.err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    # The refusal names the option, cuts the path as a refused text is cut,
    # and gives the reason the OS gave.
    missing = str(tmp_path / ("d" * 250) / "nope.cfg")
    assert _scenario_refusal(tmp_path, capsys, missing) == (
        f"gravclock: error: cannot read --scenario {echo(missing)}:"
        f" {os.strerror(errno.ENOENT)}\n"
    )


@pytest.mark.parametrize("kind", ["directory", "name too long", "not UTF-8"])
def test_unreadable_scenario_is_one_line_naming_it(tmp_path, capsys, kind):
    folder = tmp_path / ("d" * 250)
    folder.mkdir()
    (folder / "bad.cfg").write_bytes(b"\xff\n")
    path = {
        "directory": folder,
        "name too long": tmp_path / ("x" * 300),
        "not UTF-8": folder / "bad.cfg",
    }[kind]
    shown = echo(str(path))
    reason = {
        "directory": f"cannot read --scenario {shown}: {os.strerror(errno.EISDIR)}",
        "name too long": f"cannot read --scenario {shown}: {os.strerror(errno.ENAMETOOLONG)}",
        "not UTF-8": f"scenario file {shown} is not UTF-8 text: 'utf-8' codec can't decode"
        " byte 0xff in position 0: invalid start byte",
    }[kind]
    assert _scenario_refusal(tmp_path, capsys, str(path)) == f"gravclock: error: {reason}\n"


def test_non_utf8_scenario_file_exits_2_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\n")
    assert main(["threshold", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gravclock: error:")
    assert echo(str(bad)) in err and "UTF-8" in err
    assert not (tmp_path / "o").exists()


def test_byte_order_mark_changes_only_the_scenario_digest(tmp_path, capsys):
    # A scenario saved with a leading BOM gives the same files; run_record.json
    # hashes the text as read, so only its scenario_sha256 differs.
    text = (PRESETS / "budget.cfg").read_bytes()
    trees = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        scenario = tmp_path / f"{name}.cfg"
        scenario.write_bytes(data)
        out = tmp_path / f"{name}-out"
        assert main(["budget", "--scenario", str(scenario), "--out", str(out)]) == 0
        record = json.loads((out / emit.RUN_RECORD_NAME).read_text())
        assert record.pop("scenario_sha256") == hashlib.sha256(data).hexdigest()
        trees.append((read_tree(out), record))
    capsys.readouterr()
    (plain, plain_record), (bom, bom_record) = trees
    assert plain_record == bom_record
    del plain[emit.RUN_RECORD_NAME], bom[emit.RUN_RECORD_NAME]
    assert plain == bom


_LONG = "x" * 3000


@pytest.mark.parametrize(
    "command, line, refusal, shown",
    [
        ("dephase-curve", "interrogation.tau = x" + "0" * 5000, "'interrogation.tau'", 5001),
        ("stability-sweep", "sweep.phi_l = linspace:0:1:" + _LONG, "'sweep.phi_l'", 3000),
        ("stability-sweep", "sweep.sizes = logspace:" + _LONG, "'sweep.sizes'", 3009),
        ("stability-sweep", "sweep.family = " + _LONG, "'sweep.family'", 3000),
        ("threshold", "convention = " + _LONG, "'convention'", 3000),
        ("threshold", "species = " + _LONG, "'species'", 3000),
        ("budget", "output.budget_text = a/" + _LONG, "'output.budget_text'", 3002),
        (
            "budget",
            f"output.budget_text = {_LONG}\noutput.budget_json = {_LONG}",
            "'output.budget_json'",
            3000,
        ),
        ("threshold", _LONG + " = 1", "unknown key", 3000),
        ("threshold", _LONG, "expected key = value", 3000),
    ],
)
def test_long_refused_text_is_cut_not_echoed(tmp_path, capsys, command, line, refusal, shown):
    # The refusal names the line and the key and shows a prefix of the
    # refused text with its length, in one short line.
    scenario = tmp_path / "long.cfg"
    scenario.write_text("# a long value\n" + line + "\n")
    assert main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gravclock: error: line ")
    assert refusal in captured.err and f"... ({shown} characters)" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 250
    assert not (tmp_path / "o").exists()


def test_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("keep\n")
    assert main(["budget", "--out", str(blocker)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gravclock: error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["not_a_dir"]


@pytest.mark.parametrize("nested", [False, True], ids=["name", "nested"])
def test_out_name_too_long_is_one_line_naming_out(tmp_path, capsys, nested):
    # A failure to make --out names the option, cuts the path as a refused
    # text is cut, and gives the reason the OS gave.
    name = "y" * 300
    out = str(tmp_path / "a" / name / "b") if nested else str(tmp_path / name)
    assert main(["threshold", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gravclock: error: cannot make --out ")
    assert f"... ({len(out)} characters): " in captured.err
    assert captured.err.endswith(f": {os.strerror(errno.ENAMETOOLONG)}\n")
    assert captured.err.count("\n") == 1 and len(captured.err) < 250
    assert not any(path.name == name for path in tmp_path.rglob("*"))


@pytest.mark.parametrize("parent", ["", "kept"])
def test_failed_nested_out_removes_the_directories_it_made(tmp_path, capsys, parent):
    # A --out that cannot be made leaves none of the parents made for it;
    # one that existed before the run is kept as it was.
    if parent:
        (tmp_path / parent).mkdir()
    out = tmp_path / parent / "a" / ("y" * 300) / "b"
    assert main(["threshold", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("gravclock: error: cannot make --out ")
    assert [p.name for p in tmp_path.rglob("*")] == ([parent] if parent else [])


_REDSHIFT_OVERFLOW = (
    "constants.c = 1e-200\ngeometry.layer_spacing = 3.1234567890123457e-07\nbudget.n_site = 123\n"
)


@pytest.mark.parametrize("command", ["budget", "stability-sweep", "dephase-curve"])
def test_redshift_refusal_is_one_short_line_naming_its_keys(tmp_path, capsys, command):
    # c^2 underflows to 0; the refusal names the keys of g dh/c^2 and no key
    # that the command does not read.
    scenario = tmp_path / "redshift.cfg"
    scenario.write_text(_REDSHIFT_OVERFLOW)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err = captured.err
    assert err.startswith("gravclock: error: redshift g dh/c^2 over dh = ")
    assert err.count("\n") == 1 and len(err) < 250
    assert all(key in err for key in ("constants.g", "constants.c", "geometry.layer_spacing"))
    assert command == "budget" or "budget.n_site" not in err


@pytest.mark.parametrize(
    "text",
    [
        "budget.wall_distance = 1000",
        "budget.beam_waist = 1e-320",
        "species.magic_wavelength = 1e-320",
    ],
)
def test_budget_refusal_is_one_short_line_naming_its_key(tmp_path, capsys, text):
    # A wall too far to lift the BBR differential to the signal, and a
    # Rayleigh range that underflows to 0 or overflows to inf.
    scenario = tmp_path / "budget.cfg"
    scenario.write_text(text + "\n")
    out = tmp_path / "out"
    assert main(["budget", "--scenario", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gravclock: error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 250
    assert text.split(" = ")[0] in captured.err
    assert not out.exists()


# The argv contract. Line wrapping is not part of it (it follows $COLUMNS and
# may break at a hyphen), so help text is compared with its whitespace removed.
_COMMAND_HELP = {
    "threshold": "critical lattice sizes",
    "dephase-curve": "phase-recovery ratio vs time",
    "stability-sweep": "best 1 s stability grids",
    "budget": "systematic-shift budget",
}
_OPTION_HELP = {
    "--scenario FILE": "scenario file (defaults apply)",
    "--out DIR": "output directory",
    "--convention {physical,paper-figure}": "override the scenario's phase-rate convention",
    "--allow-flags": "exit 0 even when a solver flags non-bracketable or non-converged points",
}


def _usage_exit(argv: list[str], capsys) -> tuple[object, str, str]:
    """main(argv) that ends in SystemExit: its code, stdout and stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def _squeezed(text: str) -> str:
    return "".join(text.split())


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_top_level_help_lists_every_command(capsys, flag):
    code, out, err = _usage_exit([flag], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: gravclock ")
    text = _squeezed(out)
    for command, help_text in _COMMAND_HELP.items():
        assert _squeezed(command + help_text) in text
    assert "-h,--help" in text and "--version" in text


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", list(_COMMAND_HELP))
def test_command_help_lists_every_option(capsys, command, flag):
    code, out, err = _usage_exit([command, "--out", "unused", flag], capsys)
    assert (code, err) == (0, "")
    assert _squeezed(out).startswith(f"usage:gravclock{command}[")
    text = _squeezed(out)
    for invocation, help_text in _OPTION_HELP.items():
        assert _squeezed(invocation + help_text) in text


@pytest.mark.parametrize("flag", ["--version", "--vers"])
def test_version(capsys, flag):
    assert _usage_exit([flag], capsys) == (0, "gravclock 0.1.0\n", "")


@pytest.mark.parametrize(
    "options",
    [
        ["--scenario", "{preset}", "--convention", "paper-figure", "--out", "{out}"],
        ["--scenario={preset}", "--convention=paper-figure", "--out={out}"],
        ["--scen", "{preset}", "--conv=paper-figure", "--o", "{out}"],
        # The last occurrence of a repeated option wins.
        ["--convention", "physical", "--out", "{other}", "--convention=paper-figure",
         "--scenario", "{preset}", "--out", "{out}"],
    ],
    ids=["separate", "joined", "prefixes", "repeated"],
)
def test_option_spellings_run_alike(tmp_path, capsys, options):
    fields = {
        "preset": str(PRESETS / "threshold.cfg"),
        "out": str(tmp_path / "out"),
        "other": str(tmp_path / "other"),
    }
    assert main(["threshold", *(option.format(**fields) for option in options)]) == 0
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert json.loads((tmp_path / "out" / "threshold.json").read_text())["convention"] == (
        "paper-figure"
    )


@pytest.mark.parametrize("flag", ["--allow-flags", "--allow"])
def test_allow_flags_by_its_prefix(tmp_path, capsys, flag):
    scenario = tmp_path / "flagged.cfg"
    scenario.write_text("sweep.family = slab\nsweep.sizes = 1,2\nsweep.phi_l = 0\n")
    argv = ["stability-sweep", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    assert main([*argv, flag]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),
        (["bogus"], "'bogus'"),
        (["threshold", "--bogus"], "--bogus"),
        (["threshold", "stray"], "stray"),
        (["threshold", "--out"], "--out"),
        (["threshold", "--scenario", "--out", "x"], "--scenario"),
        (["threshold", "--convention", "sideways"], "'sideways'"),
        (["threshold", "--allow-flags=1"], "--allow-flags"),
        (["--allow-flags", "threshold"], "--allow-flags"),
        (["threshold", "--version"], "--version"),
    ],
    ids=[
        "no_command",
        "unknown_command",
        "unknown_option",
        "stray_argument",
        "missing_value",
        "option_as_value",
        "bad_convention",
        "value_for_flag",
        "option_before_command",
        "version_after_command",
    ],
)
def test_misuse_exits_2_with_usage_and_a_named_argument(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    code, out, err = _usage_exit(argv, capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: gravclock")
    assert re.match(r"gravclock( [a-z-]+)?: error: ", lines[-1]) and named in lines[-1]
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_fresh_process_usage_exit_codes(tmp_path):
    for argv, code, stream in (
        (["--help"], 0, "stdout"),
        (["threshold", "-h"], 0, "stdout"),
        (["--version"], 0, "stdout"),
        (["threshold", "--convention", "sideways"], 2, "stderr"),
        ([], 2, "stderr"),
    ):
        result = _fresh_python(_MAIN, *argv)
        assert result.returncode == code, argv
        assert getattr(result, stream) and not getattr(
            result, "stderr" if stream == "stdout" else "stdout"
        ), argv


def _fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )


def test_commands_run_without_numpy_or_scipy(tmp_path):
    # The runtime is stdlib only: with numpy and scipy made unimportable,
    # every command runs on its preset, and a float logspace: grid parses.
    logspace = tmp_path / "logspace.cfg"
    logspace.write_text("sweep.sizes = 10,100\nsweep.phi_l = logspace:1e-6:1e-2:3\n")
    runs = [
        ("threshold", PRESETS / "threshold.cfg"),
        ("budget", PRESETS / "budget.cfg"),
        ("dephase-curve", PRESETS / "dephase_curve.cfg"),
        ("stability-sweep", PRESETS / "stability_cubic.cfg"),
        ("stability-sweep", PRESETS / "stability_slab.cfg"),
        ("stability-sweep", logspace),
    ]
    code = (
        "import sys\nsys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from gravclock.cli import main\nsys.exit(main())"
    )
    for i, (command, scenario) in enumerate(runs):
        argv = (command, "--scenario", str(scenario), "--out", str(tmp_path / str(i)))
        result = _fresh_python(code, *argv)
        assert result.returncode == 0, (argv, result.stderr)


_HUGE_INT = "1" + "0" * 400


# Python's own overflow messages, which name no quantity and no key.
_BARE_MESSAGES = (
    "Numerical result out of range",
    "cannot convert float infinity to integer",
    "int too large to convert to float",
    "float division by zero",
    "math domain error",
)
# g d/c^2 out of range: c^2 underflows to 0, or g d overflows.
_TINY_C = "constants.c = 1e-200"
_HUGE_GD = "constants.g = 1e300\ngeometry.layer_spacing = 1e10"
# A finite phi_g whose paper-figure phi_g' = phi_g (m - 1) overflows at m ~ 1e20.
_HUGE_RATE = (
    "species.omega0 = 1e300\nconstants.c = 1\nconvention = paper-figure\n"
    f"dephase.sizes = {10**20}\nsweep.sizes = {10**20}\nsweep.family = slab"
)
# A size n* small enough to pass, with omega0 tau n below float range.
_HUGE_GD_SQL = "constants.c = 1.6e-69\nconstants.g = 8e14\ngeometry.layer_spacing = 1.4e16"


@pytest.mark.parametrize(
    "command, text, quantity",
    [
        ("threshold", "interrogation.tau = 1e-320", "c^2/(omega0 tau g d)"),
        ("threshold", "constants.c = 1e200", "c^2/(omega0 tau g d)"),
        ("threshold", "species.magic_wavelength = 1e-300", "total atom count n^2 (n+1)"),
        ("threshold", _TINY_C, "size n* = 0.000e+00 rounds to n = 0"),
        ("threshold", "species.magic_wavelength = 5e-324", "layer_spacing must be positive"),
        ("threshold", f"species.omega0 = 5e-324\n{_HUGE_GD_SQL}", "QPN Allan deviation"),
        ("budget", "budget.base_temperature = 1e300", "BBR field weights T^4 W"),
        ("budget", "budget.delta_t = 1e300", "BBR field weights T^4 W"),
        ("budget", "budget.e_gradient = 1e300", "DC Stark field"),
        ("budget", "budget.baseline_e_field = 1e300", "DC Stark field"),
        ("budget", "budget.bias_field = 1e300", "second-order Zeeman shift"),
        ("budget", "budget.n_site = 1000000\nspecies.magic_wavelength = 1e303", "extent delta_z"),
        ("budget", "species.magic_wavelength = 5e-324", "extent delta_z"),
        ("budget", f"budget.n_site = {_HUGE_INT}", "extent delta_z"),
        ("budget", "budget.beam_waist = 1e-311", "Rayleigh range"),
        ("budget", "budget.beam_separation = 1e300", "peak intensity change"),
        (
            "budget",
            "species.magic_wavelength = 1e307\ngeometry.layer_spacing = 1e-9",
            "layer separation / Rayleigh range",
        ),
        ("budget", _TINY_C, "redshift g dh/c^2"),
        ("dephase-curve", _TINY_C, "redshift g dh/c^2"),
        ("dephase-curve", _HUGE_GD, "redshift g dh/c^2"),
        ("dephase-curve", "species.omega0 = 1e300\nconstants.c = 1e-100", "omega0 g d/c^2"),
        ("stability-sweep", _TINY_C, "redshift g dh/c^2"),
        ("stability-sweep", _HUGE_GD, "redshift g dh/c^2"),
        ("stability-sweep", f"sweep.sizes = 1,{_HUGE_INT}", "size is an integer of 401 digits"),
        ("stability-sweep", f"sweep.sizes = 1,{10**155}", "size is an integer of 156 digits"),
        (
            "stability-sweep",
            f"sweep.sizes = 1,{10**320}\nsweep.family = slab",
            "size is an integer of 321 digits",
        ),
        (
            "stability-sweep",
            f"sweep.atoms_per_layer = {10**320}\nsweep.family = slab",
            "an integer of 321 digits, out of float range",
        ),
        (
            "dephase-curve",
            f"dephase.sizes = {_HUGE_INT}",
            "layer count is an integer of 401 digits",
        ),
        ("dephase-curve", "dephase.phi_l = 1e300\ndephase.t_grid = 0,1e10", "phi_l t"),
        ("dephase-curve", "constants.g = 1e300\ndephase.t_grid = 0,1e300", "phi_g' t"),
        ("dephase-curve", _HUGE_RATE, "phi_g' = phi_g (m - 1)"),
        ("stability-sweep", _HUGE_RATE, "phi_g' = phi_g (m - 1)"),
    ],
    ids=[
        "tau",
        "c",
        "magic_wavelength",
        "c_threshold_underflow",
        "magic_wavelength_threshold_underflow",
        "omega0_threshold_sql_overflow",
        "base_temperature",
        "delta_t",
        "e_gradient",
        "baseline_e_field",
        "bias_field",
        "n_site_extent_overflow",
        "magic_wavelength_extent_underflow",
        "n_site_beyond_float_range",
        "beam_waist_underflow",
        "beam_separation_overflow",
        "magic_wavelength_separation_overflow",
        "c_budget_underflow",
        "c_dephase_underflow",
        "gd_dephase_overflow",
        "omega0_dephase_overflow",
        "c_sweep_underflow",
        "gd_sweep_overflow",
        "sweep_sizes",
        "sweep_sizes_cubic_atoms",
        "sweep_sizes_slab",
        "sweep_atoms_per_layer_slab",
        "dephase_sizes",
        "dephase_phi_l",
        "dephase_g",
        "dephase_paper_figure_rate",
        "sweep_paper_figure_rate",
    ],
)
def test_overflow_exits_2_without_traceback(tmp_path, capsys, command, text, quantity):
    scenario = tmp_path / "overflow.cfg"
    scenario.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gravclock: error:")
    assert "Traceback" not in err
    assert not out.exists()
    # The message names the quantity that overflowed and the key that fed it.
    assert quantity in err
    assert text.split(" = ")[0] in err
    assert not any(bare in err for bare in _BARE_MESSAGES)


@pytest.mark.parametrize(
    "command, text, quantity",
    [
        ("budget", "budget.beam_waist = 1e300", "Rayleigh range"),
        ("budget", "constants.c = 1e-100", "BBR differential up to the redshift signal"),
        (
            "stability-sweep",
            "species.omega0 = 1e-320\nsweep.sizes = 2",
            "SQL 1/(omega0 tau_max sqrt(N)) at size 2, phi_l 1e-06",
        ),
    ],
    ids=["beam_waist", "c", "omega0"],
)
def test_non_finite_result_exits_2_and_writes_nothing(tmp_path, capsys, command, text, quantity):
    # A result out of float range (z_star, the BBR temperature limit, a sweep
    # sigma) is refused where it forms, naming the quantity and its key.
    scenario = tmp_path / "non_finite.cfg"
    scenario.write_text(text + "\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gravclock: error:")
    assert quantity in captured.err
    assert text.split(" = ")[0] in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


# Every refusal names at least one scenario key.
_SCENARIO_KEY = re.compile(
    r"(species|constants|geometry|interrogation|dephase|sweep|budget)\.[a-z0-9_]+"
)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_WIDE_COUNT = st.integers(1, 10**400)


@settings(max_examples=300)
@given(
    scenario=_scenarios(
        sweep_sizes=st.lists(_WIDE_COUNT, min_size=1, max_size=6, unique=True).map(
            lambda sizes: tuple(sorted(sizes))
        ),
        sweep_atoms_per_layer=_WIDE_COUNT,
    )
)
def test_every_command_ends_in_finite_output_or_a_refusal(scenario):
    # Any valid scenario, magnitudes up to the float range and counts beyond
    # it: each command exits 0, 2 or 3 without an escaping exception; a
    # refusal names a scenario key and writes nothing, and every number
    # written is finite.
    outputs = {
        "threshold": ([scenario.output_threshold], []),
        "dephase-curve": ([], [scenario.output_dephase_curve]),
        "stability-sweep": ([], [scenario.output_stability_sweep]),
        "budget": ([scenario.output_budget_json], []),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(serialize_scenario(scenario))
        for command, (json_names, csv_names) in outputs.items():
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--scenario", str(path), "--out", str(out)])
            assert code in (0, 2, 3), command
            if code == 2:
                assert _SCENARIO_KEY.search(err.getvalue()), (command, err.getvalue())
                assert not out.exists(), command
                continue
            for name in [*json_names, emit.RUN_RECORD_NAME]:
                json.loads((out / name).read_text(), parse_constant=_refuse_constant)
            for name in csv_names:
                with open(out / name, newline="") as handle:
                    for row in csv.reader(handle):
                        for cell in row:
                            try:
                                value = float(cell)
                            except ValueError:
                                continue
                            assert math.isfinite(value), (command, row)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_fmt_float_refuses_non_finite(value):
    with pytest.raises(ValueError, match="not a finite number"):
        emit.fmt_float(value)


def test_json_refusal_names_its_key_path():
    with pytest.raises(ValueError, match=r"^lattice_intensity\.changes\[1\]: not a finite"):
        emit.json_text({"lattice_intensity": {"changes": [0.5, math.inf]}})


def _reference_to_json(value, indent: int, path: str) -> str:
    """The serializer json_text replaced, kept verbatim as its byte reference."""
    pad = " " * indent
    child_pad = " " * (indent + 2)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        try:
            return emit.fmt_float(value)
        except ValueError as exc:
            raise ValueError(f"{path or 'value'}: {exc}") from None
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(
            child_pad + _reference_to_json(v, indent + 2, f"{path}[{i}]")
            for i, v in enumerate(value)
        )
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{child_pad}{json.dumps(str(k))}: "
            + _reference_to_json(v, indent + 2, f"{path}.{k}" if path else str(k))
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_json_text(value) -> str:
    return _reference_to_json(value, 0, "") + "\n"


_JSON_STRINGS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t .[]aé€\U0001f600') | st.characters())
_JSON_KEYS = _JSON_STRINGS | st.integers(-5, 5)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _JSON_STRINGS
)


def _containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_JSON_KEYS, inner, max_size=4)
    )


_JSON_VALUES = st.recursive(_JSON_LEAVES, _containers, max_leaves=16)


def _in_list(before, value, after):
    return [*before, value, *after]


def _in_dict(before, key, value, after):
    """value under key, between before's and after's finite entries."""
    return {**before, key: value, **{k: v for k, v in after.items() if k != key}}


_SIBLINGS = st.lists(_JSON_LEAVES, max_size=3)
_SIBLING_ENTRIES = st.dictionaries(_JSON_KEYS, _JSON_LEAVES, max_size=3)

# One non-finite float at a random depth, every sibling finite.
_POISONED = st.recursive(
    st.sampled_from([math.inf, -math.inf, math.nan]),
    lambda inner: st.builds(_in_list, _SIBLINGS, inner, _SIBLINGS)
    | st.builds(_in_dict, _SIBLING_ENTRIES, _JSON_KEYS, inner, _SIBLING_ENTRIES),
    max_leaves=6,
)


@settings(max_examples=200)
@given(_JSON_VALUES)
def test_json_text_matches_the_reference_serializer(value):
    assert emit.json_text(value) == _reference_json_text(value)


def test_json_text_quotes_alike_without_the_json_accelerator():
    # With _json unimportable, emit falls back to json.encoder's pure-Python
    # quoting, which must give the same bytes.
    value = {"ké\"\\\n\x00\x7f": ["\U0001f600 ", "plain"]}
    code = (
        "import sys\n{}from gravclock import emit\n"
        "print(ascii(emit.json_text(eval(sys.argv[1]))), emit._quote.__module__)"
    )
    with_c = _fresh_python(code.format(""), repr(value))
    without = _fresh_python(code.format("sys.modules['_json'] = None\n"), repr(value))
    assert with_c.stdout == f"{ascii(emit.json_text(value))} _json\n"
    assert without.stdout == f"{ascii(emit.json_text(value))} json.encoder\n"


@settings(max_examples=200)
@given(_POISONED)
def test_json_refusal_matches_the_reference_serializer(value):
    with pytest.raises(ValueError) as expected:
        _reference_json_text(value)
    with pytest.raises(ValueError) as refused:
        emit.json_text(value)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize(
    "line, width",
    [
        ("1,2,3,4", 4),
        ("1,2", 2),
        ("1,2,3\n1,2,3,4\n5,6,7", 4),
        ("1,2,3\n1,2\n5,6,7", 2),
        ("1,2\n1,2,3,4,5", 2),
        ("1,2,3,4,5\n1,2", 5),
        ("1,2,3,4\n1,2", 4),
    ],
    ids=[
        "wider",
        "narrower",
        "wider in block",
        "narrower in block",
        "narrower 1st",
        "wider 1st",
        "wider and narrower",
    ],
)
def test_csv_text_refuses_a_row_of_another_width(line, width):
    # Each line is a row template with no cells. In the last case the widths,
    # 4 and 2, sum to two rows of the header's, so a count of the block's
    # commas cannot tell them from two good rows.
    blocks = [(["x,y,z"], ()), (line.split("\n"), ())]
    with pytest.raises(ValueError) as excinfo:
        emit.csv_text(["a", "b", "c"], blocks)
    assert str(excinfo.value) == f"row width {width} != header width 3"


def test_csv_text_refuses_a_template_holding_a_newline():
    # As wide as the header by its commas, but two rows.
    with pytest.raises(ValueError) as excinfo:
        emit.csv_text(["a", "b", "c"], [(["%s,%s,%s", "1,2\n3,4"], (1, 2, 3, 4))])
    assert str(excinfo.value) == "row template holds a newline: '1,2\\n3,4'"


@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.cfg")), ids=lambda path: path.stem)
def test_preset_csv_rows_are_as_wide_as_their_header(tmp_path, capsys, preset):
    for command, name in (
        ("dephase-curve", "dephase_curve.csv"),
        ("stability-sweep", "stability_sweep.csv"),
    ):
        out = tmp_path / command
        assert main([command, "--scenario", str(preset), "--out", str(out)]) == 0
        header, *rows = csv.reader(io.StringIO((out / name).read_text(), newline=""))
        assert rows and all(len(row) == len(header) for row in rows), (command, name)
    capsys.readouterr()


def test_huge_phi_l_sweep_prints_nothing_to_stderr(tmp_path):
    # A fresh process, so that a runtime warning would reach stderr.
    scenario = tmp_path / "fast.cfg"
    scenario.write_text("sweep.phi_l = 1e300\n")
    argv = ("stability-sweep", "--scenario", str(scenario), "--allow-flags")
    result = _fresh_python(
        "import sys\nfrom gravclock.cli import main\nsys.exit(main())",
        *argv, "--out", str(tmp_path / "out"),
    )
    assert result.returncode == 0
    assert result.stderr == ""


_MAIN = "import sys\nfrom gravclock.cli import main\nsys.exit(main())"


def _run_with_failing_stream(fd: int, kind: str, *argv: str) -> subprocess.CompletedProcess:
    """A fresh-process CLI run whose stdout (fd 1) or stderr (fd 2) fails.

    kind "full" is /dev/full (ENOSPC), "pipe" a pipe whose read end is
    closed (EPIPE), "closed" a descriptor closed before the interpreter
    starts (the stream is then None). The other stream is captured. The
    streams are buffered, as by default, so that a failed write is still
    pending when the interpreter flushes them at exit.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    with contextlib.ExitStack() as stack:
        preexec = None
        if kind == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            target = stack.enter_context(open("/dev/full", "wb"))
        elif kind == "pipe":
            read_end, target = os.pipe()
            os.close(read_end)
            stack.callback(os.close, target)
        else:
            target, preexec = subprocess.DEVNULL, (lambda: os.close(fd))
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        streams["stdout" if fd == 1 else "stderr"] = target
        return subprocess.run(
            [sys.executable, "-c", _MAIN, *argv], env=env, text=True, preexec_fn=preexec, **streams
        )


def _assert_complete(out: Path) -> None:
    """Every file of the run_record.json manifest is in out, as recorded."""
    record = json.loads((out / emit.RUN_RECORD_NAME).read_text())
    names = [entry["name"] for entry in record["outputs"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + [emit.RUN_RECORD_NAME])
    for entry in record["outputs"]:
        assert hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("kind", ["full", "pipe", "closed"])
@pytest.mark.parametrize("command", ["threshold", "dephase-curve"])
def test_failing_stdout_exits_2_after_writing_the_outputs(tmp_path, command, kind):
    out = tmp_path / "out"
    result = _run_with_failing_stream(1, kind, command, "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith("gravclock: error: writing stdout: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    _assert_complete(out)


@pytest.mark.parametrize("kind", ["full", "pipe", "closed"])
@pytest.mark.parametrize(
    "text, code",
    [
        ("", 0),
        ("budget.n_site = 0\n", 2),
        (
            "sweep.family = slab\nsweep.sizes = 1,2\nsweep.phi_l = 0\n"
            "sweep.atoms_per_layer = 100\n",
            3,
        ),
    ],
    ids=["ok", "invalid", "flagged"],
)
def test_failing_stderr_keeps_the_exit_code(tmp_path, kind, text, code):
    scenario = tmp_path / "s.cfg"
    scenario.write_text(text)
    argv = ("stability-sweep", "--scenario", str(scenario), "--out", str(tmp_path / "out"))
    result = _run_with_failing_stream(2, kind, *argv)
    assert result.returncode == code
    if code != 2:
        assert result.stdout.startswith("stability-sweep: ")
        _assert_complete(tmp_path / "out")


def _separate_run(argv: list[str], out: Path) -> tuple[int, str, dict[str, bytes]]:
    """One fresh-interpreter CLI run: exit code, stdout, written files."""
    result = _fresh_python(_MAIN, *argv, "--out", str(out))
    return result.returncode, result.stdout, read_tree(out)


def test_consecutive_in_process_runs_match_separate_runs(tmp_path, capsys):
    # main() reuses one argument parser per process; a flag given to one call
    # must not leak into the next.
    scenario = tmp_path / "flagged.cfg"
    scenario.write_text(
        "sweep.family = slab\n"
        "sweep.sizes = 1,2\n"
        "sweep.phi_l = 0\n"
        "sweep.atoms_per_layer = 100\n"
    )
    calls = [
        ["stability-sweep", "--scenario", str(scenario), "--allow-flags"],
        ["stability-sweep", "--scenario", str(scenario)],
    ]
    in_process = []
    for i, argv in enumerate(calls):
        out = tmp_path / f"in{i}"
        code = main(argv + ["--out", str(out)])
        in_process.append((code, capsys.readouterr().out, read_tree(out)))
    separate = [_separate_run(argv, tmp_path / f"sep{i}") for i, argv in enumerate(calls)]
    assert [code for code, _, _ in in_process] == [0, 3]
    assert in_process == separate


def test_flagged_sweep_exits_3_unless_allowed(tmp_path, capsys):
    scenario = tmp_path / "flagged.cfg"
    # One slab layer with a silent laser: no dephasing, tau never brackets.
    scenario.write_text(
        "sweep.family = slab\n"
        "sweep.sizes = 1,2\n"
        "sweep.phi_l = 0\n"
        "sweep.atoms_per_layer = 100\n"
    )
    out = tmp_path / "out"
    code = main(["stability-sweep", "--scenario", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "non-bracketable" in err
    # Output files are still written before the flag is signalled.
    rows = (out / "stability_sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].endswith("non-bracketable")

    code = main(
        [
            "stability-sweep",
            "--scenario",
            str(scenario),
            "--out",
            str(tmp_path / "out2"),
            "--allow-flags",
        ]
    )
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("convention", ["physical", "paper-figure"])
def test_subnormal_laser_rate_sweeps_like_a_silent_laser(tmp_path, capsys, convention):
    # phi_l t stays subnormal, where sin and asin keep too few digits for the
    # phase ratio: its small-angle limit D / m gives the phi_l = 0 cells,
    # with no flag and no exit 3.
    rows = {}
    for phi_l in ("5e-324", "0"):
        scenario = tmp_path / f"{phi_l}.cfg"
        scenario.write_text(f"convention = {convention}\nsweep.phi_l = {phi_l}\n")
        out = tmp_path / phi_l
        assert main(["stability-sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        with open(out / "stability_sweep.csv", newline="") as handle:
            rows[phi_l] = [row[:2] + row[3:] for row in csv.reader(handle)]
    capsys.readouterr()
    assert len(rows["0"]) == 38
    assert rows["5e-324"] == rows["0"]


def test_non_converged_sweep_exits_3_unless_allowed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(thresholds, "_ROOT_MAX_STEPS", 1)
    scenario = tmp_path / "cell.cfg"
    scenario.write_text(
        "convention = paper-figure\nsweep.family = cubic\nsweep.sizes = 200\nsweep.phi_l = 1e-2\n"
    )
    args = ["stability-sweep", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert "non-converged" in capsys.readouterr().err
    assert main(args + ["--allow-flags"]) == 0
    capsys.readouterr()


def test_convention_override_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["threshold", "--out", str(out), "--convention", "paper-figure"]) == 0
    capsys.readouterr()
    document = json.loads((out / "threshold.json").read_text())
    assert document["convention"] == "paper-figure"


def test_dephase_curve_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "dephase-curve",
            "--scenario",
            str(PRESETS / "dephase_curve.cfg"),
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = (out / "dephase_curve.csv").read_text().splitlines()
    assert lines[0] == "t_s,n_site,phi_l,convention,ratio,contrast"
    assert len(lines) == 1 + 5 * 201
    # The t = 0 rows leave the ratio cell empty.
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == ""
    # Every data row carries the convention tag.
    assert all(line.split(",")[3] == "paper-figure" for line in lines[1:])
    # n_site = 500 at t = 100 s: ratio ~ 0.59.
    row = next(
        line.split(",")
        for line in lines[1:]
        if line.startswith("100,") and line.split(",")[1] == "500"
    )
    assert float(row[4]) == pytest.approx(0.5876, abs=0.02)


def test_budget_with_negligible_signal(tmp_path, capsys):
    scenario = tmp_path / "nosignal.cfg"
    scenario.write_text("constants.g = 1e-30\nbudget.n_site = 100\n")
    out = tmp_path / "out"
    assert main(["budget", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    document = json.loads((out / "budget.json").read_text())
    failing = {e["name"] for e in document["entries"] if not e["passes"]}
    # The assumption-scale shifts dwarf a vanishing signal.
    assert {
        "first-order-zeeman-calibration",
        "dc-stark",
        "lattice-ac-stark",
        "bbr-differential",
    } <= failing
    assert not document["all_pass"]
    table = (out / "budget.txt").read_text()
    assert "FAIL" in table


def test_run_record_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["budget", "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads((out / "run_record.json").read_text())
    assert record["version"]
    names = {entry["name"] for entry in record["outputs"]}
    assert names == {"budget.json", "budget.txt"}
    for entry in record["outputs"]:
        body = (out / entry["name"]).read_bytes()
        assert len(body) == entry["bytes"]


def test_budget_json_reports_both_intensity_changes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["budget", "--out", str(out)]) == 0
    capsys.readouterr()
    document = json.loads((out / "budget.json").read_text())
    intensity = document["lattice_intensity"]
    assert intensity["computed_max_change"] == pytest.approx(6.35e-4, rel=0.02)
    assert intensity["reference_change"] == pytest.approx(8.46e-4)
    assert intensity["closed_form_agrees"] is True


def test_budget_accepts_separation_beyond_1e3_rayleigh_ranges(tmp_path, capsys):
    # 1200 m is ~1.4e4 Rayleigh ranges of the default trap: the closed-form
    # extrema need no search range.
    scenario = tmp_path / "wide.cfg"
    scenario.write_text("budget.beam_separation = 1200\n")
    out = tmp_path / "out"
    assert main(["budget", "--scenario", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    intensity = json.loads((out / "budget.json").read_text())["lattice_intensity"]
    assert intensity["closed_form_agrees"] is True


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("output.threshold = t.json\noutput.budget_json = /tmp/b.json\n", 2, "plain file"),
        ("output.budget_json = sub/budget.json\n", 1, "plain file"),
        ("output.budget_json = sub\\budget.json\n", 1, "plain file"),
        ("output.budget_json = .\n", 1, "plain file"),
        ("output.budget_json = ..\n", 1, "plain file"),
        ("output.budget_json =\n", 1, "plain file"),
        ("output.threshold = run_record.json\n", 1, "reserved"),
        ("output.budget_json = budget.txt\n", 1, "already the name of 'output.budget_text'"),
        ("output.budget_text = a\n# note\noutput.budget_json = a\n", 3, "already the name"),
    ],
)
def test_bad_output_name_exits_2(tmp_path, capsys, text, line, message):
    scenario = tmp_path / "names.cfg"
    scenario.write_text(text)
    out = tmp_path / "out"
    assert main(["budget", "--scenario", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: " in err and message in err
    assert not out.exists()


def test_non_file_target_replaces_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "budget.txt").mkdir(parents=True)
    assert main(["budget", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("gravclock: error:") and "budget.txt" in captured.err
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["budget.txt"]
    assert list((out / "budget.txt").iterdir()) == []


def test_write_outputs_replaces_manifest_last_and_cleans_up(tmp_path, monkeypatch):
    files = {"b.txt": "b\n", emit.RUN_RECORD_NAME: "{}\n", "a.txt": "a\n"}
    real_replace = os.replace
    replaced: list[str] = []
    limit = 1

    def limited_replace(src, dst):
        if len(replaced) == limit:
            raise PermissionError(f"refusing {dst}")
        replaced.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(emit.os, "replace", limited_replace)
    with pytest.raises(PermissionError):
        emit.write_outputs(tmp_path, files)
    # The failed write left no manifest and no temporary file behind.
    assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]

    replaced.clear()
    limit = None
    emit.write_outputs(tmp_path, files)
    assert replaced == ["b.txt", "a.txt", emit.RUN_RECORD_NAME]
    assert read_tree(tmp_path) == {name: text.encode() for name, text in sorted(files.items())}


_TEXTS = {"b.txt": "b\n" * 40, "a.txt": "é€\U0001f600\n" * 9, emit.RUN_RECORD_NAME: "{}\n"}


def test_write_outputs_lands_every_byte_of_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(emit.os, "write", lambda fd, data: real_write(fd, data[:7]))
    emit.write_outputs(str(tmp_path), _TEXTS)
    assert read_tree(tmp_path) == {name: _TEXTS[name].encode("utf-8") for name in sorted(_TEXTS)}


def _fail_second_temporary(monkeypatch) -> list[str]:
    """Make emit's write to its second temporary fail with ENOSPC; returns
    the paths that emit opens, in order."""
    real_open, real_write = os.open, os.write
    opened: list[str] = []

    def open_(path, *args):
        opened.append(path)
        return real_open(path, *args)

    def write(fd, data):
        if len(opened) == 2:
            raise OSError(28, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(emit.os, "open", open_)
    monkeypatch.setattr(emit.os, "write", write)
    return opened


def test_write_outputs_failing_second_temporary_leaves_nothing(tmp_path, monkeypatch):
    opened = _fail_second_temporary(monkeypatch)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="No space left"):
        emit.write_outputs(str(out), _TEXTS)
    assert len(opened) == 2 and not out.exists()


@pytest.mark.parametrize("existing", ["", "kept", "kept/also"])
def test_write_outputs_failing_nested_out_removes_only_what_it_made(
    tmp_path, monkeypatch, existing
):
    # The parents made for a nested out go with it, deepest first; those
    # that existed before the run, and an out that existed, are kept.
    if existing:
        (tmp_path / existing).mkdir(parents=True)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    opened = _fail_second_temporary(monkeypatch)
    for out in (tmp_path / existing / "a" / "b" / "out", tmp_path / existing):
        with pytest.raises(OSError, match="No space left"):
            emit.write_outputs(str(out), _TEXTS)
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        opened.clear()


@pytest.mark.parametrize("kind", ["dangling symlink", "directory"])
def test_write_outputs_refuses_a_non_file_before_any_temporary(tmp_path, monkeypatch, kind):
    target = tmp_path / "a.txt"
    if kind == "directory":
        target.mkdir()
    else:
        target.symlink_to(tmp_path / "missing")
    opened: list[str] = []
    monkeypatch.setattr(emit.os, "open", lambda path, *args: opened.append(path))
    with pytest.raises(FileExistsError, match=r"a\.txt exists and is not a regular file"):
        emit.write_outputs(str(tmp_path), _TEXTS)
    assert opened == [] and [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_write_outputs_replaces_a_symlink_to_a_file_with_a_file(tmp_path):
    elsewhere = tmp_path / "elsewhere.txt"
    elsewhere.write_text("kept\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.txt").symlink_to(elsewhere)
    emit.write_outputs(str(out), _TEXTS)
    assert not (out / "a.txt").is_symlink()
    assert (out / "a.txt").read_bytes() == _TEXTS["a.txt"].encode("utf-8")
    assert elsewhere.read_text() == "kept\n"


class _CountingOs:
    """A module's view of os, or of os.path under the prefix "path.", that
    records the name of every function called through it."""

    def __init__(self, calls: list[str], module=os, prefix: str = ""):
        self._calls, self._module, self._prefix = calls, module, prefix

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name == "path":
            return _CountingOs(self._calls, value, "path.")
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self._calls.append(self._prefix + name)
            return value(*args, **kwargs)

        return counted


@pytest.mark.parametrize("where", ["fresh", "nested", "existing"])
def test_write_outputs_system_calls(tmp_path, monkeypatch, where):
    # A fresh directory is created by one mkdir and holds no target to look
    # up; all files share one random tag, and each costs one open, write,
    # close and replace. Missing parents fall back to makedirs, and an
    # existing directory keeps the check of every target.
    out = tmp_path / "a" / "b" / "out" if where == "nested" else tmp_path / "out"
    if where == "existing":
        out.mkdir()
    calls: list[str] = []
    monkeypatch.setattr(emit, "os", _CountingOs(calls))
    emit.write_outputs(str(out), _TEXTS)
    n = len(_TEXTS)
    kept = {"mkdir", "makedirs", "path.lexists", "path.isfile", "path.isdir", "urandom"}
    expected = {
        "fresh": ["mkdir", "urandom"],
        "nested": ["mkdir", "makedirs"] + ["path.lexists"] * n + ["urandom"],
        "existing": ["mkdir", "path.isdir"] + ["path.lexists"] * n + ["urandom"],
    }[where]
    assert [call for call in calls if call in kept] == expected
    for name in ("open", "write", "close", "replace"):
        assert calls.count(name) == n, name
    assert "unlink" not in calls
    assert read_tree(out) == {name: _TEXTS[name].encode("utf-8") for name in sorted(_TEXTS)}


@pytest.mark.parametrize("kind", ["file", "dangling symlink", "file as parent"])
def test_write_outputs_refuses_an_out_that_is_not_a_directory(tmp_path, kind):
    # The mkdir that makes a fresh --out fails as os.makedirs does, and
    # nothing is written.
    blocker = tmp_path / "out"
    if kind == "dangling symlink":
        blocker.symlink_to(tmp_path / "missing")
    else:
        blocker.write_text("kept\n")
    out = blocker / "sub" if kind == "file as parent" else blocker
    error, message = (
        (NotADirectoryError, "Not a directory")
        if kind == "file as parent"
        else (FileExistsError, r"^\[Errno 17\] File exists: ")
    )
    with pytest.raises(error, match=message):
        emit.write_outputs(str(out), _TEXTS)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert kind == "dangling symlink" or blocker.read_text() == "kept\n"
