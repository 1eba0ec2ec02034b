"""Import graph: each name has one home, and a module loads only what it uses.

Every check runs in a fresh interpreter, so that no module imported by an
earlier test hides what an import loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def _loaded_after(statement: str) -> list[str]:
    code = (
        f"import sys\n{statement}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'gravclock')))"
    )
    return _fresh_python(code).split()


def test_submodule_import_binds_the_module():
    assert _fresh_python("import gravclock.sweep as m; print(m.__name__)") == "gravclock.sweep"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("gravclock", ["gravclock"]),
        ("gravclock.core", ["gravclock", "gravclock.core"]),
        ("gravclock.dephasing", ["gravclock", "gravclock.core", "gravclock.dephasing"]),
    ],
)
def test_leaf_modules_load_nothing_else(module, loaded):
    assert _loaded_after(f"import {module}") == loaded


def test_scenario_loads_no_domain_module():
    # The key table reads its defaults, and the phase-rate conventions, from
    # core, so parsing a scenario loads no solver, layer sum or budget.
    assert _loaded_after("import gravclock.scenario") == [
        "gravclock",
        "gravclock.core",
        "gravclock.emit",
        "gravclock.scenario",
    ]


def test_thresholds_does_not_load_sweep():
    assert "gravclock.sweep" not in _loaded_after("import gravclock.thresholds")


def test_package_root_exports_only_the_version():
    public = _fresh_python(
        "import gravclock; print([n for n in vars(gravclock) if not n.startswith('_')])"
    )
    assert public == "[]"
    assert _fresh_python("import gravclock; print(gravclock.__version__)") == "0.1.0"


@pytest.mark.parametrize("command", ["threshold", "dephase-curve", "stability-sweep", "budget"])
def test_command_loads_neither_dataclasses_nor_inspect(command, tmp_path):
    # Every record is a tuple type, so no command pays for the dataclasses
    # import chain (inspect, dis, tokenize, ast, linecache).
    code = (
        "import contextlib, io, sys\n"
        "from gravclock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    assert _fresh_python(code) == "0 []"


@pytest.mark.parametrize("command", ["threshold", "dephase-curve", "stability-sweep", "budget"])
def test_command_does_not_load_pathlib(command, tmp_path):
    # -S skips site, whose .pth files may load pathlib themselves; the
    # scenario is read with open() and --out stays a string path.
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text("convention = physical\n")
    code = (
        "import contextlib, io, sys\n"
        "from gravclock.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([{command!r}, '--scenario', {str(scenario)!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'pathlib' in sys.modules)"
    )
    assert _fresh_python(code, "-S") == "0 False"


# What the argv parser and the JSON writer do without: the parser reads its
# option table, and emit quotes strings with the C function of _json.
_NOT_LOADED = ("argparse", "gettext", "json", "json.decoder", "json.scanner", "json.encoder")
# Loaded by the cli import itself; a benchmark reads them from sys.modules
# after a run that needs only some of them.
_DOMAIN = tuple(f"gravclock.{name}" for name in ("dephasing", "thresholds", "sweep", "systematics"))


def test_cli_loads_neither_argparse_nor_the_json_package(tmp_path):
    code = (
        "import contextlib, io, sys\n"
        "import gravclock.cli\n"
        f"print(sorted(m for m in {_NOT_LOADED!r} if m in sys.modules))\n"
        "codes = []\n"
        "for command in ('threshold', 'dephase-curve', 'stability-sweep', 'budget'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        codes.append(gravclock.cli.main([command, '--out', {str(tmp_path / 'o')!r}]))\n"
        f"print(codes, sorted(m for m in {_NOT_LOADED!r} if m in sys.modules))\n"
        f"print(all(m in sys.modules for m in {_DOMAIN!r}))"
    )
    assert _fresh_python(code, "-S").splitlines() == ["[]", "[0, 0, 0, 0] []", "True"]
