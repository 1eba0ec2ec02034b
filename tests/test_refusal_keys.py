"""Every refusal names the key that moved it.

Each key of the scenario key table is set alone, on the small defaults of
the hostile-text test, to extreme values that its parser may still accept,
and run under every command. A run that exits 2 must name that key in its
one line of stderr: the parser names it where it refuses the text, and a
refusal of a value derived from it names it through the key lists of core.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from gravclock import cli, core, scenario as scenario_module
from test_cli import _SCENARIO_KEY
from test_hostile_text import _SMALL

KEYS = tuple(scenario_module._KEYS)
EXTREMES = (
    "5e-324",
    "1e-320",
    "1e-300",
    "1e-30",
    "1e-10",
    "0",
    "1",
    "2",
    "1e30",
    "1e300",
    "1.7976931348623157e308",
    "-1e300",
    str(10**300),
    "9" * 350,
    "a\x00b",
    "linspace:0:1e300:3",
    "logspace:1e-300:1e300:3",
)


def _refusals() -> list[tuple[str, str, str, str]]:
    """(key, value, command, stderr) of every run that exits 2."""
    refusals = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "extreme.cfg", str(Path(tmp) / "out")
        for key in KEYS:
            small = [f"{k} = {v}" for k, v in _SMALL.items() if k != key]
            for value in EXTREMES:
                path.write_text("\n".join([*small, f"{key} = {value}"]) + "\n", encoding="utf-8")
                for command in cli._COMMANDS:
                    stderr = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()):
                        with contextlib.redirect_stderr(stderr):
                            code = cli.main([command, "--scenario", str(path), "--out", out])
                    if code == cli.EXIT_VALIDATION:
                        refusals.append((key, value, command, stderr.getvalue()))
    return refusals


def test_every_refusal_of_one_extreme_key_names_that_key():
    refusals = _refusals()
    assert refusals
    unlocated = [(k, v, c, e) for k, v, c, e in refusals if k not in e]
    assert unlocated == []
    assert [e for _, _, _, e in refusals if len(e) >= 250] == []


def test_the_core_key_lists_name_only_scenario_keys():
    lists = {name: text for name, text in vars(core).items() if name.endswith("_KEYS")}
    assert lists
    for name, text in lists.items():
        named = [match.group(0) for match in _SCENARIO_KEY.finditer(text)]
        assert named and set(named) <= set(KEYS), name
