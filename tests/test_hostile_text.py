"""Hostile scenario text, for every key of the scenario key table.

The key table (scenario._KEYS) is the one place a scenario value is checked;
the library takes parsed values as they are. So each key is fed text from a
hostile alphabet (numbers of thousands of digits, signs, inf and nan, empty
and separator-only lists, non-ASCII and long text, grids whose bounds
overflow or whose point counts pass core.MAX_GRID_POINTS), beside duplicate
and unknown keys, and every command must end in its outputs or in a short,
located refusal that leaves nothing under --out. The @examples are values
whose refusal the key table alone makes.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from refusal_cases import one_short_line

from gravclock import cli, scenario as scenario_module
from gravclock.core import MAX_GRID_POINTS, echo
from gravclock.scenario import ScenarioError, parse_scenario

KEYS = tuple(scenario_module._KEYS)
COMMANDS = tuple(cli._COMMANDS)

_BIG = "9" * 5000  # past the 4300-digit int-string limit
_ATOMS = [
    "", " ", ",", ", ,", ":", "#", "=", "-", "+", "0", "-0", "-0.0", "+1", "1", "2", "-1",
    "1e-3", "5e-324", "1.7976931348623157e308", "1e309", "-1e309", "inf", "-inf", "nan",
    "NaN", "Infinity", _BIG, "-" + "9" * 4000, "1" + "0" * 400, "0." + "0" * 3000 + "1",
    "1e" + "9" * 100, "\uff11\uff12", "\u0663", "\u00e9", "\u00a0", "\u2028", "x" * 5000,
    "\u00fc" * 200,
    "cubic", "slab", "Yb", "Sr", "physical", "paper-figure", "a.json", "run_record.json",
    "a/b", "..", "a\x00b",
]
_ITEMS = ["0", "-0.0", "1", "2", "-2", "3", "nan", "inf", "", " ", "1e308", "5e-324", "9" * 400]
_BOUNDS = ["0", "1", "-1", "1e-300", "1e300", "1.7e308", "-1.7e308", "inf", "", "9" * 400]
# Counts of at most 20 points, or past the limit: no accepted grid is large.
_COUNTS = ["0", "1", "3", "20", "-1", "2.5", "", str(MAX_GRID_POINTS + 1), _BIG]
HOSTILE = (
    st.sampled_from(_ATOMS)
    | st.lists(st.sampled_from(_ITEMS), min_size=2, max_size=4).map(", ".join)
    | st.builds(
        lambda kind, a, b, n: f"{kind}:{a}:{b}:{n}",
        st.sampled_from(["linspace", "logspace"]),
        st.sampled_from(_BOUNDS),
        st.sampled_from(_BOUNDS),
        st.sampled_from(_COUNTS),
    )
)
# Other lines beside the key's own: any key, an unknown or a malformed one.
_OTHER_LINES = st.lists(
    st.tuples(st.sampled_from(KEYS + ("nosuch.key", "spécies", "species.", "")), HOSTILE).map(
        " = ".join
    )
    | st.sampled_from(["species Yb", "= 1", "# only a comment"]),
    max_size=2,
)
# Small grids, so that an accepted run stays cheap; a drawn line replaces its key's.
_SMALL = {
    "sweep.sizes": "2, 30",
    "sweep.phi_l": "1e-3, 0",
    "dephase.sizes": "2, 30",
    "dephase.t_grid": "0, 1, 100",
}


def _run(command: str, path: Path, out: Path) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


# The values whose refusal moved wholly to the key table, by key.
RECEIPTS = {
    ("dephase.t_grid", "0, 0"),
    ("sweep.phi_l", "-1"),
    ("sweep.atoms_per_layer", "0"),
    ("sweep.family", "pyramid"),
    ("dephase.sizes", "0"),
    ("species.omega0", "-1"),
    ("constants.g", "0"),
    ("interrogation.tau", "0"),
    ("interrogation.xi_w_sq", "2"),
}


@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=12)
@given(value=HOSTILE, others=_OTHER_LINES, duplicate=st.booleans())
@example(value="0, 0", others=[], duplicate=False)
@example(value="-1", others=[], duplicate=False)
@example(value="0", others=[], duplicate=False)
@example(value="pyramid", others=[], duplicate=False)
@example(value="2", others=[], duplicate=False)
def test_hostile_text_ends_in_outputs_or_a_located_refusal(key, value, others, duplicate):
    lines = [f"{key} = {value}", *others]
    if duplicate:
        lines.append(lines[0])
    drawn = {line.partition("=")[0].strip() for line in lines}
    small = [f"{k} = {v}" for k, v in _SMALL.items() if k not in drawn]
    text = "\n".join(small + lines) + "\n"
    try:
        parse_scenario(text)
        refused_line = None
    except ScenarioError as exc:
        refused_line = exc.line
        assert refused_line is not None, str(exc)
    if (key, value) in RECEIPTS and not others:
        assert refused_line == len(small) + 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hostile.cfg"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            out = Path(tmp) / command
            code, stdout, stderr = _run(command, path, out)
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_FLAGGED), command
            assert "Traceback" not in stderr
            if refused_line is not None:
                assert code == cli.EXIT_VALIDATION, command
            if code != cli.EXIT_VALIDATION:
                continue
            assert stderr.startswith("gravclock: error: ") and one_short_line(stderr), stderr
            assert stdout == "", (command, stderr)
            assert not out.exists(), command
            if refused_line is not None:
                line = text.splitlines()[refused_line - 1]
                assert f"line {refused_line}: " in stderr, stderr
                if "=" in line:
                    assert echo(line.partition("=")[0].strip()) in stderr, stderr
