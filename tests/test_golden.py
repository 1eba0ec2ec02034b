"""Golden digests: every preset and default-scenario output, byte for byte.

The SHA-256 of every file the CLI writes, run_record.json included, for the
5 presets under both conventions and for the 4 commands on the built-in
default scenario. A refactor that is meant to keep the outputs identical
must pass this test unchanged; a change that moves a digest on purpose
updates it here and says why in CHANGES.md.

The digests hold for this platform's libm (glibc 2.36, x86_64, CPython
3.11): the sweep and curve numbers go through math.sin, math.asin and pow,
and the budget numbers through math.hypot, math.expm1 and math.log1p, whose
last bit another libm may round differently.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from gravclock.cli import main

PRESETS = Path(__file__).resolve().parent.parent / "presets"

GOLDEN = {
    ("threshold", "threshold.cfg", "physical"): {
        "run_record.json": "be178b88d7e43018ca3ffef8cfeb10ce6ad66e5ca69afd054f6a4e299259ac3e",
        "threshold.json": "080fb6144df99dd5771f9e293bef6c89f2a5a968ad72c0e27540bb1980d1af74",
    },
    ("threshold", "threshold.cfg", "paper-figure"): {
        "run_record.json": "e63645b9c623b3093cc9a9c19026f60eb9b2c6843adaa2a2b536ced76f9b665e",
        "threshold.json": "ae02161f9e6de76e5538968de9864655efe5338499d0108b5161df9a4ce1951f",
    },
    ("dephase-curve", "dephase_curve.cfg", "physical"): {
        "dephase_curve.csv": "196a1f6d962bb6b89904bda8368eea44a8ffd046c8bb5733bc4eab25309f3eb1",
        "run_record.json": "716aae7a022f3f1ef5b1c946bec88ccddf52492733596e045476026ccd0b2925",
    },
    ("dephase-curve", "dephase_curve.cfg", "paper-figure"): {
        "dephase_curve.csv": "cfc0da7933eac9d6ab4a1f8e3a806e4f6d34800ab44d1f093707c008c83d7f9f",
        "run_record.json": "10f4bdb22c2346249ab0430d8800ebcc58c28055011311ae65b23f0b50bbad8d",
    },
    ("stability-sweep", "stability_cubic.cfg", "physical"): {
        "run_record.json": "3ccd7ed5a447d6e0e6c720ada4b2095c9b58392c94527f174fcdf502c130c8de",
        "stability_sweep.csv": "f433e90e6ab778f0ee7f8b34d5ffde6637d8c923828a755217136588597d399a",
    },
    ("stability-sweep", "stability_cubic.cfg", "paper-figure"): {
        "run_record.json": "e0b5770d1d7f4967473e76df4775d894c8243b066a1b2d1360b6ce1e5127d1ad",
        "stability_sweep.csv": "4f50c76025c5be623bbc9600d08494f7f3b41ea5f2d7d846ae0cfb876908b919",
    },
    ("stability-sweep", "stability_slab.cfg", "physical"): {
        "run_record.json": "aecb4141ecd75e17692416089dc6746167916cb36848556d6895f0a7ca7b0a09",
        "stability_sweep.csv": "1d1b87a43846186366cc30e5b9dc50aff1d4e341400ea72c8cb53be4ce19ff43",
    },
    ("stability-sweep", "stability_slab.cfg", "paper-figure"): {
        "run_record.json": "682597fe172eab762e2e1a796fe64b89b8f9d3a7c0765d810c5252a6a5afce5a",
        "stability_sweep.csv": "575f256891f3ba94cf1a566e7f6e28074bc542fd7147bc0a2bb5abf5f3f4492d",
    },
    ("budget", "budget.cfg", "physical"): {
        "budget.json": "45ad53b9a3af915c4022df67100d2856f34a74c107cf75f55c78c320fe785ff0",
        "budget.txt": "82bb0a8093bab935854e97943288b11b7189d3a42123a1b3af210ffcf2ba14aa",
        "run_record.json": "273e39b0bce9cdd6dde9cd1ea8efd7c5c6a42ddd8380bb6da4482056ab146e53",
    },
    ("budget", "budget.cfg", "paper-figure"): {
        "budget.json": "1e27a6e1215fc523aa3bbe71663650f93fa49c8447fa3a89fe9a0761562cca2d",
        "budget.txt": "82bb0a8093bab935854e97943288b11b7189d3a42123a1b3af210ffcf2ba14aa",
        "run_record.json": "f807c4eb8446a5bf757a76d42e9379210f803fcf7808e81388417c424c5742ef",
    },
}

# Each of these presets differs from the defaults at most in its convention,
# so under --convention physical (which writes the scenario text in normal
# form) it writes the default scenario's bytes, and the default runs are
# checked against those entries.
DEFAULT_RUNS = {
    "threshold": ("threshold", "threshold.cfg", "physical"),
    "dephase-curve": ("dephase-curve", "dephase_curve.cfg", "physical"),
    "stability-sweep": ("stability-sweep", "stability_cubic.cfg", "physical"),
    "budget": ("budget", "budget.cfg", "physical"),
}


def _digests(argv: list[str], out: Path, capsys) -> dict[str, str]:
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command, preset, convention", sorted(GOLDEN))
def test_preset_outputs_are_golden(tmp_path, capsys, command, preset, convention):
    argv = [command, "--scenario", str(PRESETS / preset), "--convention", convention]
    assert _digests(argv, tmp_path, capsys) == GOLDEN[command, preset, convention]


@pytest.mark.parametrize("command", sorted(DEFAULT_RUNS))
def test_default_scenario_outputs_are_golden(tmp_path, capsys, command):
    assert _digests([command], tmp_path, capsys) == GOLDEN[DEFAULT_RUNS[command]]
