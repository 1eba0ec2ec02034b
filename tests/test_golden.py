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
        "run_record.json": "65cdcee514021f8fb432665af846a1cdc8b5a1b9d0fa54cfc5c28152124b07db",
        "stability_sweep.csv": "ff11afd7b571aab4d9a209f0d7f2b8ff74d6e6ac3eb1d418558287200d1fb391",
    },
    ("stability-sweep", "stability_cubic.cfg", "paper-figure"): {
        "run_record.json": "04e962e95fb5a236fb890d802dbc02bd006177deb7dac985cbefb378e17c3c3a",
        "stability_sweep.csv": "fc47573934d90e59101f2fe7093f17390efc80a07a506d697ff6efa90f2e1af1",
    },
    ("stability-sweep", "stability_slab.cfg", "physical"): {
        "run_record.json": "b25c13d1ce9e77dfc9657714a19e87aeec68baf95d4a9b2dca2592704a764338",
        "stability_sweep.csv": "af6b4f718fbb9c424def4c88c3d134969a5472ec95f94abeb4fe8de5fdb99fa2",
    },
    ("stability-sweep", "stability_slab.cfg", "paper-figure"): {
        "run_record.json": "660bdffa84943f1abc4d9c271e1ba78e5246e5189ddc09426a2711f56b9e4d1f",
        "stability_sweep.csv": "fcd706d140b99ee22fa64512b86a40a55c6505b4caf25f23289312c22f61420d",
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
