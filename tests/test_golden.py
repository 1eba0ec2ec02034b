"""Golden digests: every preset and default-scenario output, byte for byte.

The SHA-256 of every file the CLI writes, run_record.json included, for the
5 presets under both conventions and for the 4 commands on the built-in
default scenario. A refactor that is meant to keep the outputs identical
must pass this test unchanged; a change that moves a digest on purpose
updates it here and says why in CHANGES.md.

The digests hold for this platform's libm (glibc 2.36, x86_64, CPython
3.11): the sweep and curve numbers go through math.sin, math.asin and pow,
whose last bit another libm may round differently.
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
        "run_record.json": "f7c1bd597a2bf32c7f5ce4fc9c2ef4d0db1ff188e3b345071097bb665580a1b9",
        "stability_sweep.csv": "04354f262b1a6cdfb9953357efb35c3181ec97febffb0c9cccf5c7672de0a9f4",
    },
    ("stability-sweep", "stability_cubic.cfg", "paper-figure"): {
        "run_record.json": "84ab9b65b18fc8060eefd80479627893ce3095d4c11f79013d92a2662a954d75",
        "stability_sweep.csv": "ea589c53633128ffd4906d2c57eb23de72c84f1e28eb0e1724d406b58f66c71c",
    },
    ("stability-sweep", "stability_slab.cfg", "physical"): {
        "run_record.json": "64eaf75270479c025bbd0748c20dd5e24d8d4d4c2e5c37755c6444c514329c24",
        "stability_sweep.csv": "183e99b55b4fef73c6e3f0b8f1f6062bfd49cc6f543b07134e775b4cd5780d1d",
    },
    ("stability-sweep", "stability_slab.cfg", "paper-figure"): {
        "run_record.json": "219bb0af2960df12c0e749bcfd758bcc6b344c95731c464d1c983d04ee96c687",
        "stability_sweep.csv": "8bd971afb59914a081e1d201327bc20ed48e80bbddfb46c9fc379514365f0ac3",
    },
    ("budget", "budget.cfg", "physical"): {
        "budget.json": "90a14110757e544917f1d2d90e0af279daba6d9da1251657d2aafa8284008399",
        "budget.txt": "82bb0a8093bab935854e97943288b11b7189d3a42123a1b3af210ffcf2ba14aa",
        "run_record.json": "5ca1ea402b6fc1d1dab282d8681af4248c5aace33de453ea8bfc790cd6f4b107",
    },
    ("budget", "budget.cfg", "paper-figure"): {
        "budget.json": "2383102772ae16c1eda711604d45c0060db2971136e24226c82bf411bfaf0840",
        "budget.txt": "82bb0a8093bab935854e97943288b11b7189d3a42123a1b3af210ffcf2ba14aa",
        "run_record.json": "1acef61e0d7b69327280b5893de89bfaef6e22653129468cc73566c04f28ba9f",
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
