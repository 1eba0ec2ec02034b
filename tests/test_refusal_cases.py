"""Every case of the refusal table, run in-process, and the table's own hygiene."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from refusal_cases import CASES, OUT, Case, main as record_cases, problems, tree, write_scenario

from gravclock.cli import main


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_refusal_case(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_scenario(case, tmp_path)
    code = main(list(case.argv))
    captured = capsys.readouterr()
    assert problems(case, code, captured.out, captured.err, tree(tmp_path)) == []


def test_case_ids_are_unique_and_every_case_names_a_phrase():
    ids = [case.id for case in CASES]
    assert len(set(ids)) == len(ids)
    assert [case.id for case in CASES if not case.phrases or "" in case.phrases] == []


def test_the_table_loads_no_gravclock_module():
    code = "import sys, refusal_cases\nprint([m for m in sys.modules if m.startswith('gravclock')])"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=Path(__file__).parent, capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_the_script_records_each_case_and_fails_one_that_is_not_refused(tmp_path, capsys):
    refused = next(case for case in CASES if case.id == "n_site_zero")
    accepted = Case("accepted", ("threshold", "--out", OUT), None, ("unknown key",))
    records = tmp_path / "records"
    assert record_cases(records, (refused, accepted)) == 1
    captured = capsys.readouterr()
    assert captured.out == "1 of 2 refusal cases refused as their rows say\n"
    # Exit 0, a stdout, no refusal line, no phrase, and --out left behind.
    found = captured.err.splitlines()
    assert [line.partition(": ")[0] for line in found] == ["accepted"] * 5
    assert found[0] == "accepted: exit code 0"
    assert found[-1] == "accepted: left ['out', 'out/run_record.json', 'out/threshold.json']"
    assert (records / "n_site_zero" / "exit_code").read_text() == "2\n"
    assert (records / "n_site_zero" / "tree").read_text() == "scenario.cfg\n"
    assert (records / "n_site_zero" / "stderr").read_text().startswith(
        "gravclock: error: line 1: invalid value for 'budget.n_site'"
    )
    assert (records / "accepted" / "exit_code").read_text() == "0\n"
