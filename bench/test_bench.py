"""Tests of the benchmark itself: seeded decks, the oracle, span arithmetic,
speed calibration.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import pytest

import oracle
import spans
import speed
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gravclock.cli import main  # noqa: E402


def _run(case: workloads.Case, tmp_path: Path) -> dict[str, bytes]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(case.text, encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([case.command, "--scenario", str(scenario), "--out", str(out), "--allow-flags"])
    assert rc == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _edit_csv(data: bytes, edit) -> bytes:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    edit(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _check(case: workloads.Case, files: dict[str, bytes]) -> list[str]:
    return oracle.check_case(case.command, case.params, case.text, files)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_deck(workload):
    assert workloads.make_deck(workload, 7) == workloads.make_deck(workload, 7)
    assert workloads.make_deck(workload, 7) != workloads.make_deck(workload, 8)


def test_sweep_deck_covers_every_solver_branch():
    deck = workloads.make_deck("sweep", 1)
    assert {(c.params["family"], c.params["convention"]) for c in deck} == {
        (f, v) for f in ("cubic", "slab") for v in workloads.CONVENTIONS
    }
    for case in deck:
        assert case.params["sizes"][0] == 1
        assert 0.0 in case.params["phi_l"]
        assert 2800 < case.params["sizes"][-1] < 3200


def test_oracle_rejects_perturbed_tau_max(tmp_path):
    case = workloads.make_deck("sweep", 3)[1]
    files = _run(case, tmp_path)
    assert _check(case, files) == []

    def perturb(rows):
        row = next(r for r in rows if not r["flag"] and float(r["phi_l"]) > 0)
        tau = float(row["tau_max_s"]) * (1 + 1e-3)
        sigma = float(row["sigma_at_tau"]) / (1 + 1e-3)
        # Keep the sigma columns consistent so only the threshold check can fire.
        row["tau_max_s"] = repr(tau)
        row["sigma_at_tau"] = repr(sigma)
        row["sigma_at_1s"] = repr(sigma * math.sqrt(tau))

    bad = dict(files, **{"stability_sweep.csv": _edit_csv(files["stability_sweep.csv"], perturb)})
    errors = oracle.check_sweep(case.params, bad["stability_sweep.csv"].decode())
    assert len(errors) == 1 and "misses threshold" in errors[0]
    assert any("hash" in e for e in _check(case, bad))


def test_oracle_rejects_perturbed_contrast(tmp_path):
    case = workloads.make_deck("curve", 3)[0]
    files = _run(case, tmp_path)
    assert _check(case, files) == []

    def perturb(rows):
        rows[len(rows) // 2]["contrast"] = repr(float(rows[len(rows) // 2]["contrast"]) + 1e-6)

    text = _edit_csv(files["dephase_curve.csv"], perturb).decode()
    errors = oracle.check_curve(case.params, text)
    assert len(errors) == 1 and "contrast" in errors[0]


def test_oracle_checks_quick_outputs(tmp_path):
    threshold, budget = workloads.make_deck("quick", 3)[:2]
    files = _run(threshold, tmp_path / "threshold")
    assert _check(threshold, files) == []
    wrong = dict(threshold.params, tau=threshold.params["tau"] * 1.01)
    assert oracle.check_threshold(wrong, files["threshold.json"].decode())
    assert _check(budget, _run(budget, tmp_path / "budget")) == []


def test_dirichlet_matches_explicit_sum_and_its_limit():
    for m in (1, 2, 7, 8, 101):
        offsets = [k - 0.5 * (m - 1) for k in range(m)]
        for theta in (0.0, 1e-3, 0.7, 2.0 * math.pi, 4.0 * math.pi, 2.0 * math.pi + 1e-13):
            explicit = math.fsum(math.cos(k * theta) for k in offsets)
            assert oracle.dirichlet(m, theta) == pytest.approx(explicit, rel=1e-9, abs=1e-9)
    assert oracle.dirichlet(8, 2.0 * math.pi) == -8.0
    assert oracle.dirichlet(8, 4.0 * math.pi) == 8.0
    assert oracle.dirichlet(7, 2.0 * math.pi) == 7.0


def test_self_times_on_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("a.leaf", 2.0, 3.0, 1, 1),
        spans.Span("b", 3.0, 6.0, 0, 1),  # overlaps a: the union 1..6 counts once
        spans.Span("c", 8.0, 9.0, 0, 1),
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_tracer_records_parents_and_invocations():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.new_trace()
    assert outer(1) == 4
    tracer.new_trace()
    assert inner(5) == 6
    got = [(s.name, s.parent, s.trace_id) for s in tracer.spans]
    assert got == [("outer", None, 1), ("inner", 0, 1), ("inner", None, 2)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_import_owners_attribute_nested_imports():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        150 |   numpy",
            "import time:        30 |         30 |       numpy.ma",
            "import time:        20 |         20 |       inspect",
            "import time:        10 |         60 |     scipy.optimize",
            "import time:         5 |         65 |   scipy",
            "import time:         7 |          7 |   argparse",
            "import time:         3 |        225 | gravclock",
        ]
    )
    rows = spans.parse_importtime(stderr)
    assert [r[1] for r in rows] == [2, 1, 3, 3, 2, 1, 1, 0]
    owned = spans.import_owners(rows, ("numpy", "scipy", "gravclock"))
    assert owned == pytest.approx({"numpy": 150e-6, "scipy": 65e-6, "gravclock": 10e-6})


def test_calibration_scales_by_the_references_around_each_sample(monkeypatch):
    refs = iter([(0.02, 0.01), (0.04, 0.03), (0.01, 0.03), (0.01, 0.01)])
    monkeypatch.setattr(speed, "kernel", lambda: 0.0)
    monkeypatch.setattr(speed, "reference_s", lambda: next(refs))
    monkeypatch.setattr(speed, "KERNEL_NOMINAL_S", 0.01)
    monkeypatch.setattr(speed, "START_NOMINAL_S", 0.02)
    calibrator = speed.Calibrator()
    # In-process samples scale by the kernel alone, fresh-process ones by
    # kernel plus interpreter start, each averaged over the sample's ends.
    assert calibrator.calibrate(3.0) == pytest.approx(3.0 * 0.01 / 0.03)
    assert calibrator.calibrate(1.0, fresh=True) == pytest.approx(1.0 * 0.03 / 0.055)
    assert calibrator.calibrate(1.0, fresh=True) == pytest.approx(1.0 * 0.03 / 0.03)
    assert calibrator.factors == pytest.approx([0.01 / 0.03, 0.03 / 0.055, 0.03 / 0.03])
