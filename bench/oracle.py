"""Correctness oracle for gravclock outputs, from the benchmark's own closed forms.

Nothing here imports gravclock. The layer sum over m symmetric layer offsets
has the Dirichlet form

    S_y = sin(phi_l t) D_m(theta),  |S| = |D_m(theta)|,
    D_m(theta) = sin(m theta / 2) / sin(theta / 2),  theta = phi_g' t,

with the limit D_m = (-1)^((m-1) j) m at theta = 2 pi j. Every check returns
a list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# Yb clock (the package's built-in species) and the constants it uses.
OMEGA0 = 2.0 * math.pi * 5.18295e14
MAGIC_WAVELENGTH = 759.356e-9
G = 9.80665
C = 2.99792458e8
LAYER_SPACING = MAGIC_WAVELENGTH / 2.0
PHI_G = OMEGA0 * G * LAYER_SPACING / (C * C)

TAU_CAP_S = 1e9
# solve_tau_max stops once the error is within this share of the threshold.
SOLVER_RESIDUAL_REL = 1e-4
# Closed form against the compensated explicit sum: both are accurate to a
# few ulps of the phases, far below this.
FORM_TOL = 1e-9
# Scan grid of the "no crossing up to the cap" check: 32 points per decade.
_SCAN = tuple(1e-6 * 10.0 ** (i / 32) for i in range(32 * 15 + 1))

FLAG_CAPPED = "non-bracketable"


def dirichlet(m: int, theta: float) -> float:
    """D_m(theta) = sin(m theta/2)/sin(theta/2), with its limit at theta = 2 pi j."""
    half = 0.5 * theta
    denom = math.sin(half)
    if abs(denom) < 1e-12:
        j = round(theta / (2.0 * math.pi))
        return -float(m) if ((m - 1) * j) % 2 else float(m)
    return math.sin(m * half) / denom


def effective_rate(m: int, convention: str) -> float:
    """phi_g' for m layers: paper-figure scales the per-layer rate by m - 1 gaps."""
    return PHI_G * (m - 1) if convention == "paper-figure" else PHI_G


def phase_ratio(phi_l: float, rate: float, m: int, t: float) -> float | None:
    """asin(S_y/m) / (phi_l t); None where the nominal phase is zero."""
    nominal = phi_l * t
    if nominal == 0.0:
        return None
    s_y = math.sin(nominal) * dirichlet(m, rate * t)
    return math.asin(max(-1.0, min(1.0, s_y / m))) / nominal


def contrast(rate: float, m: int, t: float) -> float:
    return abs(dirichlet(m, rate * t)) / m


def dephasing_error(phi_l: float, rate: float, m: int, t: float) -> float:
    """tau_max criterion: phase-ratio error, or contrast loss when phi_l = 0."""
    if phi_l == 0.0:
        return 1.0 - contrast(rate, m, t)
    return abs(1.0 - phase_ratio(phi_l, rate, m, t))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def sweep_geometry(params: dict, size: int) -> tuple[int, int]:
    """(layer_count, atoms_per_layer) of one sweep cell."""
    if params["family"] == "cubic":
        return size + 1, size * size
    return size, params["atoms_per_layer"]


def check_sweep(params: dict, text: str) -> list[str]:
    rows = _rows(text)
    cells = [(s, p) for s in params["sizes"] for p in params["phi_l"]]
    if len(rows) != len(cells):
        return [f"stability_sweep.csv has {len(rows)} rows, expected {len(cells)}"]
    errors = []
    for row, (size, phi_l) in zip(rows, cells):
        where = f"cell size={size} phi_l={phi_l!r}"
        if (
            row["geometry"] != params["family"]
            or int(row["size"]) != size
            or float(row["phi_l"]) != phi_l
            or row["convention"] != params["convention"]
        ):
            errors.append(f"{where}: row labels {row}")
            continue
        m, apl = sweep_geometry(params, size)
        rate = effective_rate(m, params["convention"])
        thr = 1.0 / math.sqrt(apl)
        tau = float(row["tau_max_s"])
        sigma_tau = float(row["sigma_at_tau"])
        if not _close(sigma_tau, 1.0 / (OMEGA0 * tau * math.sqrt(apl))):
            errors.append(f"{where}: sigma_at_tau {sigma_tau!r} is not the per-layer SQL")
        if not _close(float(row["sigma_at_1s"]), sigma_tau * math.sqrt(tau)):
            errors.append(f"{where}: sigma_at_1s != sigma_at_tau * sqrt(tau_max_s)")
        if row["flag"] == FLAG_CAPPED:
            if tau != TAU_CAP_S:
                errors.append(f"{where}: capped cell reports tau_max_s {tau!r}")
            worst = max(dephasing_error(phi_l, rate, m, t) for t in _SCAN)
            if worst > thr * (1.0 + FORM_TOL):
                errors.append(f"{where}: capped, but the error reaches {worst!r} > {thr!r}")
        elif row["flag"]:
            errors.append(f"{where}: unexpected flag {row['flag']!r}")
        else:
            err = dephasing_error(phi_l, rate, m, tau)
            if abs(err - thr) > SOLVER_RESIDUAL_REL * thr + FORM_TOL:
                errors.append(
                    f"{where}: error {err!r} at tau_max_s={tau!r} misses threshold {thr!r}"
                )
    return errors


def curve_times(params: dict) -> list[float]:
    n, t_end = params["points"], params["t_end"]
    return [t_end * i / (n - 1) for i in range(n)]


def check_curve(params: dict, text: str) -> list[str]:
    rows = _rows(text)
    times = curve_times(params)
    expected = [(s, t) for s in params["sizes"] for t in times]
    if len(rows) != len(expected):
        return [f"dephase_curve.csv has {len(rows)} rows, expected {len(expected)}"]
    phi_l = params["phi_l"]
    errors = []
    for row, (size, t_nominal) in zip(rows, expected):
        t = float(row["t_s"])
        where = f"row n_site={size} t={t!r}"
        if (
            int(row["n_site"]) != size
            or not math.isclose(t, t_nominal, rel_tol=1e-12, abs_tol=1e-12)
            or float(row["phi_l"]) != phi_l
            or row["convention"] != params["convention"]
        ):
            errors.append(f"{where}: row labels {row}")
            continue
        m = size + 1
        rate = effective_rate(m, params["convention"])
        want_contrast = contrast(rate, m, t)
        got_contrast = float(row["contrast"])
        if abs(got_contrast - want_contrast) > FORM_TOL:
            errors.append(f"{where}: contrast {got_contrast!r}, closed form {want_contrast!r}")
        want_ratio = phase_ratio(phi_l, rate, m, t)
        if want_ratio is None:
            if row["ratio"] != "":
                errors.append(f"{where}: ratio {row['ratio']!r} where phi_l t = 0")
        elif row["ratio"] == "" or abs(float(row["ratio"]) - want_ratio) > FORM_TOL * max(
            1.0, abs(want_ratio)
        ):
            errors.append(f"{where}: ratio {row['ratio']!r}, closed form {want_ratio!r}")
    return errors


def threshold_sizes(tau: float) -> tuple[float, float]:
    """(per-layer, halves) critical sizes: sqrt(k) and (sqrt(2) k)^0.4."""
    k = C * C / (OMEGA0 * tau * G * LAYER_SPACING)
    return math.sqrt(k), (math.sqrt(2.0) * k) ** 0.4


def check_threshold(params: dict, text: str) -> list[str]:
    doc = json.loads(text)
    errors = []
    if not _close(float(doc["tau_s"]), params["tau"]):
        errors.append(f"threshold tau_s {doc['tau_s']!r} != scenario tau {params['tau']!r}")
    for key, n_star in zip(("per_layer", "halves"), threshold_sizes(params["tau"])):
        block = doc[key]
        if not _close(float(block["n_star"]), n_star, rel=1e-9):
            errors.append(f"threshold {key}.n_star {block['n_star']!r}, closed form {n_star!r}")
        n = block["n_int"]
        if n != round(n_star) or block["total_atoms"] != n * n * (n + 1):
            errors.append(f"threshold {key}: n_int/total_atoms {n}/{block['total_atoms']}")
    return errors


def check_budget(params: dict, text: str) -> list[str]:
    doc = json.loads(text)
    errors = []
    if doc["n_site"] != params["n_site"]:
        errors.append(f"budget n_site {doc['n_site']!r} != {params['n_site']!r}")
    if doc["lattice_intensity"]["closed_form_agrees"] is not True:
        errors.append("budget: lattice intensity extrema disagree with the closed form")
    return errors


_CHECKS = {
    "stability-sweep": ("stability_sweep.csv", check_sweep),
    "dephase-curve": ("dephase_curve.csv", check_curve),
    "threshold": ("threshold.json", check_threshold),
    "budget": ("budget.json", check_budget),
}


def check_record(scenario_text: str, files: dict[str, bytes]) -> list[str]:
    """run_record.json names every other output with its true SHA-256 and size."""
    if "run_record.json" not in files:
        return ["run_record.json missing"]
    record = json.loads(files["run_record.json"])
    errors = []
    if record["scenario_sha256"] != hashlib.sha256(scenario_text.encode()).hexdigest():
        errors.append("run_record scenario_sha256 does not match the scenario file")
    listed = set()
    for entry in record["outputs"]:
        name = entry["name"]
        listed.add(name)
        data = files.get(name)
        if data is None:
            errors.append(f"run_record lists {name}, which was not written")
        elif entry["sha256"] != hashlib.sha256(data).hexdigest() or entry["bytes"] != len(data):
            errors.append(f"run_record hash or size of {name} does not match the file")
    unlisted = set(files) - listed - {"run_record.json"}
    if unlisted:
        errors.append(f"outputs missing from run_record: {sorted(unlisted)}")
    return errors


def check_case(command: str, params: dict, scenario_text: str, files: dict[str, bytes]) -> list[str]:
    """Every check that applies to one invocation's output files."""
    name, check = _CHECKS[command]
    errors = check_record(scenario_text, files)
    if name not in files:
        return errors + [f"{name} missing"]
    try:
        return errors + check(params, files[name].decode("utf-8"))
    except (KeyError, ValueError, TypeError) as exc:
        return errors + [f"{name} unreadable: {exc!r}"]


def composition(command: str, params: dict, files: dict[str, bytes]) -> dict:
    """Input properties a later change may help only a share of.

    capped_cells: sweep cells with no crossing up to the cap; contrast_cells:
    sweep cells on the phi_l = 0 criterion; fold_rows: curve rows with
    |phi_l t| > pi/2; layers: layer count of every unit of work.
    """
    counts = {"capped_cells": 0, "contrast_cells": 0, "fold_rows": 0, "layers": []}
    if command == "stability-sweep":
        for row in _rows(files["stability_sweep.csv"].decode("utf-8")):
            m, _ = sweep_geometry(params, int(row["size"]))
            counts["layers"].append(m)
            counts["capped_cells"] += row["flag"] == FLAG_CAPPED
            counts["contrast_cells"] += float(row["phi_l"]) == 0.0
    elif command == "dephase-curve":
        times = curve_times(params)
        fold = sum(abs(params["phi_l"] * t) > 0.5 * math.pi for t in times)
        for size in params["sizes"]:
            counts["layers"].extend([size + 1] * len(times))
            counts["fold_rows"] += fold
    elif command == "budget":
        counts["layers"].append(params["n_site"] + 1)
    return counts
