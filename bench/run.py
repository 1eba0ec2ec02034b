"""gravclock benchmark: seeded scenario decks run through the real CLI.

    python3 bench/run.py --workload sweep|curve|quick --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its src/ directory, nothing needs installing. The load is a closed loop: one
client, one invocation after another, from this single process.

--trace 0 prints the end-to-end metrics, from untraced runs:
  setup_s      median time of a fresh interpreter that imports
               gravclock.cli and parses the workload's scenario files
  run_s.p50    median time of one fresh-process `gravclock <cmd>`: the
               median of each scenario's invocations, averaged over the
               deck (the scenarios differ in cost, and a median over all
               of them would jump between their clusters)
  units_per_s  warm in-process throughput of gravclock.cli.main, in sweep
               cells, curve rows or invocations per second (median over
               samples of whole deck passes, at least SAMPLE_MIN_S each)
  peak_rss_mb  median peak resident memory of a fresh-process invocation
The measuring window interleaves fresh-process invocations with in-process
deck passes, so both sample the same machine conditions. The three times
are calibrated seconds (see speed.py): each sample's wall time is scaled by
the machine's speed on a fixed reference timed right around it, so
the shared host's drift cancels; the benchmark and its child processes run
pinned to one CPU, so the reference measures the CPU the timed code ran on.
The lines above the result also give the raw wall-clock medians and the
median speed factor.

--trace 1 prints the per-layer metrics: spans recorded around the calls
into each module (see spans.py), `-X importtime` shares, kernel
micro-timings and workload-composition counts. Per-pass figures are per
whole deck pass (the median over traced passes). Their times are wall
times scaled by the run's median speed factor, a coarser calibration than
the end-to-end one.

Every invocation is an operation. It fails on an unexpected exit code, an
oracle mismatch (oracle.py), a run_record.json that does not match the
files, or output bytes (files and stdout) that differ from the first run of
the same scenario, fresh-process or in-process. failed_ratio is
failed / attempted of the result line. The last line of stdout is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "gravclock"

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
MICRO_BATCHES = 7
MICRO_BATCH_S = 0.02
# A warm sample runs whole deck passes for at least this long, and its wall
# time is calibrated in chunks of at least this long.
SAMPLE_MIN_S = 0.3
MAX_ERRORS_SHOWN = 10

UNIT_NAMES = {"sweep": "cells", "curve": "rows", "quick": "invocations"}

SETUP_CODE = """\
import sys
import gravclock.cli
from gravclock.scenario import parse_scenario
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        parse_scenario(handle.read())
"""

CLI_CODE = "import sys\nfrom gravclock.cli import main\nsys.exit(main())\n"

# (module looked up in sys.modules, attribute, span name). Each function is
# wrapped at the name its caller looks up.
TRACED = (
    ("gravclock.cli", "parse_scenario", "scenario.parse_scenario"),
    ("gravclock.cli", "sweep", "sweep.sweep"),
    ("gravclock.cli", "assemble_budget", "systematics.assemble_budget"),
    ("gravclock.cli", "csv_text", "emit.csv_text"),
    ("gravclock.cli", "json_text", "emit.json_text"),
    ("gravclock.cli", "run_record", "emit.run_record"),
    ("gravclock.cli", "write_outputs", "emit.write_outputs"),
    ("gravclock.dephasing", "bloch_sum", "dephasing.bloch_sum"),
    ("gravclock.sweep", "solve_tau_max", "thresholds.solve_tau_max"),
    ("gravclock.systematics", "lattice_intensity_ratio", "systematics.lattice_intensity_ratio"),
    ("gravclock.systematics", "bbr_temperature_limit", "systematics.bbr_temperature_limit"),
)


def _count_layers(tracer, args, result):
    tracer.count("dephasing.layer_terms", args[0].layer_count)


def _count_tau_max(tracer, args, result):
    tracer.count("thresholds.bracketed", bool(result.bracketed))
    tracer.count("thresholds.contrast_cells", result.criterion == "contrast")


def _count_bytes(tracer, args, result):
    tracer.count("emit.bytes_written", sum(len(t.encode("utf-8")) for t in args[1].values()))


HOOKS = {
    "dephasing.bloch_sum": _count_layers,
    "thresholds.solve_tau_max": _count_tau_max,
    "emit.write_outputs": _count_bytes,
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Checker:
    """Counts operations and failures; the first correct output of each
    scenario, checked by the oracle, is the reference later ones must equal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, tuple[dict[str, bytes], bytes]] = {}
        self.composition: dict[str, dict] = {}

    def record(self, case: workloads.Case, rc, files: dict[str, bytes], stdout: bytes) -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}"]
        elif case.name in self.reference:
            same = self.reference[case.name] == (files, stdout)
            problems = [] if same else ["output bytes differ from the first run"]
        else:
            problems = oracle.check_case(case.command, case.params, case.text, files)
            if not problems:
                self.reference[case.name] = (files, stdout)
                self.composition[case.name] = oracle.composition(
                    case.command, case.params, files
                )
        if problems:
            self.failed += 1
            self.errors.append(f"{case.name}: {problems[0]} ({len(problems)} problems)")


def read_outputs(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.deck = workloads.make_deck(workload, seed)
        self.work = work
        self.checker = Checker()
        self.env = {k: v for k, v in os.environ.items() if k != "GRAVCLOCK_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.paths = {}
        for case in self.deck:
            path = work / f"{case.name}.cfg"
            path.write_text(case.text, encoding="utf-8")
            self.paths[case.name] = path
        self.main = None
        self.calibrator: speed.Calibrator | None = None
        self.passes_per_sample = 1

    def argv(self, case: workloads.Case, out: Path) -> list[str]:
        return [
            case.command,
            "--scenario",
            str(self.paths[case.name]),
            "--out",
            str(out),
            "--allow-flags",
        ]

    def spawn(self, args: list[str], stdout, stderr) -> tuple[float, float, int]:
        """Run one child to completion: (wall s, peak RSS MB, exit code)."""
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=stdout, stderr=stderr, env=self.env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def fresh(self, case: workloads.Case) -> tuple[float, float]:
        """One fresh-process invocation, checked: (wall s, peak RSS MB)."""
        out = self.work / case.name / "fresh"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / case.name / "fresh.stdout"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as stdout:
            wall, rss, rc = self.spawn(
                [sys.executable, "-c", CLI_CODE, *self.argv(case, out)], stdout, None
            )
        self.checker.record(case, rc, read_outputs(out), log.read_bytes())
        return wall, rss

    def warm(self, case: workloads.Case, main) -> float:
        """One in-process call of gravclock.cli.main, checked: wall s."""
        out = self.work / case.name / "warm"
        shutil.rmtree(out, ignore_errors=True)
        buffer = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = main(self.argv(case, out))
        except (Exception, SystemExit) as exc:
            rc = f"raised {exc!r}"
        wall = time.perf_counter() - start
        self.checker.record(case, rc, read_outputs(out), buffer.getvalue().encode("utf-8"))
        return wall

    def warm_sample(self, main) -> tuple[float, float]:
        """Units per second over passes_per_sample in-process passes over the
        whole deck: (calibrated, wall). The wall time is calibrated in chunks
        of at least SAMPLE_MIN_S, so the reference follows speed changes
        within the sample."""
        busy = calibrated = pending = 0.0
        for _ in range(self.passes_per_sample):
            for case in self.deck:
                wall = self.warm(case, main)
                busy += wall
                pending += wall
                if pending >= SAMPLE_MIN_S:
                    calibrated += self.calibrator.calibrate(pending)
                    pending = 0.0
        if pending:
            calibrated += self.calibrator.calibrate(pending)
        units = self.passes_per_sample * sum(case.units for case in self.deck)
        return units / calibrated, units / busy

    def warm_up(self) -> None:
        """One untimed in-process deck pass; it also sizes warm samples."""
        busy = sum(self.warm(case, self.main) for case in self.deck)
        self.passes_per_sample = max(1, math.ceil(SAMPLE_MIN_S / busy))

    def setup_samples(self) -> tuple[list[float], list[float]]:
        """Set-up interpreter times: (calibrated, wall)."""
        args = [sys.executable, "-c", SETUP_CODE, *(str(p) for p in self.paths.values())]
        samples, walls = [], []
        for _ in range(SETUP_SAMPLES):
            wall, _, rc = self.spawn(args, subprocess.DEVNULL, None)
            if rc != 0:
                raise RuntimeError(f"set-up interpreter exited with {rc}")
            samples.append(self.calibrator.calibrate(wall, fresh=True))
            walls.append(wall)
        return samples, walls

    def import_program(self):
        sys.path.insert(0, str(SRC))
        import gravclock.cli

        location = Path(gravclock.cli.__file__).resolve()
        if SRC.resolve() not in location.parents:
            raise RuntimeError(f"gravclock imported from {location}, not from {SRC}")
        self.main = gravclock.cli.main
        return self.main

    def per_scenario_median(self, times: list[float]) -> float:
        """Mean over the deck of each scenario's median; times cycle
        through the deck in order."""
        n = len(self.deck)
        return statistics.fmean(median(times[i::n]) for i in range(n))

    def measure(self, seconds: float) -> dict:
        """Interleave single fresh-process invocations with warm samples,
        keeping their busy time level, so both sample the whole window.

        Fresh invocations cycle through the deck; once the time is up only
        the current cycle is finished, so every scenario is timed equally
        often.
        """
        fresh_s, fresh_wall, fresh_rss, rates, wall_rates = [], [], [], [], []
        fresh_busy = warm_busy = 0.0
        start = time.perf_counter()
        while True:
            time_up = time.perf_counter() - start >= seconds
            if time_up and rates and not len(fresh_wall) % len(self.deck):
                break
            # After the time is up, finish the fresh cycle (one warm pass first if none ran).
            fresh_due = bool(rates) if time_up else fresh_busy <= warm_busy
            begin = time.perf_counter()
            if fresh_due:
                wall, rss = self.fresh(self.deck[len(fresh_wall) % len(self.deck)])
                fresh_s.append(self.calibrator.calibrate(wall, fresh=True))
                fresh_wall.append(wall)
                fresh_rss.append(rss)
                fresh_busy += time.perf_counter() - begin
            else:
                rate, wall_rate = self.warm_sample(self.main)
                rates.append(rate)
                wall_rates.append(wall_rate)
                warm_busy += time.perf_counter() - begin
        return {
            "fresh_s": fresh_s,
            "fresh_wall": fresh_wall,
            "fresh_rss": fresh_rss,
            "rates": rates,
            "wall_rates": wall_rates,
        }


def trace_passes(bench: Bench, seconds: float):
    """Alternate untraced and traced warm passes; aggregate spans per pass."""
    bench.passes_per_sample = 1
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", bench.main)
    untraced_rates, traced_rates, passes = [], [], []
    durations: dict[str, list[float]] = {}
    missing = []

    def fresh_trace_main(argv):
        tracer.new_trace()
        return traced_main(argv)

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_rates) < 2:
        untraced_rates.append(bench.warm_sample(bench.main)[0])
        tracer.spans.clear()
        tracer.counters.clear()
        for module, attr, name in TRACED:
            if not tracer.patch(module, attr, name, HOOKS.get(name)):
                missing.append(f"{module}.{attr}")
        try:
            traced_rates.append(bench.warm_sample(fresh_trace_main)[0])
        finally:
            tracer.restore()
        selfs = spans.self_times(tracer.spans)
        agg: dict[str, dict[str, float]] = {}
        for span, own in zip(tracer.spans, selfs):
            entry = agg.setdefault(span.name, {"calls": 0, "busy": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["busy"] += span.end - span.start
            entry["self"] += own
            durations.setdefault(span.name, []).append(span.end - span.start)
        passes.append((agg, dict(tracer.counters)))
    return untraced_rates, traced_rates, passes, durations, sorted(set(missing))


def import_shares(bench: Bench) -> dict[str, float]:
    samples = {"numpy": [], "scipy": [], "gravclock": []}
    log = bench.work / "importtime.stderr"
    for _ in range(IMPORTTIME_SAMPLES):
        with open(log, "wb") as stderr:
            _, _, rc = bench.spawn(
                [sys.executable, "-X", "importtime", "-c", "import gravclock.cli"],
                subprocess.DEVNULL,
                stderr,
            )
        if rc != 0:
            raise RuntimeError(f"-X importtime interpreter exited with {rc}")
        rows = spans.parse_importtime(log.read_text(encoding="utf-8", errors="replace"))
        owned = spans.import_owners(rows, ("numpy", "scipy", "gravclock"))
        for name, value in owned.items():
            samples[name].append(value)
    return {name: median(values) for name, values in samples.items()}


def per_call(fn) -> float:
    """Median seconds per call over MICRO_BATCHES batches of about MICRO_BATCH_S."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= MICRO_BATCH_S:
            break
        n *= 2
    batches = []
    for _ in range(MICRO_BATCHES):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        batches.append((time.perf_counter() - start) / n)
    return statistics.median(batches)


def micro_timings(errors: list[str]) -> dict[str, float]:
    """Kernel micro-timings, each checked against the oracle's closed form.

    The operation and byte counts are computed, not measured, from the
    explicit O(m) layer sum in bloch_sum: per layer 4 array arithmetic ops
    (offset, scale, shift, times t), 2 transcendentals (cos, sin) and 2
    summation adds; 15 passes over m float64 values (8 reads, 7 writes).
    """
    dephasing = sys.modules["gravclock.dephasing"]
    thresholds = sys.modules["gravclock.thresholds"]
    systematics = sys.modules["gravclock.systematics"]
    metrics = {}
    for m in (101, 1001):
        point = dephasing.DephasingInput(
            phi_l=1e-5, phi_g=oracle.PHI_G, layer_count=m, t=30.0
        )
        summary = dephasing.bloch_sum(point)
        want = oracle.contrast(oracle.PHI_G, m, 30.0)
        if abs(summary.length / m - want) > oracle.FORM_TOL:
            errors.append(f"bloch_sum m={m}: contrast {summary.length / m!r}, closed form {want!r}")
        metrics[f"dephasing.bloch_sum.m{m}_us"] = per_call(
            lambda: dephasing.bloch_sum(point)
        ) * 1e6
        metrics[f"dephasing.bloch_sum.m{m}_ops_computed"] = 8 * m
        metrics[f"dephasing.bloch_sum.m{m}_bytes_computed"] = 15 * 8 * m

    # The paper's ~60 s interrogation cap: cube of 200 sites, phi_l = 1e-2.
    problem = thresholds.TauMaxProblem.cubic(200, 1e-2, dephasing.Convention.PAPER_FIGURE)
    result = thresholds.solve_tau_max(problem)
    err = oracle.dephasing_error(1e-2, oracle.PHI_G * 200, 201, result.tau_s)
    thr = 1.0 / 200
    if not result.bracketed or abs(err - thr) > oracle.SOLVER_RESIDUAL_REL * thr + oracle.FORM_TOL:
        errors.append(f"tau_max cell: tau {result.tau_s!r} misses the threshold ({err!r})")
    metrics["thresholds.tau_max_cell_ms"] = per_call(
        lambda: thresholds.solve_tau_max(problem)
    ) * 1e3

    if not systematics.assemble_budget().intensity.closed_form_agrees:
        errors.append("assemble_budget: intensity extrema disagree with the closed form")
    metrics["systematics.assemble_budget_us"] = per_call(systematics.assemble_budget) * 1e6
    return metrics


def composition_metrics(bench: Bench) -> dict[str, float]:
    totals = {"capped_cells": 0, "contrast_cells": 0, "fold_rows": 0}
    layers: list[int] = []
    for counts in bench.checker.composition.values():
        for key in totals:
            totals[key] += counts[key]
        layers.extend(counts["layers"])
    return {
        "workload.units": sum(case.units for case in bench.deck),
        "workload.capped_cells": totals["capped_cells"],
        "workload.contrast_cells": totals["contrast_cells"],
        "workload.fold_rows": totals["fold_rows"],
        "workload.layers.min": min(layers, default=0),
        "workload.layers.p50": percentile(layers, 0.5),
        "workload.layers.max": max(layers, default=0),
    }


def per_layer(bench: Bench, seconds: float, errors: list[str]) -> tuple[dict, list[str]]:
    notes = []
    untraced, traced, passes, durations, missing = trace_passes(bench, 0.7 * seconds)
    for name in missing:
        notes.append(f"trace: {name} not found; its spans are absent")

    def per_pass(name: str, field: str) -> float:
        return median([agg.get(name, {}).get(field, 0.0) for agg, _ in passes])

    def counter(name: str) -> float:
        return median([counts.get(name, 0) for _, counts in passes])

    tau_calls = per_pass("thresholds.solve_tau_max", "calls")
    bloch = durations.get("dephasing.bloch_sum", [])
    tau = durations.get("thresholds.solve_tau_max", [])
    imports = import_shares(bench)
    metrics = {
        "import.numpy_s": imports["numpy"],
        "import.scipy_s": imports["scipy"],
        "import.gravclock_s": imports["gravclock"],
        "scenario.parse_scenario.busy_s": per_pass("scenario.parse_scenario", "busy"),
        "scenario.parse_scenario.calls": per_pass("scenario.parse_scenario", "calls"),
        "dephasing.bloch_sum.calls": per_pass("dephasing.bloch_sum", "calls"),
        "dephasing.bloch_sum.busy_s": per_pass("dephasing.bloch_sum", "busy"),
        "dephasing.bloch_sum.us.p50": percentile(bloch, 0.50) * 1e6,
        "dephasing.bloch_sum.us.p99": percentile(bloch, 0.99) * 1e6,
        "dephasing.layer_terms": counter("dephasing.layer_terms"),
        "thresholds.solve_tau_max.calls": tau_calls,
        "thresholds.solve_tau_max.busy_s": per_pass("thresholds.solve_tau_max", "busy"),
        "thresholds.solve_tau_max.ms.p50": percentile(tau, 0.50) * 1e3,
        "thresholds.solve_tau_max.ms.p99": percentile(tau, 0.99) * 1e3,
        "thresholds.bracketed_ratio": (
            counter("thresholds.bracketed") / tau_calls if tau_calls else 0.0
        ),
        "thresholds.contrast_cells": counter("thresholds.contrast_cells"),
        "sweep.sweep.busy_s": per_pass("sweep.sweep", "busy"),
        "sweep.sweep.self_s": per_pass("sweep.sweep", "self"),
        "systematics.assemble_budget.busy_s": per_pass("systematics.assemble_budget", "busy"),
        "systematics.lattice_intensity_ratio.busy_s": per_pass(
            "systematics.lattice_intensity_ratio", "busy"
        ),
        "systematics.bbr_temperature_limit.busy_s": per_pass(
            "systematics.bbr_temperature_limit", "busy"
        ),
        "emit.csv_text.busy_s": per_pass("emit.csv_text", "busy"),
        "emit.json_text.busy_s": per_pass("emit.json_text", "busy"),
        "emit.run_record.busy_s": per_pass("emit.run_record", "busy"),
        "emit.write_outputs.busy_s": per_pass("emit.write_outputs", "busy"),
        "emit.bytes_written": counter("emit.bytes_written"),
        "cli.main.busy_s": per_pass("cli.main", "busy"),
        "cli.main.self_s": per_pass("cli.main", "self"),
        "trace.overhead_ratio": median(traced) / median(untraced),
    }
    metrics.update(micro_timings(errors))
    factor = median(bench.calibrator.factors)
    for name in metrics:
        if unit_of(name) in ("s", "ms", "us"):
            metrics[name] *= factor
    notes.append(f"per-layer times scaled by the run's median speed factor {factor:.4g}")
    metrics.update(composition_metrics(bench))
    main_busy = metrics["cli.main.busy_s"]
    for name in ("thresholds.solve_tau_max.busy_s", "dephasing.bloch_sum.busy_s", "cli.main.self_s"):
        share = metrics[name] / main_busy if main_busy else 0.0
        notes.append(f"share of cli.main.busy_s: {name} {share:.1%}")
    notes.append(
        f"samples: {len(passes)} traced and {len(untraced)} untraced passes,"
        f" {len(bloch)} bloch_sum spans, {len(tau)} solve_tau_max spans,"
        f" {IMPORTTIME_SAMPLES} importtime runs"
    )
    return metrics, notes


UNITS = {
    "_s": "s",
    "_ms": "ms",
    "_us": "us",
    ".ms.p50": "ms",
    ".ms.p99": "ms",
    ".us.p50": "us",
    ".us.p99": "us",
    "_ratio": "ratio",
    "_bytes_computed": "B",
    "bytes_written": "B",
    "_mb": "MB",
    "units_per_s": "1/s",
    "run_s.p50": "s",
}


def unit_of(name: str) -> str:
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    return "count"


def environment(pinning: str) -> str:
    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    return (
        f"env: python {platform.python_version()},"
        f" numpy {getattr(numpy, '__version__', 'not loaded')},"
        f" scipy {getattr(scipy, '__version__', 'not loaded')},"
        f" nproc {os.cpu_count()}, {pinning}, GRAVCLOCK_THREADS unset,"
        f" {platform.machine()}"
    )


def run(args) -> int:
    if not (SRC / "gravclock" / "cli.py").is_file():
        print(f"bench: no gravclock sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GRAVCLOCK_THREADS", None)
    pinning = speed.pin_one_cpu()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        # Untimed warm-up: fills the bytecode cache under src/.
        bench.fresh(bench.deck[0])
        bench.calibrator = speed.Calibrator()
        lines, errors = [], []
        if args.trace:
            bench.import_program()
            bench.warm_up()
            metrics, notes = per_layer(bench, args.seconds, errors)
            lines.extend(notes)
        else:
            setup, setup_wall = bench.setup_samples()
            bench.import_program()
            bench.warm_up()
            sample = bench.measure(args.seconds)
            metrics = {
                "setup_s": median(setup),
                "run_s.p50": bench.per_scenario_median(sample["fresh_s"]),
                "units_per_s": median(sample["rates"]),
                "peak_rss_mb": median(sample["fresh_rss"]),
            }
            lines.append(
                f"samples: setup_s n={len(setup)}, run_s and peak_rss_mb"
                f" n={len(sample['fresh_wall'])}, units_per_s n={len(sample['rates'])}"
                f" samples of {bench.passes_per_sample} passes of"
                f" {sum(c.units for c in bench.deck)} {UNIT_NAMES[args.workload]}"
            )
            lines.append(
                f"wall clock: setup {median(setup_wall):.4g} s,"
                f" run p50 {bench.per_scenario_median(sample['fresh_wall']):.4g} s,"
                f" {median(sample['wall_rates']):.5g} {UNIT_NAMES[args.workload]}/s;"
                f" median speed factor {median(bench.calibrator.factors):.4g}"
                f" (reference nominal {speed.KERNEL_NOMINAL_S} s kernel"
                f" + {speed.START_NOMINAL_S} s interpreter start)"
            )
        checker = bench.checker
        errors = checker.errors + errors
        lines.append(environment(pinning))
        lines.append(
            f"failed_ratio {checker.failed / checker.attempted:.6g}"
            f" ({checker.failed} of {checker.attempted} operations)"
        )
        lines.extend(f"error: {e}" for e in errors[:MAX_ERRORS_SHOWN])
        result = {
            "correct": not errors,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
            },
        }
        for name, value in metrics.items():
            lines.append(f"{name:48s} {value:>16.6g} {unit_of(name)}")
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
