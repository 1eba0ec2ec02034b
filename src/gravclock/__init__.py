"""Gravitational-redshift dephasing of lattice-clock atomic ensembles.

Deterministic calculators for how Earth's gravity dephases a coherent spin
state spread over the layers of an optical lattice clock: redshift and
quantum-projection-noise formulas, Bloch-vector dephasing curves, decoherence
thresholds, best-stability sweeps, and a systematic-shift budget.
"""

__version__ = "0.1.0"

from .core import (
    PhysicalConstants,
    ClockSpecies,
    InterrogationParams,
    YB,
    relative_redshift,
    per_layer_phase_rate,
    qpn_stability,
    per_layer_sql,
)
from .dephasing import (
    Convention,
    DephasingInput,
    BlochSummary,
    bloch_sum,
    contrast_closed_form,
    dephase_curve,
)
from .thresholds import (
    Partition,
    ThresholdProblem,
    TauMaxProblem,
    SizeSolution,
    TauMaxResult,
    solve_decoherence_size,
    decoherence_atom_count,
    solve_tau_max,
)
from .sweep import (
    SweepSpec,
    StabilityPoint,
    best_stability_at_1s,
    sweep,
    scaling_exponent,
)
from .systematics import (
    SystematicsCoefficients,
    GaussianBeam,
    BbrGeometry,
    BudgetEntry,
    BudgetAssumptions,
    gravitational_signal,
    allowed_b_gradient,
    p2_calibration_shift,
    second_order_zeeman_check,
    allowed_e_gradient,
    lattice_intensity_ratio,
    ac_stark_entry,
    bbr_differential,
    bbr_temperature_limit,
    assemble_budget,
)
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario

__all__ = [
    "PhysicalConstants",
    "ClockSpecies",
    "InterrogationParams",
    "YB",
    "relative_redshift",
    "per_layer_phase_rate",
    "qpn_stability",
    "per_layer_sql",
    "Convention",
    "DephasingInput",
    "BlochSummary",
    "bloch_sum",
    "contrast_closed_form",
    "dephase_curve",
    "Partition",
    "ThresholdProblem",
    "TauMaxProblem",
    "SizeSolution",
    "TauMaxResult",
    "solve_decoherence_size",
    "decoherence_atom_count",
    "solve_tau_max",
    "SweepSpec",
    "StabilityPoint",
    "best_stability_at_1s",
    "sweep",
    "scaling_exponent",
    "SystematicsCoefficients",
    "GaussianBeam",
    "BbrGeometry",
    "BudgetEntry",
    "BudgetAssumptions",
    "gravitational_signal",
    "allowed_b_gradient",
    "p2_calibration_shift",
    "second_order_zeeman_check",
    "allowed_e_gradient",
    "lattice_intensity_ratio",
    "ac_stark_entry",
    "bbr_differential",
    "bbr_temperature_limit",
    "assemble_budget",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "serialize_scenario",
]
