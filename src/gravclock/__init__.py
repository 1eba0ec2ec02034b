"""Gravitational-redshift dephasing of lattice-clock atomic ensembles.

Deterministic calculators for how Earth's gravity dephases a coherent spin
state spread over the layers of an optical lattice clock: redshift and
quantum-projection-noise formulas, Bloch-vector dephasing curves, decoherence
thresholds, best-stability sweeps, and a systematic-shift budget.

The package root holds only __version__; import each name from the
submodule that defines it (gravclock.core, .dephasing, .thresholds, .sweep,
.systematics, .scenario, .emit, .cli).
"""

__version__ = "0.1.0"
