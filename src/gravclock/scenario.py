"""Scenario configuration: a flat key-value format with dotted sections.

One file drives every subcommand. Lines are `key = value`, `#` starts a
comment, unknown keys are rejected, and every default is an explicit field
below. Parsing a serialized scenario returns the identical scenario
(serialization is the normal form: grids expanded, every non-default-able
option written out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .core import ClockSpecies, PhysicalConstants, species_by_name
from .dephasing import Convention
from .emit import RUN_RECORD_NAME, fmt_float, sha256_hex
from .sweep import (
    DEFAULT_PHI_L_GRID,
    DEFAULT_SLAB_ATOMS_PER_LAYER,
    default_size_grid,
    linspace,
)
from .systematics import DEFAULT_BBR_DISK_RADIUS, P2_NATURAL_LINEWIDTH_HZ


class ScenarioError(ValueError):
    """Parse or validation failure; carries the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _default_t_grid() -> tuple[float, ...]:
    return linspace(0.0, 200.0, 201)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration with defaults applied."""

    species: str = "Yb"
    species_omega0: Optional[float] = None
    species_magic_wavelength: Optional[float] = None
    constants_g: float = 9.80665
    constants_c: float = 2.99792458e8
    convention: Convention = Convention.PHYSICAL

    geometry_kind: str = "cubic"
    geometry_n_site: int = 100
    geometry_atoms_per_layer: int = DEFAULT_SLAB_ATOMS_PER_LAYER
    geometry_n_layer: int = 100
    geometry_layer_spacing: Optional[float] = None

    interrogation_tau: float = 30.0
    interrogation_xi_w_sq: float = 1.0

    dephase_phi_l: float = 1e-5
    dephase_sizes: tuple[int, ...] = (100, 200, 300, 400, 500)
    dephase_t_grid: tuple[float, ...] = ()

    sweep_family: str = "cubic"
    sweep_sizes: tuple[int, ...] = ()
    sweep_phi_l: tuple[float, ...] = DEFAULT_PHI_L_GRID
    sweep_atoms_per_layer: int = DEFAULT_SLAB_ATOMS_PER_LAYER

    budget_n_site: int = 100
    budget_wall_distance: float = 0.05
    budget_disk_radius: float = DEFAULT_BBR_DISK_RADIUS
    budget_base_temperature: float = 293.0
    budget_example_temperature_step: float = 1.0
    budget_delta_t: float = 0.010
    budget_beam_waist: float = 170e-6
    budget_beam_separation: Optional[float] = None
    budget_bias_field: float = 1.0
    budget_e_gradient: float = 1e4
    budget_baseline_e_field: float = 0.0
    budget_p2_linewidth: float = P2_NATURAL_LINEWIDTH_HZ

    output_threshold: str = "threshold.json"
    output_dephase_curve: str = "dephase_curve.csv"
    output_stability_sweep: str = "stability_sweep.csv"
    output_budget_json: str = "budget.json"
    output_budget_text: str = "budget.txt"

    def __post_init__(self) -> None:
        if not self.dephase_t_grid:
            object.__setattr__(self, "dephase_t_grid", _default_t_grid())
        if not self.sweep_sizes:
            object.__setattr__(self, "sweep_sizes", default_size_grid())

    def species_obj(self) -> ClockSpecies:
        if self.species_omega0 is not None and self.species_magic_wavelength is not None:
            return ClockSpecies(
                name=self.species,
                omega0=self.species_omega0,
                magic_wavelength=self.species_magic_wavelength,
            )
        base = species_by_name(self.species)
        omega0 = base.omega0 if self.species_omega0 is None else self.species_omega0
        wavelength = (
            base.magic_wavelength
            if self.species_magic_wavelength is None
            else self.species_magic_wavelength
        )
        return ClockSpecies(name=base.name, omega0=omega0, magic_wavelength=wavelength)

    def consts_obj(self) -> PhysicalConstants:
        return PhysicalConstants(g=self.constants_g, c=self.constants_c)

    def layer_spacing(self) -> float:
        if self.geometry_layer_spacing is not None:
            return self.geometry_layer_spacing
        return self.species_obj().default_layer_spacing

    def digest(self) -> str:
        return sha256_hex(serialize_scenario(self))


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _parse_int_grid(text: str) -> tuple[int, ...]:
    """Either `logspace:lo:hi:n` (log-spaced, rounded, deduplicated) or a
    comma-separated ascending integer list."""
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected logspace:lo:hi:n, got {text!r}")
        lo, hi, n = _parse_int(parts[1]), _parse_int(parts[2]), _parse_int(parts[3])
        return default_size_grid(lo, hi, n)
    values = tuple(_parse_int(v.strip()) for v in text.split(","))
    if not values:
        raise ValueError("empty integer list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("integer list must be strictly increasing")
    return values


def _parse_float_grid(text: str) -> tuple[float, ...]:
    """`linspace:a:b:n`, `logspace:a:b:n`, or a comma-separated float list."""
    if text.startswith("linspace:") or text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected {parts[0]}:a:b:n, got {text!r}")
        a, b, n = _parse_float(parts[1]), _parse_float(parts[2]), _parse_int(parts[3])
        if n < 1:
            raise ValueError(f"grid needs at least 1 point, got {n}")
        if parts[0] == "linspace":
            return linspace(a, b, n)
        if a <= 0 or b <= 0:
            raise ValueError("logspace endpoints must be positive")
        # numpy's float64 log10/power need not match math's to the last bit,
        # so the float logspace keeps numpy to keep its grids' bytes.
        import numpy as np

        return tuple(np.geomspace(a, b, n).tolist())
    return tuple(_parse_float(v.strip()) for v in text.split(","))


def _parse_geometry(scenario: Scenario, text: str) -> Scenario:
    parts = text.split(":")
    if parts[0] == "cubic":
        if len(parts) != 2:
            raise ValueError(f"expected cubic:n_site, got {text!r}")
        n_site = _parse_int(parts[1])
        if n_site < 1:
            raise ValueError(f"cubic n_site must be >= 1, got {n_site}")
        return replace(scenario, geometry_kind="cubic", geometry_n_site=n_site)
    if parts[0] == "slab":
        if len(parts) != 3:
            raise ValueError(f"expected slab:atoms_per_layer:n_layer, got {text!r}")
        apl = _parse_int(parts[1])
        n_layer = _parse_int(parts[2])
        if apl < 1 or n_layer < 1:
            raise ValueError(f"slab counts must be >= 1, got {text!r}")
        return replace(
            scenario,
            geometry_kind="slab",
            geometry_atoms_per_layer=apl,
            geometry_n_layer=n_layer,
        )
    raise ValueError(f"geometry must be cubic:... or slab:..., got {text!r}")


def _positive(value: float) -> float:
    if not value > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def _nonnegative(value: float) -> float:
    if not value >= 0:
        raise ValueError(f"must be >= 0, got {value!r}")
    return value


def _positive_int(value: int) -> int:
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _file_name(text: str) -> str:
    """An output name: a plain file name, so every output lands inside --out."""
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ValueError(f"must be a plain file name without a directory, got {text!r}")
    if text == RUN_RECORD_NAME:
        raise ValueError(f"{RUN_RECORD_NAME!r} is reserved for the run manifest")
    return text


def _family(text: str) -> str:
    if text not in ("cubic", "slab"):
        raise ValueError(f"must be cubic or slab, got {text!r}")
    return text


# key -> function(scenario, raw value) -> scenario
_KEY_HANDLERS: dict[str, Callable[[Scenario, str], Scenario]] = {
    "species": lambda s, v: replace(s, species=v),
    "species.omega0": lambda s, v: replace(s, species_omega0=_positive(_parse_float(v))),
    "species.magic_wavelength": lambda s, v: replace(
        s, species_magic_wavelength=_positive(_parse_float(v))
    ),
    "constants.g": lambda s, v: replace(s, constants_g=_positive(_parse_float(v))),
    "constants.c": lambda s, v: replace(s, constants_c=_positive(_parse_float(v))),
    "convention": lambda s, v: replace(s, convention=Convention.from_wire(v)),
    "geometry": _parse_geometry,
    "geometry.layer_spacing": lambda s, v: replace(
        s, geometry_layer_spacing=_positive(_parse_float(v))
    ),
    "interrogation.tau": lambda s, v: replace(s, interrogation_tau=_positive(_parse_float(v))),
    "interrogation.xi_w_sq": lambda s, v: replace(
        s, interrogation_xi_w_sq=_parse_float(v)
    ),
    "dephase.phi_l": lambda s, v: replace(s, dephase_phi_l=_nonnegative(_parse_float(v))),
    "dephase.sizes": lambda s, v: replace(s, dephase_sizes=_parse_int_grid(v)),
    "dephase.t_grid": lambda s, v: replace(s, dephase_t_grid=_parse_float_grid(v)),
    "sweep.family": lambda s, v: replace(s, sweep_family=_family(v)),
    "sweep.sizes": lambda s, v: replace(s, sweep_sizes=_parse_int_grid(v)),
    "sweep.phi_l": lambda s, v: replace(s, sweep_phi_l=_parse_float_grid(v)),
    "sweep.atoms_per_layer": lambda s, v: replace(
        s, sweep_atoms_per_layer=_positive_int(_parse_int(v))
    ),
    "budget.n_site": lambda s, v: replace(s, budget_n_site=_positive_int(_parse_int(v))),
    "budget.wall_distance": lambda s, v: replace(
        s, budget_wall_distance=_positive(_parse_float(v))
    ),
    "budget.disk_radius": lambda s, v: replace(
        s, budget_disk_radius=_positive(_parse_float(v))
    ),
    "budget.base_temperature": lambda s, v: replace(
        s, budget_base_temperature=_positive(_parse_float(v))
    ),
    "budget.example_temperature_step": lambda s, v: replace(
        s, budget_example_temperature_step=_parse_float(v)
    ),
    "budget.delta_t": lambda s, v: replace(s, budget_delta_t=_nonnegative(_parse_float(v))),
    "budget.beam_waist": lambda s, v: replace(
        s, budget_beam_waist=_positive(_parse_float(v))
    ),
    "budget.beam_separation": lambda s, v: replace(
        s, budget_beam_separation=_positive(_parse_float(v))
    ),
    "budget.bias_field": lambda s, v: replace(
        s, budget_bias_field=_nonnegative(_parse_float(v))
    ),
    "budget.e_gradient": lambda s, v: replace(
        s, budget_e_gradient=_nonnegative(_parse_float(v))
    ),
    "budget.baseline_e_field": lambda s, v: replace(
        s, budget_baseline_e_field=_nonnegative(_parse_float(v))
    ),
    "budget.p2_linewidth": lambda s, v: replace(
        s, budget_p2_linewidth=_positive(_parse_float(v))
    ),
    "output.threshold": lambda s, v: replace(s, output_threshold=_file_name(v)),
    "output.dephase_curve": lambda s, v: replace(s, output_dephase_curve=_file_name(v)),
    "output.stability_sweep": lambda s, v: replace(s, output_stability_sweep=_file_name(v)),
    "output.budget_json": lambda s, v: replace(s, output_budget_json=_file_name(v)),
    "output.budget_text": lambda s, v: replace(s, output_budget_text=_file_name(v)),
}
_OUTPUT_KEYS = tuple(key for key in _KEY_HANDLERS if key.startswith("output."))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario, applying defaults for absent keys.

    Raises ScenarioError with the offending line number on malformed lines,
    unknown keys, duplicate keys, or out-of-range values.
    """
    scenario = Scenario()
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} (first at line {seen[key]})", lineno)
        seen[key] = lineno
        handler = _KEY_HANDLERS.get(key)
        if handler is None:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        try:
            scenario = handler(scenario, value)
        except ValueError as exc:
            raise ScenarioError(f"invalid value for {key!r}: {exc}", lineno) from None
    _check_distinct_outputs(scenario, seen)
    _validate(scenario)
    return scenario


def _check_distinct_outputs(scenario: Scenario, seen: dict[str, int]) -> None:
    """Each output key names its own file; a clash is reported at the later line
    (defaults count as line 0)."""
    owners: dict[str, str] = {}
    for key in sorted(_OUTPUT_KEYS, key=lambda k: seen.get(k, 0)):
        name = getattr(scenario, key.replace(".", "_"))
        if name in owners:
            raise ScenarioError(
                f"invalid value for {key!r}: {name!r} is already the name of {owners[name]!r}",
                seen.get(key),
            )
        owners[name] = key


def _validate(scenario: Scenario) -> None:
    if not (0.0 < scenario.interrogation_xi_w_sq <= 1.0):
        raise ScenarioError(
            f"invalid value for 'interrogation.xi_w_sq': must be in (0, 1],"
            f" got {scenario.interrogation_xi_w_sq!r}"
        )
    try:
        scenario.species_obj()
    except ValueError as exc:
        raise ScenarioError(f"invalid value for 'species': {exc}") from None
    if any(s < 1 for s in scenario.dephase_sizes):
        raise ScenarioError("invalid value for 'dephase.sizes': sizes must be >= 1")
    if any(s < 1 for s in scenario.sweep_sizes):
        raise ScenarioError("invalid value for 'sweep.sizes': sizes must be >= 1")
    if any(p < 0 for p in scenario.sweep_phi_l):
        raise ScenarioError("invalid value for 'sweep.phi_l': rates must be >= 0")
    if any(t < 0 for t in scenario.dephase_t_grid):
        raise ScenarioError("invalid value for 'dephase.t_grid': times must be >= 0")
    if any(
        b <= a for a, b in zip(scenario.dephase_t_grid, scenario.dephase_t_grid[1:])
    ):
        raise ScenarioError("invalid value for 'dephase.t_grid': must be strictly increasing")


def _int_list(values: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in values)


def _float_list(values: tuple[float, ...]) -> str:
    return ",".join(fmt_float(v) for v in values)


def serialize_scenario(scenario: Scenario) -> str:
    """Normal-form text: every key written explicitly, grids expanded.

    parse_scenario(serialize_scenario(s)) == s for every valid scenario.
    """
    if scenario.geometry_kind == "cubic":
        geometry = f"cubic:{scenario.geometry_n_site}"
    else:
        geometry = (
            f"slab:{scenario.geometry_atoms_per_layer}:{scenario.geometry_n_layer}"
        )
    pairs: list[tuple[str, Optional[str]]] = [
        ("species", scenario.species),
        (
            "species.omega0",
            None if scenario.species_omega0 is None else fmt_float(scenario.species_omega0),
        ),
        (
            "species.magic_wavelength",
            None
            if scenario.species_magic_wavelength is None
            else fmt_float(scenario.species_magic_wavelength),
        ),
        ("constants.g", fmt_float(scenario.constants_g)),
        ("constants.c", fmt_float(scenario.constants_c)),
        ("convention", scenario.convention.value),
        ("geometry", geometry),
        (
            "geometry.layer_spacing",
            None
            if scenario.geometry_layer_spacing is None
            else fmt_float(scenario.geometry_layer_spacing),
        ),
        ("interrogation.tau", fmt_float(scenario.interrogation_tau)),
        ("interrogation.xi_w_sq", fmt_float(scenario.interrogation_xi_w_sq)),
        ("dephase.phi_l", fmt_float(scenario.dephase_phi_l)),
        ("dephase.sizes", _int_list(scenario.dephase_sizes)),
        ("dephase.t_grid", _float_list(scenario.dephase_t_grid)),
        ("sweep.family", scenario.sweep_family),
        ("sweep.sizes", _int_list(scenario.sweep_sizes)),
        ("sweep.phi_l", _float_list(scenario.sweep_phi_l)),
        ("sweep.atoms_per_layer", str(scenario.sweep_atoms_per_layer)),
        ("budget.n_site", str(scenario.budget_n_site)),
        ("budget.wall_distance", fmt_float(scenario.budget_wall_distance)),
        ("budget.disk_radius", fmt_float(scenario.budget_disk_radius)),
        ("budget.base_temperature", fmt_float(scenario.budget_base_temperature)),
        (
            "budget.example_temperature_step",
            fmt_float(scenario.budget_example_temperature_step),
        ),
        ("budget.delta_t", fmt_float(scenario.budget_delta_t)),
        ("budget.beam_waist", fmt_float(scenario.budget_beam_waist)),
        (
            "budget.beam_separation",
            None
            if scenario.budget_beam_separation is None
            else fmt_float(scenario.budget_beam_separation),
        ),
        ("budget.bias_field", fmt_float(scenario.budget_bias_field)),
        ("budget.e_gradient", fmt_float(scenario.budget_e_gradient)),
        ("budget.baseline_e_field", fmt_float(scenario.budget_baseline_e_field)),
        ("budget.p2_linewidth", fmt_float(scenario.budget_p2_linewidth)),
        ("output.threshold", scenario.output_threshold),
        ("output.dephase_curve", scenario.output_dephase_curve),
        ("output.stability_sweep", scenario.output_stability_sweep),
        ("output.budget_json", scenario.output_budget_json),
        ("output.budget_text", scenario.output_budget_text),
    ]
    lines = [f"{key} = {value}" for key, value in pairs if value is not None]
    return "\n".join(lines) + "\n"
