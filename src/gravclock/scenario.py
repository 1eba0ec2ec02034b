"""Scenario configuration: a flat key-value format with dotted sections.

One file drives every subcommand. Lines are `key = value`, `#` starts a
comment, unknown keys are rejected, and every default is an explicit field
below. Each key is declared once, as a `Scenario` field: the key is the field
name with its first `_` written as `.`, and the field's metadata holds the
parser of the key's text value, range checks included. Parsing a serialized
scenario returns the identical scenario (serialization is the normal form:
grids expanded, every non-default-able option written out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from .core import (
    DEFAULT_BBR_DISK_RADIUS,
    DEFAULT_PHI_L_GRID,
    DEFAULT_SLAB_ATOMS_PER_LAYER,
    P2_NATURAL_LINEWIDTH_HZ,
    ClockSpecies,
    PhysicalConstants,
    default_size_grid,
    geomspace,
    linspace,
    species_by_name,
)
from .dephasing import Convention
from .emit import RUN_RECORD_NAME, fmt_float, sha256_hex


class ScenarioError(ValueError):
    """Parse or validation failure; carries the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _positive(text: str) -> float:
    value = _float(text)
    if not value > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def _nonnegative(text: str) -> float:
    value = _float(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value!r}")
    return value


def _fraction(text: str) -> float:
    value = _float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"must be in (0, 1], got {value!r}")
    return value


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    """Either `logspace:lo:hi:n` (log-spaced, rounded, deduplicated) or a
    comma-separated ascending list of sizes >= 1."""
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected logspace:lo:hi:n, got {text!r}")
        return default_size_grid(_int(parts[1]), _int(parts[2]), _int(parts[3]))
    values = tuple(_int(v.strip()) for v in text.split(","))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("integer list must be strictly increasing")
    if values[0] < 1:
        raise ValueError(f"sizes must be >= 1, got {values[0]}")
    return values


def _float_grid(text: str) -> tuple[float, ...]:
    """`linspace:a:b:n`, `logspace:a:b:n`, or a comma-separated float list,
    every value finite and >= 0 (a linspace span can overflow)."""
    if text.startswith("linspace:") or text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected {parts[0]}:a:b:n, got {text!r}")
        a, b, n = _float(parts[1]), _float(parts[2]), _int(parts[3])
        if n < 1:
            raise ValueError(f"grid needs at least 1 point, got {n}")
        if parts[0] == "linspace":
            values = linspace(a, b, n)
        elif a <= 0 or b <= 0:
            raise ValueError("logspace endpoints must be positive")
        else:
            values = geomspace(a, b, n)
    else:
        values = tuple(_float(v.strip()) for v in text.split(","))
    bad = [v for v in values if not 0 <= v < math.inf]
    if bad:
        raise ValueError(f"values must be finite and >= 0, got {bad[0]!r}")
    return values


def _times(text: str) -> tuple[float, ...]:
    values = _float_grid(text)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("must be strictly increasing")
    return values


def _family(text: str) -> str:
    if text not in ("cubic", "slab"):
        raise ValueError(f"must be cubic or slab, got {text!r}")
    return text


def _file_name(text: str) -> str:
    """An output name: a plain file name, so every output lands inside --out."""
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ValueError(f"must be a plain file name without a directory, got {text!r}")
    if text == RUN_RECORD_NAME:
        raise ValueError(f"{RUN_RECORD_NAME!r} is reserved for the run manifest")
    return text


def _key(default, parse: Callable[[str], object]):
    """A scenario key: the field's default and the parser of its text value."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration with defaults applied."""

    species: str = _key("Yb", str)
    species_omega0: Optional[float] = _key(None, _positive)
    species_magic_wavelength: Optional[float] = _key(None, _positive)
    constants_g: float = _key(9.80665, _positive)
    constants_c: float = _key(2.99792458e8, _positive)
    convention: Convention = _key(Convention.PHYSICAL, Convention.from_wire)

    geometry_layer_spacing: Optional[float] = _key(None, _positive)

    interrogation_tau: float = _key(30.0, _positive)
    interrogation_xi_w_sq: float = _key(1.0, _fraction)

    dephase_phi_l: float = _key(1e-5, _nonnegative)
    dephase_sizes: tuple[int, ...] = _key((100, 200, 300, 400, 500), _sizes)
    dephase_t_grid: tuple[float, ...] = _key(linspace(0.0, 200.0, 201), _times)

    sweep_family: str = _key("cubic", _family)
    sweep_sizes: tuple[int, ...] = _key(default_size_grid(), _sizes)
    sweep_phi_l: tuple[float, ...] = _key(DEFAULT_PHI_L_GRID, _float_grid)
    sweep_atoms_per_layer: int = _key(DEFAULT_SLAB_ATOMS_PER_LAYER, _positive_int)

    budget_n_site: int = _key(100, _positive_int)
    budget_wall_distance: float = _key(0.05, _positive)
    budget_disk_radius: float = _key(DEFAULT_BBR_DISK_RADIUS, _positive)
    budget_base_temperature: float = _key(293.0, _positive)
    budget_example_temperature_step: float = _key(1.0, _float)
    budget_delta_t: float = _key(0.010, _nonnegative)
    budget_beam_waist: float = _key(170e-6, _positive)
    budget_beam_separation: Optional[float] = _key(None, _positive)
    budget_bias_field: float = _key(1.0, _nonnegative)
    budget_e_gradient: float = _key(1e4, _nonnegative)
    budget_baseline_e_field: float = _key(0.0, _nonnegative)
    budget_p2_linewidth: float = _key(P2_NATURAL_LINEWIDTH_HZ, _positive)

    output_threshold: str = _key("threshold.json", _file_name)
    output_dephase_curve: str = _key("dephase_curve.csv", _file_name)
    output_stability_sweep: str = _key("stability_sweep.csv", _file_name)
    output_budget_json: str = _key("budget.json", _file_name)
    output_budget_text: str = _key("budget.txt", _file_name)

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


# key -> field; the key is the field name with its first "_" written as "."
_FIELDS = {f.name.replace("_", ".", 1): f for f in fields(Scenario)}
_OUTPUT_KEYS = tuple(key for key in _FIELDS if key.startswith("output."))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario, applying defaults for absent keys.

    Raises ScenarioError with the offending line number on malformed lines,
    unknown keys, duplicate keys, or out-of-range values.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} (first at line {seen[key]})", lineno)
        seen[key] = lineno
        key_field = _FIELDS.get(key)
        if key_field is None:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        try:
            values[key_field.name] = key_field.metadata["parse"](value.strip())
        except ValueError as exc:
            raise ScenarioError(f"invalid value for {key!r}: {exc}", lineno) from None
    scenario = Scenario(**values)
    _check_distinct_outputs(scenario, seen)
    try:
        scenario.species_obj()
    except ValueError as exc:
        raise ScenarioError(f"invalid value for 'species': {exc}", seen.get("species")) from None
    return scenario


def _check_distinct_outputs(scenario: Scenario, seen: dict[str, int]) -> None:
    """Each output key names its own file; a clash is reported at the later line
    (defaults count as line 0)."""
    owners: dict[str, str] = {}
    for key in sorted(_OUTPUT_KEYS, key=lambda k: seen.get(k, 0)):
        name = getattr(scenario, _FIELDS[key].name)
        if name in owners:
            raise ScenarioError(
                f"invalid value for {key!r}: {name!r} is already the name of {owners[name]!r}",
                seen.get(key),
            )
        owners[name] = key


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, Convention):
        return value.value
    return str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Normal-form text: every key written explicitly in declaration order,
    grids expanded, unset optional keys omitted.

    parse_scenario(serialize_scenario(s)) == s for every valid scenario.
    """
    values = ((key, getattr(scenario, f.name)) for key, f in _FIELDS.items())
    lines = [f"{key} = {_format(value)}" for key, value in values if value is not None]
    return "\n".join(lines) + "\n"
