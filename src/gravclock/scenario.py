"""Scenario configuration: a flat key-value format with dotted sections.

One file drives every subcommand. Lines are `key = value`, `#` starts a
comment, unknown keys are rejected, and every default is explicit. Each key
is declared once, in the `_KEYS` table, with its default and the parser of
its text value, range checks included. `Scenario` is the named tuple of the
keys in table order; a field is its key with the `.` written as `_`. Parsing a serialized
scenario returns the identical scenario (serialization is the normal form:
grids expanded, every non-default-able option written out).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Optional

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
from .emit import RUN_RECORD_NAME, fmt_float


class ScenarioError(ValueError):
    """Parse or validation failure; carries the offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_ECHO_CAP = 80  # the characters of a refused text that its message repeats


def _echo(text: str) -> str:
    """repr(text), or past _ECHO_CAP characters the repr of that prefix and the length."""
    if len(text) <= _ECHO_CAP:
        return repr(text)
    return f"{text[:_ECHO_CAP]!r}... ({len(text)} characters)"


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {_echo(text)}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite: {_echo(text)}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # Past the int-string conversion limit (no limit before 3.10.7), count.
        digits = sum(map(str.isdecimal, text))
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if 0 < limit < digits:
            raise ValueError(f"not an integer of at most {limit} digits: {digits} digits") from None
        raise ValueError(f"not an integer: {_echo(text)}") from None


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
            raise ValueError(f"expected logspace:lo:hi:n, got {_echo(text)}")
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
            raise ValueError(f"expected {parts[0]}:a:b:n, got {_echo(text)}")
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
        raise ValueError(f"must be cubic or slab, got {_echo(text)}")
    return text


def _file_name(text: str) -> str:
    """An output name: a plain file name, so every output lands inside --out."""
    if text in ("", ".", "..") or "/" in text or "\\" in text:
        raise ValueError(f"must be a plain file name without a directory, got {_echo(text)}")
    if text == RUN_RECORD_NAME:
        raise ValueError(f"{RUN_RECORD_NAME!r} is reserved for the run manifest")
    return text


def _convention(text: str) -> Convention:
    try:
        return Convention.from_wire(text)
    except ValueError as exc:  # formed where _echo cannot be imported
        raise ValueError(str(exc).replace(repr(text), _echo(text), 1)) from None


# scenario key -> (default, parser of its text value), in serialization order
_KEYS = {
    "species": ("Yb", str),
    "species.omega0": (None, _positive),
    "species.magic_wavelength": (None, _positive),
    "constants.g": (9.80665, _positive),
    "constants.c": (2.99792458e8, _positive),
    "convention": (Convention.PHYSICAL, _convention),
    "geometry.layer_spacing": (None, _positive),
    "interrogation.tau": (30.0, _positive),
    "interrogation.xi_w_sq": (1.0, _fraction),
    "dephase.phi_l": (1e-5, _nonnegative),
    "dephase.sizes": ((100, 200, 300, 400, 500), _sizes),
    "dephase.t_grid": (linspace(0.0, 200.0, 201), _times),
    "sweep.family": ("cubic", _family),
    "sweep.sizes": (default_size_grid(), _sizes),
    "sweep.phi_l": (DEFAULT_PHI_L_GRID, _float_grid),
    "sweep.atoms_per_layer": (DEFAULT_SLAB_ATOMS_PER_LAYER, _positive_int),
    "budget.n_site": (100, _positive_int),
    "budget.wall_distance": (0.05, _positive),
    "budget.disk_radius": (DEFAULT_BBR_DISK_RADIUS, _positive),
    "budget.base_temperature": (293.0, _positive),
    "budget.example_temperature_step": (1.0, _float),
    "budget.delta_t": (0.010, _nonnegative),
    "budget.beam_waist": (170e-6, _positive),
    "budget.beam_separation": (None, _positive),
    "budget.bias_field": (1.0, _nonnegative),
    "budget.e_gradient": (1e4, _nonnegative),
    "budget.baseline_e_field": (0.0, _nonnegative),
    "budget.p2_linewidth": (P2_NATURAL_LINEWIDTH_HZ, _positive),
    "output.threshold": ("threshold.json", _file_name),
    "output.dephase_curve": ("dephase_curve.csv", _file_name),
    "output.stability_sweep": ("stability_sweep.csv", _file_name),
    "output.budget_json": ("budget.json", _file_name),
    "output.budget_text": ("budget.txt", _file_name),
}
_OUTPUT_KEYS = tuple(key for key in _KEYS if key.startswith("output."))


class Scenario(
    namedtuple(
        "Scenario",
        [key.replace(".", "_") for key in _KEYS],
        defaults=[default for default, _ in _KEYS.values()],
    )
):
    """Fully resolved run configuration with defaults applied."""

    __slots__ = ()

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


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario, applying defaults for absent keys.

    Raises ScenarioError with the offending line number on malformed lines,
    unknown keys, duplicate keys, or out-of-range values.
    """
    values = {key: default for key, (default, _) in _KEYS.items()}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {_echo(raw.strip())}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} (first at line {seen[key]})", lineno)
        seen[key] = lineno
        if key not in _KEYS:
            raise ScenarioError(f"unknown key {_echo(key)}", lineno)
        try:
            values[key] = _KEYS[key][1](value.strip())
        except ValueError as exc:
            raise ScenarioError(f"invalid value for {key!r}: {exc}", lineno) from None
    scenario = Scenario._make(values.values())
    _check_distinct_outputs(values, seen)
    try:
        scenario.species_obj()
    except ValueError as exc:
        why = str(exc).replace(repr(scenario.species), _echo(scenario.species), 1)
        raise ScenarioError(f"invalid value for 'species': {why}", seen.get("species")) from None
    return scenario


def _check_distinct_outputs(values: dict[str, object], seen: dict[str, int]) -> None:
    """Each output key (values: key -> value) names its own file; a clash is
    reported at the later line (defaults count as line 0)."""
    owners: dict[str, str] = {}
    for key in sorted(_OUTPUT_KEYS, key=lambda k: seen.get(k, 0)):
        name = values[key]
        if name in owners:
            raise ScenarioError(
                f"invalid value for {key!r}: {_echo(name)} is already the name of"
                f" {owners[name]!r}",
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
    pairs = zip(_KEYS, scenario)
    lines = [f"{key} = {_format(value)}" for key, value in pairs if value is not None]
    return "\n".join(lines) + "\n"
