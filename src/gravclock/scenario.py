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
import operator
import sys
from collections import namedtuple
from typing import Optional

from .core import (
    MAX_GRID_POINTS,
    ClockSpecies,
    Convention,
    PhysicalConstants,
    check_convention,
    default_size_grid,
    echo,
    echo_int,
    geomspace,
    linspace,
    species_by_name,
)
from .emit import RUN_RECORD_NAME, fmt_float


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
        raise ValueError(f"not a number: {echo(text)}") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite: {echo(text)}")
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
        raise ValueError(f"not an integer: {echo(text)}") from None


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
        raise ValueError(f"must be >= 1, got {echo_int(value)}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    """Either `logspace:lo:hi:n` (log-spaced, rounded, deduplicated) or a
    comma-separated ascending list of sizes >= 1."""
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected logspace:lo:hi:n, got {echo(text)}")
        return default_size_grid(_int(parts[1]), _int(parts[2]), _int(parts[3]))
    values = tuple(_int(v.strip()) for v in text.split(","))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("integer list must be strictly increasing")
    if values[0] < 1:
        raise ValueError(f"sizes must be >= 1, got {echo_int(values[0])}")
    return values


def _grid_value(value: float) -> float:
    if not 0 <= value < math.inf:
        raise ValueError(f"values must be finite and >= 0, got {value!r}")
    return value


def _float_grid(text: str) -> tuple[float, ...]:
    """`linspace:a:b:n`, `logspace:a:b:n`, or a comma-separated float list,
    every value finite and >= 0 (a linspace span can overflow). The first
    bad value in text order is named."""
    if text.startswith("linspace:") or text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected {parts[0]}:a:b:n, got {echo(text)}")
        a, b, n = _float(parts[1]), _float(parts[2]), _int(parts[3])
        if n < 1:
            raise ValueError(f"grid needs at least 1 point, got {echo_int(n)}")
        if n > MAX_GRID_POINTS:
            raise ValueError(f"grid needs at most {MAX_GRID_POINTS} points, got {echo_int(n)}")
        if parts[0] == "linspace":
            values = linspace(a, b, n)
        elif a <= 0 or b <= 0:
            raise ValueError("logspace endpoints must be positive")
        else:
            values = geomspace(a, b, n)
        # One pass in C each; the values are walked only to name the first bad one.
        if not (all(map(math.isfinite, values)) and min(values) >= 0):
            for value in values:
                _grid_value(value)
        return values
    # Each listed value is checked as it is read.
    return tuple(_grid_value(_float(v.strip())) for v in text.split(","))


def _times(text: str) -> tuple[float, ...]:
    values = _float_grid(text)
    if not all(map(operator.lt, values, values[1:])):
        raise ValueError("must be strictly increasing")
    return values


def _family(text: str) -> str:
    if text not in ("cubic", "slab"):
        raise ValueError(f"must be cubic or slab, got {echo(text)}")
    return text


def _file_name(text: str) -> str:
    """An output name: a plain file name, so every output lands inside --out."""
    if text in ("", ".", "..") or "/" in text or "\\" in text or "\0" in text:
        raise ValueError(f"must be a plain file name without a directory or NUL, got {echo(text)}")
    if text == RUN_RECORD_NAME:
        raise ValueError(f"{RUN_RECORD_NAME!r} is reserved for the run manifest")
    return text


# scenario key -> (default, parser of its text value), in serialization order.
# This is the one home of every default: the commands, sweep and
# assemble_budget read the resolved Scenario, never a default of their own.
_KEYS = {
    "species": ("Yb", str),
    "species.omega0": (None, _positive),
    "species.magic_wavelength": (None, _positive),
    "constants.g": (9.80665, _positive),
    "constants.c": (2.99792458e8, _positive),
    "convention": (Convention.PHYSICAL, check_convention),
    "geometry.layer_spacing": (None, _positive),
    "interrogation.tau": (30.0, _positive),
    "interrogation.xi_w_sq": (1.0, _fraction),
    "dephase.phi_l": (1e-5, _nonnegative),
    "dephase.sizes": ((100, 200, 300, 400, 500), _sizes),
    "dephase.t_grid": (linspace(0.0, 200.0, 201), _times),
    "sweep.family": ("cubic", _family),
    "sweep.sizes": (default_size_grid(2, 1000, 40), _sizes),
    "sweep.phi_l": ((1e-6, 1e-5, 1e-4, 1e-3, 1e-2), _float_grid),  # rad/s
    "sweep.atoms_per_layer": (10_000, _positive_int),  # slab family only
    "budget.n_site": (100, _positive_int),
    "budget.wall_distance": (0.05, _positive),  # m, ensemble center to each chamber wall
    # m, tuned so the default chamber (walls 5 cm away at 293 K and 294 K,
    # 37.97 um ensemble) shows a BBR field-ratio difference of 1.04e-5. The
    # wall geometry behind that figure is otherwise unconstrained; the radius
    # is an exposed, configurable assumption.
    "budget.disk_radius": (0.06323438300601451, _positive),
    "budget.base_temperature": (293.0, _positive),  # K
    "budget.example_temperature_step": (1.0, _float),  # K, the worked two-wall example
    "budget.delta_t": (0.010, _nonnegative),  # K, assumed achieved chamber uniformity
    "budget.beam_waist": (170e-6, _positive),  # m
    "budget.beam_separation": (None, _positive),  # m; None -> 100 lattice wavelengths
    "budget.bias_field": (1.0, _nonnegative),  # G, upper bound for the quadratic Zeeman term
    "budget.e_gradient": (1e4, _nonnegative),  # (V/m)/m residual behind shield and coatings
    "budget.baseline_e_field": (0.0, _nonnegative),  # V/m
    # Hz, 3P2 calibration resolution: the natural linewidth of the 3P2
    # calibration line from its 14 s lifetime, taken as the resolution floor
    # of the gradient calibration.
    "budget.p2_linewidth": (1.0 / (2.0 * math.pi * 14.0), _positive),
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
        """The species with its overrides; the preset of its name fills an unset one."""
        fields = (self.species_omega0, self.species_magic_wavelength)
        if None in fields:
            preset = species_by_name(self.species)
            fields = [p if f is None else f for f, p in zip(fields, preset[1:])]
        return ClockSpecies(self.species, *fields)

    def consts_obj(self) -> PhysicalConstants:
        return PhysicalConstants(g=self.constants_g, c=self.constants_c)

    def layer_spacing(self) -> float:
        if self.geometry_layer_spacing is not None:
            return self.geometry_layer_spacing
        return self.species_obj().default_layer_spacing


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario, applying defaults for absent keys.

    One leading byte-order mark (U+FEFF), as some editors save, is dropped.
    Raises ScenarioError with the offending line number on malformed lines,
    unknown keys, duplicate keys, or out-of-range values.
    """
    values = {key: default for key, (default, _) in _KEYS.items()}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {echo(raw.strip())}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ScenarioError(f"duplicate key {key!r} (first at line {seen[key]})", lineno)
        seen[key] = lineno
        if key not in _KEYS:
            raise ScenarioError(f"unknown key {echo(key)}", lineno)
        try:
            values[key] = _KEYS[key][1](value.strip())
        except (ValueError, OverflowError) as exc:  # a grid bound past float range overflows
            raise ScenarioError(f"invalid value for {key!r}: {exc}", lineno) from None
    scenario = Scenario._make(values.values())
    _check_outputs(values, seen)
    try:
        scenario.species_obj()
    except ValueError as exc:
        raise ScenarioError(f"invalid value for 'species': {exc}", seen.get("species")) from None
    return scenario


def _check_outputs(values: dict[str, object], seen: dict[str, int]) -> None:
    """Each output key (values: key -> value) names its own file; a clash is
    reported at the later line (defaults count as line 0). Then each name is
    one a file system can hold: NAME_MAX, 255 bytes in UTF-8 on Linux."""
    owners: dict[str, str] = {}
    for key in sorted(_OUTPUT_KEYS, key=lambda k: seen.get(k, 0)):
        name = values[key]
        if name in owners:
            raise ScenarioError(
                f"invalid value for {key!r}: {echo(name)} is already the name of"
                f" {owners[name]!r}",
                seen.get(key),
            )
        owners[name] = key
    for name, key in owners.items():
        size = len(name.encode())
        if size > 255:
            message = f"must be at most 255 bytes in UTF-8, not {size}: {echo(name)}"
            raise ScenarioError(f"invalid value for {key!r}: {message}", seen.get(key))


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def serialize_scenario(scenario: Scenario) -> str:
    """Normal-form text: every key written explicitly in declaration order,
    grids expanded, unset optional keys omitted.

    parse_scenario(serialize_scenario(s)) == s for every valid scenario.
    """
    pairs = zip(_KEYS, scenario)
    lines = [f"{key} = {_format(value)}" for key, value in pairs if value is not None]
    return "\n".join(lines) + "\n"
