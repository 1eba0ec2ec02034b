"""Physical constants, clock species, and the base formulas.

Everything is carried in SI units: heights in m, rates in rad/s, times in s.
Fractional frequency shifts and Allan-deviation contributions are
dimensionless. Atom counts are exact Python integers. The grid helpers
(linspace, geomspace, default_size_grid) and the defaults of a run (the sweep
grids, the budget's calibration linewidth and wall-disk radius) live here too,
so that every module that needs them, the scenario key table included,
imports them from this leaf module. So do ECHO_CAP, the length up to which
a refusal repeats the text or integer it refuses, with echo and echo_int that
cut it there, and the two phase-rate conventions, which are their scenario
text: CONVENTIONS lists them, and dephasing applies them.
"""

from __future__ import annotations

import math
from collections import namedtuple


ECHO_CAP = 80  # the characters of a refused text or integer that its message repeats


def echo(text: str) -> str:
    """repr(text), or past ECHO_CAP characters the repr of that prefix and the length."""
    if len(text) <= ECHO_CAP:
        return repr(text)
    return f"{text[:ECHO_CAP]!r}... ({len(text)} characters)"


def echo_int(value: int) -> str:
    """str(value), or past ECHO_CAP characters the count of its digits."""
    text = str(value)
    if len(text) <= ECHO_CAP:
        return text
    return f"{'a negative' if value < 0 else 'an'} integer of {len(text.lstrip('-'))} digits"


class Convention:
    """How the supplied per-layer gravitational rate enters the layer sum.

    PHYSICAL applies phi_g per layer as given. PAPER_FIGURE scales phi_g by
    the number of layer gaps (layer_count - 1) before summation, treating the
    given rate as if it were the full top-to-bottom span rate. The two are
    kept side by side because the reference datasets this package reproduces
    disagree by exactly that factor; every emitted record carries the tag. A
    convention is its scenario text, so compare with ==, never with is.
    """

    PHYSICAL = "physical"
    PAPER_FIGURE = "paper-figure"


CONVENTIONS = (Convention.PHYSICAL, Convention.PAPER_FIGURE)


def check_convention(text: str) -> str:
    """text, if it is one of CONVENTIONS; refused otherwise."""
    if text not in CONVENTIONS:
        options = ", ".join(CONVENTIONS)
        raise ValueError(f"unknown convention {echo(text)}; expected one of: {options}")
    return text


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


class PhysicalConstants(namedtuple("PhysicalConstants", "g c")):
    """Local gravitational acceleration g [m/s^2] and speed of light c [m/s]."""

    __slots__ = ()

    def __new__(cls, g: float = 9.80665, c: float = 2.99792458e8):
        if not (g > 0 and math.isfinite(g)):
            raise ValueError(f"g must be positive and finite, got {g!r}")
        if not (c > 0 and math.isfinite(c)):
            raise ValueError(f"c must be positive and finite, got {c!r}")
        return super().__new__(cls, g, c)

    # namedtuple's _make, and so _replace, would skip __new__ and its checks.
    _make = classmethod(lambda cls, values: cls(*values))


class ClockSpecies(namedtuple("ClockSpecies", "name omega0 magic_wavelength")):
    """Clock transition: resonant angular frequency and magic lattice wavelength.

    omega0 in rad/s, magic_wavelength in m.
    """

    __slots__ = ()

    def __new__(cls, name: str, omega0: float, magic_wavelength: float):
        if not (omega0 > 0 and math.isfinite(omega0)):
            raise ValueError(f"omega0 must be positive and finite, got {omega0!r}")
        if not (magic_wavelength > 0 and math.isfinite(magic_wavelength)):
            raise ValueError(
                f"magic_wavelength must be positive and finite, got {magic_wavelength!r}"
            )
        return super().__new__(cls, name, omega0, magic_wavelength)

    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def frequency(self) -> float:
        """Transition frequency nu = omega0 / 2pi [Hz]."""
        return self.omega0 / (2.0 * math.pi)

    @property
    def default_layer_spacing(self) -> float:
        """Lattice-site spacing along gravity, magic wavelength / 2 [m]."""
        return self.magic_wavelength / 2.0


YB = ClockSpecies(
    name="Yb",
    omega0=2.0 * math.pi * 5.18295e14,
    magic_wavelength=759.356e-9,
)

_SPECIES_PRESETS = {"Yb": YB}

DEFAULT_PHI_L_GRID: tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
MAX_GRID_POINTS = 10**7  # a larger linspace or logspace grid is refused unbuilt
DEFAULT_SLAB_ATOMS_PER_LAYER = 10_000

# Natural linewidth of the 3P2 calibration line from its 14 s lifetime;
# taken as the resolution floor of the gradient calibration.
P2_NATURAL_LINEWIDTH_HZ = 1.0 / (2.0 * math.pi * 14.0)

# Disk radius tuned so the default chamber (walls 5 cm away at 293 K and
# 294 K, 37.97 um ensemble) shows a BBR field-ratio difference of 1.04e-5.
# The wall geometry behind that figure is otherwise unconstrained; the
# radius is an exposed, configurable assumption.
DEFAULT_BBR_DISK_RADIUS = 0.06323438300601451


def species_by_name(name: str) -> ClockSpecies:
    """Look up a built-in species preset ("Yb")."""
    try:
        return _SPECIES_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_PRESETS))
        raise ValueError(f"unknown species {echo(name)}; built-in presets: {known}") from None


# The scenario keys behind g dh/c^2, named when it leaves float range.
REDSHIFT_KEYS = (
    "constants.g, constants.c and the height dh: geometry.layer_spacing"
    " (default species.magic_wavelength / 2), times budget.n_site in the budget"
)


def relative_redshift(consts: PhysicalConstants, delta_h: float) -> float:
    """Fractional frequency shift g*dh/c^2 between points separated by delta_h [m].

    Antisymmetric in delta_h; negative means the second point is lower.
    A shift out of float range (c^2 underflowing to 0 included) is refused.
    """
    _require_finite("delta_h", delta_h)
    c_sq = consts.c * consts.c
    shift = consts.g * delta_h / c_sq if c_sq else math.inf
    if not math.isfinite(shift):
        raise OverflowError(
            f"redshift g dh/c^2 over dh = {delta_h!r} m is out of float range"
            f" (c^2 = {c_sq!r}); it is set by {REDSHIFT_KEYS}"
        )
    return shift


def per_layer_phase_rate(
    consts: PhysicalConstants,
    species: ClockSpecies,
    layer_spacing: float,
) -> float:
    """Phase drift rate [rad/s] between adjacent layers from the redshift.

    omega0 * g * layer_spacing / c^2, refused out of float range.
    """
    _require_finite("layer_spacing", layer_spacing)
    rate = species.omega0 * relative_redshift(consts, layer_spacing)
    if not math.isfinite(rate):
        raise OverflowError(
            f"per-layer phase rate omega0 g d/c^2 is out of float range; it is set by"
            f" species.omega0, {REDSHIFT_KEYS}"
        )
    return rate


def qpn_stability(
    species: ClockSpecies, tau: float, n_atoms: int, xi_w_sq: float = 1.0
) -> float:
    """Quantum-projection-noise Allan deviation of one Ramsey sequence of
    tau [s] on n_atoms, with no dead time.

    (1 / (omega0 tau)) * sqrt(xi_w_sq / N), refused out of float range.
    xi_w_sq = 1 for a coherent spin state; (0, 1] is a plain scale factor,
    no entangled-state dynamics behind it.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if not (0.0 < xi_w_sq <= 1.0):
        raise ValueError(f"xi_w_sq must be in (0, 1], got {xi_w_sq!r}")
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    rate = species.omega0 * tau
    sigma = (1.0 / rate if rate else math.inf) * math.sqrt(xi_w_sq / n_atoms)
    if not sigma < math.inf:
        raise OverflowError(
            f"QPN Allan deviation at omega0 tau = {rate!r} is out of float range; it is set by"
            " species.omega0 and interrogation.tau"
        )
    return sigma


def per_layer_sql(species: ClockSpecies, tau: float, n_site: int) -> float:
    """Standard quantum limit of one layer of n_site^2 atoms: 1/(omega0 tau n_site),
    at xi_w_sq = 1.
    """
    if n_site < 1:
        raise ValueError(f"n_site must be >= 1, got {n_site}")
    return qpn_stability(species, tau, n_site * n_site)


def linspace(a: float, b: float, n: int) -> tuple[float, ...]:
    """n evenly spaced floats from a to b, with np.linspace's arithmetic.

    y_i = i*step + a with step = (b - a)/(n - 1), the last point set to b;
    where step underflows to zero, y_i = i/(n - 1)*(b - a) + a. n = 1 gives
    0*(b - a) + a. Every operation is one correctly rounded IEEE operation,
    so the result is bit-identical to np.linspace's.
    """
    if n < 1:
        raise ValueError(f"grid needs at least 1 point, got {echo_int(n)}")
    delta = b - a
    if n == 1:
        return (0.0 * delta + a,)
    div = n - 1
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + a for i in range(n)]
    else:
        points = [i * step + a for i in range(n)]
    points[-1] = b
    return tuple(points)


def geomspace(a: float, b: float, n: int) -> tuple[float, ...]:
    """n log-spaced floats from a to b, both > 0, with np.geomspace's steps.

    log10 of both ends, linspace, then 10**y, with both endpoints set
    exactly. Python's pow need not round like numpy's, so an interior point
    may differ from np.geomspace in its last bit.
    """
    if n == 1:
        return (float(a),)
    inner = linspace(math.log10(a), math.log10(b), n)[1:-1]
    return (float(a), *(10.0**y for y in inner), float(b))


def default_size_grid(lo: int = 2, hi: int = 1000, points: int = 40) -> tuple[int, ...]:
    """Log-spaced integer sizes: geomspace rounded half to even, deduplicated
    and ascending."""
    if lo < 1 or hi < lo or points < 1:
        bounds = ", ".join(map(echo_int, (lo, hi, points)))
        raise ValueError(f"invalid size grid bounds ({bounds})")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid needs at most {MAX_GRID_POINTS} points, got {echo_int(points)}")
    return tuple(sorted({round(v) for v in geomspace(lo, hi, points)}))
