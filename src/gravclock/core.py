"""Physical constants, clock species, and the base formulas.

Everything is carried in SI units: heights in m, rates in rad/s, times in s.
Fractional frequency shifts and Allan-deviation contributions are
dimensionless. Atom counts are exact Python integers. The grid helpers
(linspace, geomspace, default_size_grid) live here too, so that every module
that needs them, the scenario key table included, imports them from this
leaf module. So do ECHO_CAP, the length up to which a refusal repeats the
text or integer it refuses, with echo and echo_int that cut it there, and
the two phase-rate conventions, which are their scenario text: CONVENTIONS
lists them, and dephasing applies them. So does the one block of key lists
(SPACING_KEYS to SIGNAL_KEYS): the scenario keys behind each derived value
that more than one refusal names, which every such refusal formats from
here. No default of a run is here, not even of PhysicalConstants or
default_size_grid: each is written once, in the scenario key table
(Scenario().consts_obj(), Scenario().sweep_sizes).
"""

from __future__ import annotations

import math
from typing import NamedTuple


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


class PhysicalConstants(NamedTuple):
    """Local gravitational acceleration g [m/s^2] and speed of light c [m/s]."""

    g: float
    c: float


class ClockSpecies(NamedTuple):
    """Clock transition: resonant angular frequency and magic lattice wavelength.

    omega0 in rad/s, magic_wavelength in m.
    """

    name: str
    omega0: float
    magic_wavelength: float

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

MAX_GRID_POINTS = 10**7  # a larger linspace or logspace grid is refused unbuilt
# A larger size or atom count is refused as it is read: up to it a count is exact
# as a float, and m times dirichlet's reduced angle is finite for any finite phi_g' t.
MAX_COUNT = 2**53


def species_by_name(name: str) -> ClockSpecies:
    """Look up a built-in species preset ("Yb")."""
    try:
        return _SPECIES_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_PRESETS))
        raise ValueError(f"unknown species {echo(name)}; built-in presets: {known}") from None


# The scenario keys behind each derived value that more than one refusal
# names, each list built from the ones above it: the layer spacing d, the
# redshift g d/c^2, phi_g = omega0 g d/c^2, the size ratio c^2/(omega0 tau g d),
# the fractional signal g dz/c^2 over dz = budget.n_site d, and the signal
# delta_nu = (omega0 / 2 pi) g dz/c^2. A refusal of one of these values
# formats its keys from here.
SPACING_KEYS = "geometry.layer_spacing (default species.magic_wavelength / 2)"
REDSHIFT_KEYS = f"constants.g, constants.c and {SPACING_KEYS}"
PHI_G_KEYS = f"species.omega0, {REDSHIFT_KEYS}"
SIZE_RATIO_KEYS = f"interrogation.tau, {PHI_G_KEYS}"
FRACTIONAL_KEYS = f"budget.n_site, {REDSHIFT_KEYS}"
SIGNAL_KEYS = f"species.omega0, {FRACTIONAL_KEYS}"


def relative_redshift(consts: PhysicalConstants, delta_h: float) -> float:
    """Fractional frequency shift g*dh/c^2 between points separated by delta_h [m].

    Antisymmetric in delta_h; negative means the second point is lower.
    A shift out of float range (c^2 underflowing to 0 included) is refused.
    """
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
    rate = species.omega0 * relative_redshift(consts, layer_spacing)
    if not math.isfinite(rate):
        raise OverflowError(
            f"per-layer phase rate omega0 g d/c^2 is out of float range; it is set by {PHI_G_KEYS}"
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
    return qpn_stability(species, tau, n_site * n_site)


def linspace(a: float, b: float, n: int) -> tuple[float, ...]:
    """n evenly spaced floats from a to b, with np.linspace's arithmetic.

    y_i = i*step + a with step = (b - a)/(n - 1), the last point set to b;
    where step underflows to zero, y_i = i/(n - 1)*(b - a) + a. n = 1 gives
    0*(b - a) + a. Every operation is one correctly rounded IEEE operation,
    so the result is bit-identical to np.linspace's.
    """
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


def default_size_grid(lo: int, hi: int, points: int) -> tuple[int, ...]:
    """Log-spaced integer sizes: geomspace rounded half to even, deduplicated
    and ascending."""
    if lo < 1 or hi < lo or points < 1:
        bounds = ", ".join(map(echo_int, (lo, hi, points)))
        raise ValueError(f"invalid size grid bounds ({bounds})")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid needs at most {MAX_GRID_POINTS} points, got {echo_int(points)}")
    return tuple(sorted({round(v) for v in geomspace(lo, hi, points)}))
