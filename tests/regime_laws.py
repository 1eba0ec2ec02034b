"""The two closed-form laws that bound tau_max, and the regime of a sweep cell.

A cell sums m layers of atoms each, so its threshold is thr = 1/sqrt(atoms);
phi_g' is its per-layer gravitational rate with the convention applied and
phi_l the laser drift rate, both in rad/s.

- Gravity law: the layers dephase first. The contrast loss
  1 - c = (m^2 - 1) theta^2 / 24 (1 - (3 m^2 - 7) theta^2 / 240) reaches
  thr at theta = phi_g' tau, which to first order in thr, with
  (3 m^2 - 7) / (10 (m^2 - 1)) taken as 0.3, is
  tau_G = sqrt(24 thr / ((m^2 - 1) (1 - 0.3 thr))) / phi_g'.
- Laser law: the laser phase wraps first. For layers in phase the error past
  the arcsine fold is (2 a - pi) / a at a = phi_l tau, which reaches thr at
  tau_L = pi / ((2 - thr) phi_l).

Far from the crossover a cell lies on the smaller law. This is a test
helper; it imports nothing from gravclock.
"""

from __future__ import annotations

import math


def gravity_law(m: int, atoms: int, rate: float) -> float:
    """tau_G [s]; inf where nothing dephases (m = 1 or phi_g' = 0)."""
    if m < 2 or not rate:
        return math.inf
    thr = 1.0 / math.sqrt(atoms)
    return math.sqrt(24.0 * thr / ((m - 1) * (m + 1) * (1.0 - 0.3 * thr))) / rate


def laser_law(atoms: int, phi_l: float) -> float:
    """tau_L [s]; inf without a laser drift (phi_l = 0)."""
    if not phi_l:
        return math.inf
    return math.pi / ((2.0 - 1.0 / math.sqrt(atoms)) * phi_l)


def regime(m: int, atoms: int, phi_l: float, rate: float) -> tuple[str, float, float]:
    """(name, law, ratio): the smaller law, 'gravity' or 'laser', its tau [s],
    and the larger law over it, the cell's distance from the crossover."""
    laws = sorted([(gravity_law(m, atoms, rate), "gravity"), (laser_law(atoms, phi_l), "laser")])
    (law, name), (other, _) = laws
    return name, law, other / law
