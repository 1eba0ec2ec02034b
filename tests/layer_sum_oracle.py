"""Explicit O(m) layer sum: the test oracle for the closed-form Dirichlet kernel.

Sums the m per-layer unit phasors term by term with compensated (exact)
accumulation, the way the package computed the layer sum before it switched
to the closed form. Tests compare the production kernel against this, so
each comparison is between two independent computations.
"""

from __future__ import annotations

import math

import numpy as np


def symmetric_offsets(layer_count: int) -> np.ndarray:
    """k = -(m-1)/2 ... (m-1)/2: integers for odd m, half-integers for even m."""
    return np.arange(layer_count, dtype=float) - 0.5 * (layer_count - 1)


def explicit_layer_sum(
    phi_l: float, rate: float, layer_count: int, t: float
) -> tuple[float, float]:
    """(S_x, S_y): sums of cos and sin of (phi_l + k rate) t over the layers."""
    phases = (phi_l + symmetric_offsets(layer_count) * rate) * t
    return math.fsum(np.cos(phases).tolist()), math.fsum(np.sin(phases).tolist())


def explicit_dirichlet(layer_count: int, theta: float) -> float:
    """sum_k cos(k theta) over the symmetric offsets: D_m(theta) term by term."""
    return math.fsum(np.cos(symmetric_offsets(layer_count) * theta).tolist())
