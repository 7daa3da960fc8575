"""Two-sided hyperbolic density bounds from boundary data.

For a plane domain, the density of the hyperbolic metric (normalized so the
unit disk has density 1/(1 - |z|^2)) is pinned between two explicit
expressions in d, the distance from z to the boundary, and L, the log-scale
distance from d to the set of achievable distances |a - b| where a is a
nearest boundary point and b ranges over the whole boundary:

    1 / (2*sqrt(2) * d * (kappa + L))  <=  density  <=  (kappa + pi/4) / (d * (kappa + L))

with the absolute constant kappa = 4 + ln(3 + 2*sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import DomainSpec, NearestBoundary, _ratio_gap, _reused_nearest, distance_set, nearest_boundary

KAPPA = 4.0 + math.log(3.0 + 2.0 * math.sqrt(2.0))
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


class EmptySet(ValueError):
    """Every achievable-distance interval is degenerate at zero."""


@dataclass(frozen=True)
class BPBounds:
    """L with its witnesses and the two-sided bounds it gives."""

    L: float
    d: float
    witness_a: complex
    witness_s: float
    lower: float
    upper: float


def log_distance_to_set(d: float, intervals: tuple[tuple[float, float], ...]) -> tuple[float, float]:
    """Log-scale distance from d > 0 to the achievable-distance set.

    Returns (value, witness_s): witness_s is the clamp of d into the
    minimizing interval, so value = |ln(d / witness_s)|.  Intervals
    degenerate at 0 are skipped; they correspond to the base point itself.
    """
    if d <= 0.0:
        raise ValueError("d must be positive")
    best: float | None = None
    best_s = 0.0
    for lo, hi in intervals:
        if hi <= 0.0:
            continue
        val = math.log(_ratio_gap(d, lo, hi))
        if best is None or val < best:
            best, best_s = val, lo if d < lo else hi if d > hi else d
    if best is None:
        raise EmptySet("no positive achievable distances from the base point")
    return best, best_s


def compute_L(spec: DomainSpec, nb: NearestBoundary) -> BPBounds:
    """L at the point nb.z of nb = nearest_boundary(spec, z): the minimum over
    the nearest witnesses a of the log-scale distance from d to the
    achievable-distance set of a, with the bounds it gives."""
    # the first witness at the smallest log gap
    L, ws, wa = min(
        (log_distance_to_set(nb.d, distance_set(spec, a, near=nb.d)) + (a,) for _, a in nb.witnesses),
        key=lambda row: row[0],
    )
    denom = nb.d * (KAPPA + L)
    lower = 1.0 / (TWO_ROOT_TWO * denom)
    upper = (KAPPA + math.pi / 4.0) / denom
    if not lower <= upper:
        raise ArithmeticError(f"lower bound {lower} exceeds upper bound {upper} at z = {nb.z}")
    return BPBounds(L, nb.d, wa, ws, lower, upper)


def bp_bounds(spec: DomainSpec, z: complex, nb: NearestBoundary | None = None) -> BPBounds:
    """compute_L at z; nb, when given, must be nearest_boundary(spec, z) for
    this z, and a result for another point raises ValueError."""
    return compute_L(spec, _reused_nearest(nb, z) or nearest_boundary(spec, z))
