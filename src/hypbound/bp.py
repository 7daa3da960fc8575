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
    """L with its witnesses; lower/upper filled in by bp_bounds."""

    L: float
    d: float
    witness_a: complex
    witness_s: float
    lower: float | None = None
    upper: float | None = None


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


def compute_L(spec: DomainSpec, z: complex, nb: NearestBoundary | None = None) -> BPBounds:
    """L(z): the minimum over nearest-boundary witnesses a of the log-scale
    distance from d to the achievable-distance set of a.  Bounds are left
    unset; bp_bounds fills them.

    nb, when given, must be nearest_boundary(spec, z) for this z; a result
    for another point raises ValueError.
    """
    nb = _reused_nearest(nb, z) or nearest_boundary(spec, z)
    best: tuple[float, complex, float] | None = None
    for _, a in nb.witnesses:
        val, sd = log_distance_to_set(nb.d, distance_set(spec, a, near=nb.d))
        if best is None or val < best[0]:
            best = (val, a, sd)
    val, wa, ws = best
    return BPBounds(L=val, d=nb.d, witness_a=wa, witness_s=ws)


def bp_bounds(spec: DomainSpec, z: complex, nb: NearestBoundary | None = None) -> BPBounds:
    """Two-sided density bounds at z, with L and its witnesses; nb as in compute_L."""
    r = compute_L(spec, z, nb)
    denom = r.d * (KAPPA + r.L)
    lower = 1.0 / (TWO_ROOT_TWO * denom)
    upper = (KAPPA + math.pi / 4.0) / denom
    if not lower <= upper:
        raise ArithmeticError(f"lower bound {lower} exceeds upper bound {upper} at z = {z}")
    return BPBounds(r.L, r.d, r.witness_a, r.witness_s, lower, upper)
