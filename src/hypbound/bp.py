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

from .geometry import (
    DomainSpec,
    NearestBoundary,
    _check_base,
    _ratio_gap,
    distance_set,
    nearest_boundary,
)

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
    achievable-distance set of a, with the bounds it gives.

    The witnesses are read in order, and the first at the smallest log gap
    gives L and its witnesses.  Every curve of the domain, the unit circle
    included, gives one interval from a.  When one of them holds d, L is 0
    at a, no witness can do better, and compute_L returns without building
    the point window of distance_set.  Otherwise it reads that window."""
    idx = spec.point_index
    d = nb.d
    best = None
    for _, a in nb.witnesses:
        curves = [prim.distance_interval(a) for _, prim in idx.others]
        # The L = 0 exit.  For floats d > 0 and hi > 0, _ratio_gap(d, lo, hi)
        # is 1.0 exactly when lo <= d <= hi.  If d lies in [lo, hi], its clamp
        # s is d, and d / d = 1.0.  Otherwise s != d, and the gap is the
        # larger of s and d over the smaller, x.  The larger is at least x
        # plus the ulp of x, which exceeds 2^-53 x: it is 2^-52 x / m for the
        # mantissa m in [1, 2) of x, and 2^-1074 > 2^-52 x below the normal
        # range.  So the quotient exceeds 1 + 2^-53, the midpoint between 1.0
        # and the next float, and rounds above 1.0.  The window holds these
        # intervals, so it would also give L = log(1.0) = 0.0 with ws = d at
        # a; log gaps are >= 0, so no later witness replaces a.
        if any(lo <= d <= hi for lo, hi in curves):
            _check_base(idx, a, (lo for lo, _ in curves))
            best = (0.0, d, a)
            break
        row = log_distance_to_set(d, distance_set(spec, a, near=d)) + (a,)
        if best is None or row[0] < best[0]:
            best = row
            if row[0] == 0.0:
                break
    L, ws, wa = best
    denom = d * (KAPPA + L)
    lower = 1.0 / (TWO_ROOT_TWO * denom)
    upper = (KAPPA + math.pi / 4.0) / denom
    if not lower <= upper:
        raise ArithmeticError(f"lower bound {lower} exceeds upper bound {upper} at z = {nb.z}")
    return BPBounds(L, d, wa, ws, lower, upper)


def bp_bounds(spec: DomainSpec, z: complex) -> BPBounds:
    """compute_L at z, from a nearest_boundary pass of its own."""
    return compute_L(spec, nearest_boundary(spec, z))
