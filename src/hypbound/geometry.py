"""Closed-form geometric kernel for plane domains G = D \\ E.

D is the open unit disk; E is a finite union of obstacle primitives
(isolated points, line segments, closed disks) lying strictly inside D.
The unit circle is always part of the boundary of G.  A domain may carry a
distinguished sequence of obstacle points accumulating at 0; its points and
the limit point 0 are then registered as obstacles in their own right.

Every query in this module is closed form.  No discretization appears
anywhere: distances, nearest points, achievable-distance intervals and
first boundary hits along arc+radial paths are all exact up to rounding.
Points are complex numbers in unit-disk coordinates.

Boundary queries read a PointIndex, built on a domain's first query: its
SinglePoint primitives sorted by modulus, cut into blocks of _BLOCK
consecutive points with each block's bounding box, the set of the points,
and the few other primitives.  By the triangle inequality ||z| - |p|| <=
|z - p| <= |z| + |p|, so a point can meet a distance condition only if its
modulus lies in a window around |z|: `contains` looks the point up,
`nearest_boundary` and `boundary_gap` scan outward from |z| while ||z| -
|p|| is at most the best distance so far, and skip every later block whose
box lies farther from z than that distance, `first_boundary_hit` takes the
points within HIT_TOL of an arc's radius or a radial run's range, and
`distance_set(spec, a, d)` keeps the points whose |a - p| can lie as
close to d as the best match found: it reads the boxes too, and skips every
block of its window whose box lies wholly outside the annulus about a of
those distances.  Every window and box test is widened by _SLACK = 2^-40
times its scale plus _SLACK_TINY, a margin proved next to each of them to
exceed the rounding of the computed moduli and distances, so the indexed
answers are the floats a scan over every primitive returns.

The nearest witnesses of a point (Beardon-Pommerenke take the infimum
over exactly nearest boundary points) pass a float filter that keeps the
few candidates within rounding of the smallest distance.  Among the points
the filter keeps, exact integer arithmetic on the stored floats keeps
those at the exactly smallest distance.  Every curve it keeps stays: the
realizing point of a segment, disk or the unit circle is a rounded
projection, so an exact comparison with it would decide a tie by rounding
error.  Each witness lies within GEOM_TOL of its curve or is a stored point,
and `distance_set` accepts a base by that same test, with no boundary scan.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

GEOM_TOL = 1e-12   # on-boundary / witness tolerance
HIT_TOL = 1e-10    # boundary-hit tolerance along paths
_BLOCK = 32        # points per bounding box of the point index

# Widening of every window of the point index: _SLACK times the window's
# scale plus _SLACK_TINY.  With u = 2^-53, the rounding each window must
# absorb is a few dozen u relative (proved next to each window) and a few
# 2^-1074 absolute below the normal range.  _SLACK = 8192u and _SLACK_TINY
# clear both with room, and _SLACK stays small: a point within r * 2^-40 of
# the exactly nearest distance r still enters a window, so a wider slack
# lets the near-origin points of a sequence into every scan whose nearest
# point is the origin (on bench/specs/dense.json such a scan reads about 64
# points, and about 370 with a relative 1e-9).
#
# The scan of PointIndex.scan must visit every point p whose computed
# distance c = abs(z - p) can pass the float filter of nearest_boundary
# below (c <= d * _FILTER + _TINY, rounded, for the final d <= bound), and
# the point of smallest c.  Below, fl is rounding, |m - r| the modulus test
# with m = fl|p| and r = fl|z|, and lim = bound + (bound + r) * _SLACK +
# _SLACK_TINY as computed, so lim >= bound (1 + _SLACK)(1 - 3u) + r _SLACK
# (1 - 3u) + _SLACK_TINY (1 - u) - 2^-1075.  Any point with
#     |z - p| >= T = bound (1 + 40u) + 2^-1059
# fails the filter: c >= T (1 - 3u) - 2^-1074 > bound (1 + 35u) + 2^-1060
# (1 + u), which bounds the rounded cutoff.  Each test drops only such
# points.
# - Modulus: the scan stops at fl|m - r| > lim, so |m - r| > lim (1 - u)
#   (a difference is exact below the normal range).  A hypot lies within
#   relative 2u of the modulus and 2^-1074, so |m - r| <= ||p| - |z|| +
#   2u (|p| + |z|) + 2^-1073 <= |z - p| (1 + 2u) + 4u r (1 + 2u) + 2^-1072.
#   The 4u r term is below r _SLACK (1 - 4u), so
#       |z - p| (1 + 2u) > bound (1 + _SLACK)(1 - 4u) + _SLACK_TINY (1 - 2^-20),
#   and |z - p| >= T.
# - Box: see PointIndex.scan.
_SLACK = 2.0**-40
_SLACK_TINY = 2.0**-1050

# The float filter of nearest_boundary.  With u = 2^-53, a computed
# abs(z - w) rounds each coordinate difference (relative error <= u, exact
# when the result is subnormal) and passes them to the C library's hypot,
# which glibc documents within 1 ulp (relative 2u).  So it lies within a
# factor 1 +- 3u (+ O(u^2)) of the exact |z - w|, up to 2^-1074 below the
# normal range.  Let d = abs(z - w') be the smallest computed distance.  A
# point w with |z - w| <= |z - w'|, such as the exactly nearest point when
# w' is a point, has
#     abs(z - w) <= (1 + 3u)|z - w| <= (1 + 3u)|z - w'| <= d (1 + 3u)/(1 - 3u) < d (1 + 7u),
# while d * (1 + 32u), rounded, is at least d (1 + 31u): it passes, with
# room for a hypot up to 7 ulps off, or for a curve's realizing point w'
# that rounding moved a few ulps nearer than the curve's point tied with w.
_FILTER = 1.0 + 2.0**-48   # 1 + 32u, a float exactly
# Absolute allowance for underflow, far above the few 2^-1074 that the
# distances can lose below the normal range.
_TINY = 2.0**-1060

_TAU = 2.0 * math.pi


class SpecError(ValueError):
    """Structurally invalid domain description (schema or invariant)."""


class NotInDomain(ValueError):
    """The queried point does not lie in G."""


class NotOnBoundary(ValueError):
    """The base point does not lie on the boundary of G."""


class MalformedPath(ValueError):
    """Path is not an arc+radial concatenation of the supported shape."""


def _angle(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _wrap(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.remainder(theta, _TAU)


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


# ---------------------------------------------------------------------------
# primitives


@dataclass(frozen=True)
class UnitCircle:
    """The circle |z| = 1, boundary of the ambient disk."""

    def set_distance(self, z: complex) -> float:
        return abs(1.0 - abs(z))

    boundary_distance = set_distance

    def nearest_point(self, z: complex) -> complex:
        if z == 0:
            return complex(1.0, 0.0)
        if abs(z) < 1e-150:
            # near the subnormals |z| rounds too coarsely for z / |z| to land on
            # the circle (5e-324 + 5e-324j gives 1 + 1j); a power of 2 scales exactly
            z *= 2.0**500
        return z / abs(z)

    def distance_interval(self, a: complex) -> tuple[float, float]:
        r = abs(a)
        return (abs(1.0 - r), 1.0 + r)


@dataclass(frozen=True)
class SinglePoint:
    """An isolated obstacle point strictly inside the unit disk."""

    p: complex

    def __post_init__(self):
        if not cmath.isfinite(self.p):
            raise SpecError("point has non-finite coordinates")
        if abs(self.p) >= 1.0:
            raise SpecError(f"point {self.p} is not inside the unit disk")

    def set_distance(self, z: complex) -> float:
        return abs(z - self.p)

    boundary_distance = set_distance

    def nearest_point(self, z: complex) -> complex:
        return self.p

    def distance_interval(self, a: complex) -> tuple[float, float]:
        r = abs(a - self.p)
        return (r, r)


@dataclass(frozen=True)
class Segment:
    """A closed line segment obstacle with distinct endpoints inside D."""

    p: complex
    q: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.p) and cmath.isfinite(self.q)):
            raise SpecError("segment has non-finite coordinates")
        # also rejects endpoints so close that the squared length underflows
        if _dot(self.q - self.p, self.q - self.p) == 0.0:
            raise SpecError("segment is degenerate: its squared length is 0")
        if max(abs(self.p), abs(self.q)) >= 1.0:
            raise SpecError("segment is not inside the unit disk")

    def nearest_point(self, z: complex) -> complex:
        v = self.q - self.p
        t = _dot(z - self.p, v) / _dot(v, v)
        t = min(max(t, 0.0), 1.0)
        return self.p + t * v

    def set_distance(self, z: complex) -> float:
        return abs(z - self.nearest_point(z))

    boundary_distance = set_distance

    def distance_interval(self, a: complex) -> tuple[float, float]:
        # distance along a connected set sweeps an interval; the max over a
        # segment is attained at an endpoint
        return (self.set_distance(a), max(abs(a - self.p), abs(a - self.q)))


@dataclass(frozen=True)
class ObstacleDisk:
    """A closed disk obstacle contained in the open unit disk.

    As an obstacle it is the filled disk; as a piece of the boundary of G
    it is the bounding circle.  The two roles use different distances.
    """

    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise SpecError("disk has non-finite parameters")
        if self.radius <= 0.0:
            raise SpecError("disk radius must be positive")
        if abs(self.center) + self.radius >= 1.0:
            raise SpecError("disk is not inside the unit disk")

    def set_distance(self, z: complex) -> float:
        return max(abs(z - self.center) - self.radius, 0.0)

    def boundary_distance(self, z: complex) -> float:
        return abs(abs(z - self.center) - self.radius)

    def nearest_point(self, z: complex) -> complex:
        v = z - self.center
        if v == 0:
            return self.center + complex(self.radius, 0.0)
        return self.center + self.radius * v / abs(v)

    def distance_interval(self, a: complex) -> tuple[float, float]:
        r = abs(a - self.center)
        return (abs(r - self.radius), r + self.radius)


Primitive = UnitCircle | SinglePoint | Segment | ObstacleDisk


# ---------------------------------------------------------------------------
# sequences and domains


@dataclass(frozen=True)
class SequenceSpec:
    """Obstacle point sequence a_0, a_1, ... heading toward the origin."""

    resolved_points: tuple[complex, ...]

    @classmethod
    def geometric(cls, delta: float, ratio: float, count: int) -> "SequenceSpec":
        """Points delta * ratio**n on the positive real axis, n = 0..count-1."""
        if isinstance(count, bool) or not (isinstance(count, int) and count >= 1):
            raise SpecError("count must be a positive integer")
        if not (0.0 < delta < 1.0):
            raise SpecError("delta must lie in (0, 1)")
        if not (0.0 < ratio < 1.0):
            raise SpecError("ratio must lie in (0, 1)")
        # the points never increase, so the last is 0 exactly when any one is
        if delta * ratio ** (count - 1) == 0.0:
            raise SpecError(f"count {count} is too large: point {count - 1} underflows to 0")
        pts = tuple(complex(delta * ratio**n, 0.0) for n in range(count))
        return cls(pts)

    @classmethod
    def explicit(cls, points: Iterable[complex]) -> "SequenceSpec":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise SpecError("points must be nonempty")
        for i, p in enumerate(pts):
            if not cmath.isfinite(p):
                raise SpecError(f"points[{i}] has non-finite coordinates")
            if abs(p) >= 1.0:
                raise SpecError(f"points[{i}] is not inside the unit disk")
        return cls(pts)

    @cached_property
    def largest(self) -> complex:
        """The first point of largest modulus; its modulus is delta."""
        return max(self.resolved_points, key=abs)

    @cached_property
    def floor(self) -> float:
        """The smallest modulus of a resolved point."""
        return min(abs(p) for p in self.resolved_points)


def _check_user_primitives(primitives: Iterable[Primitive]) -> tuple[Primitive, ...]:
    user = tuple(primitives)
    for i, prim in enumerate(user):
        if isinstance(prim, UnitCircle):
            raise SpecError(f"primitives[{i}]: the unit circle is implicit and must not be listed")
        if isinstance(prim, SinglePoint) and prim.p == 0:
            raise SpecError(f"primitives[{i}]: the origin obstacle is implicit and must not be listed")
        if not isinstance(prim, (SinglePoint, Segment, ObstacleDisk)):
            raise SpecError(f"primitives[{i}]: unsupported primitive {prim!r}")
    return user


@dataclass(frozen=True)
class DomainSpec:
    """G = D \\ E with the full registered primitive list.

    The list always ends with the unit circle.  For domains built with a
    sequence, the sequence points and the origin are registered as
    SinglePoint obstacles after the user primitives.
    """

    primitives: tuple[Primitive, ...]
    sequence: SequenceSpec | None
    n_user: int

    @classmethod
    def build(cls, primitives: Iterable[Primitive], sequence: SequenceSpec) -> "DomainSpec":
        if sequence is None:
            raise SpecError("sequence required; use DomainSpec.bare for sequence-free fixtures")
        user = _check_user_primitives(primitives)
        full = (
            user
            + tuple(SinglePoint(p) for p in sequence.resolved_points)
            + (SinglePoint(0j), UnitCircle())
        )
        return cls(full, sequence, len(user))

    @classmethod
    def bare(cls, primitives: Iterable[Primitive] = (), include_origin: bool = False) -> "DomainSpec":
        """Sequence-free domain, used for closed-form oracle fixtures."""
        user = _check_user_primitives(primitives)
        full = user + ((SinglePoint(0j),) if include_origin else ()) + (UnitCircle(),)
        return cls(full, None, len(user))

    @property
    def obstacles(self) -> tuple[Primitive, ...]:
        return self.primitives[:-1]

    @cached_property
    def point_index(self) -> "PointIndex":
        """Built on the first boundary query, never at load time."""
        return PointIndex(self.primitives)


class PointIndex:
    """The SinglePoint primitives of a domain, sorted by modulus.

    `moduli` is ascending, `slots[j]` is the primitive index of the point
    `points[j]` of modulus `moduli[j]` (ties keep primitive order),
    `boxes[k]` is (xmin, xmax, ymin, ymax) over the points of block k,
    `points[k * _BLOCK : (k + 1) * _BLOCK]`, `point_set` holds the points,
    `others` the (index, primitive) pairs of every other primitive, the unit
    circle included, in primitive order, and `shapes` the segments and disks
    among them.
    """

    def __init__(self, primitives: tuple[Primitive, ...]):
        self.primitives = primitives
        ranked = sorted(
            (abs(prim.p), i) for i, prim in enumerate(primitives) if isinstance(prim, SinglePoint)
        )
        self.moduli = [m for m, _ in ranked]
        self.slots = [i for _, i in ranked]
        self.points = [primitives[i].p for i in self.slots]
        # ups[k] and downs[k] run through block k in scan order; each list
        # ends with an empty run that stands for the block past its end
        n = len(self.points)
        self.ups = [range(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
        self.downs = [js[::-1] for js in self.ups] + [range(-1, -1, -1)]
        xs, ys = [p.real for p in self.points], [p.imag for p in self.points]
        self.boxes = []
        for js in self.ups:
            bx, by = xs[js.start : js.stop], ys[js.start : js.stop]
            self.boxes.append((min(bx), max(bx), min(by), max(by)))
        self.ups.append(range(n, n))
        self.point_set = frozenset(self.points)
        self.others = [(i, prim) for i, prim in enumerate(primitives) if not isinstance(prim, SinglePoint)]
        self.shapes = [prim for _, prim in self.others if not isinstance(prim, UnitCircle)]

    def band(self, lo: float, hi: float) -> tuple[int, int]:
        """(start, stop): the positions j of the points with lo <= moduli[j]
        <= hi, the window widened by hi * _SLACK + _SLACK_TINY.

        A caller passes [lo, hi] holding the exact modulus of every point it
        needs to within 20u * hi and a few 2^-1074 (u = 2^-53).  The stored
        modulus m = fl|p| adds 2u and 2^-1074, and the two bisection bounds
        lose 3u * hi more, far within the widening of 8192u * hi + 2^-1050.
        """
        pad = abs(hi) * _SLACK + _SLACK_TINY
        return bisect_left(self.moduli, lo - pad), bisect_right(self.moduli, hi + pad)

    def between(self, lo: float, hi: float) -> list[int]:
        """Primitive indices of the points of band(lo, hi)."""
        start, stop = self.band(lo, hi)
        return self.slots[start:stop]

    def scan(self, z: complex, bound: float) -> tuple[float, list[tuple[float, int, complex]]]:
        """(d, hits): d is the smaller of bound and the distance from z to the
        nearest point, and hits holds (|z - p|, index, p) for every point p
        whose computed distance can come within rounding of d.

        The first point, the origin when it is registered, seeds bound: the
        downward scan would reach it last.  The scan then runs outward from
        |z| in both directions and lowers bound to each nearer distance it
        meets.  It reads the block holding |z| in each direction point by
        point; it stops at the first point, and so at the first later block,
        whose ||z| - |p|| exceeds lim = bound + (bound + |z|) * _SLACK +
        _SLACK_TINY, and skips each later block whose box lies farther than
        lim from z.  The bound it ends with is d.  The proofs next to _SLACK
        and below show that both tests drop only points beyond the float
        filter of nearest_boundary, so every candidate it keeps is a hit.
        """
        r = abs(z)
        ms, pts, slots, ups, downs = self.moduli, self.points, self.slots, self.ups, self.downs
        if pts:
            d0 = abs(z - pts[0])
            if d0 < bound:
                bound = d0
        lim = bound + (bound + r) * _SLACK + _SLACK_TINY
        mid = bisect_left(ms, r)
        up, down = mid // _BLOCK, (mid - 1) // _BLOCK
        out = []
        # (rest of the block holding |z|, its block, step, end, runs) per direction
        for js, k, step, stop, runs in (
            (range(mid, ups[up].stop), up, 1, len(ups) - 1, ups),
            (range(mid - 1, downs[down].stop, -1), down, -1, -1, downs),
        ):
            while js:
                for j in js:
                    if not abs(ms[j] - r) <= lim:
                        break
                    dist = abs(z - pts[j])
                    out.append((dist, slots[j], pts[j]))
                    if dist < bound:
                        bound = dist
                        lim = bound + (bound + r) * _SLACK + _SLACK_TINY
                else:
                    # the run is spent: go on to the next block that passes
                    # the modulus test on its nearest point and the box test
                    js = None
                    x, y = z.real, z.imag
                    for k in range(k + step, stop, step):
                        if not abs(ms[runs[k][0]] - r) <= lim:
                            break
                        # The box is the exact extent of the block's stored
                        # coordinates, so every p in it has |z - p| >= B, the
                        # exact distance from z to the box.  The computed dx,
                        # dy exceed its legs by at most u relative, and a
                        # square rounds by u relative or, below the normal
                        # range, by 2^-1075, so fl(dx^2) + fl(dy^2) <= B^2
                        # (1 + u)^3 + 2^-1074.  A skip needs fl(lim^2) >
                        # 2^-1000, so both sides are normal numbers and
                        #     B^2 (1 + u)^4 + 2^-1073 > fl(sum) > fl(lim^2) >= lim^2 (1 - u),
                        # where 2^-1073 < 2^-72 lim^2; so B > lim (1 - 3u) >=
                        # bound (1 + _SLACK)(1 - 6u) + 2^-1051 > T of _SLACK,
                        # and the block holds no candidate.  Where lim^2 is
                        # smaller, a square rounding up by half its subnormal
                        # grid could decide the test, so no block is skipped.
                        x0, x1, y0, y1 = self.boxes[k]
                        dx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
                        dy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
                        if not dx * dx + dy * dy > lim * lim > 2.0**-1000:
                            js = runs[k]
                            break
                    continue
                break
        return bound, out

    def window(self, a: complex, d: float) -> tuple[tuple[float, float], ...]:
        """The intervals of distance_set(spec, a, d), in primitive order.

        The other primitives and the points whose moduli bracket |a| + d,
        |a| - d and d - |a| seed the best ratio rho = e^b, where b is the
        smallest log gap from d to one of their intervals.  A point p can
        only do as well if d/rho <= |a - p| <= d rho, so its modulus lies in
        the band [max(|a| - d rho, d/rho - |a|), |a| + d rho], and it lies in
        the annulus about a with those radii.  The band is read block by
        block: a block whose box lies wholly outside the outer circle, or
        whose farthest corner lies inside the inner one, is skipped, and the
        points of every other block in the band are read one by one.

        Rounding: a point whose computed gap fl(s/d) or fl(d/s) from its
        computed distance s is at most rho has s <= reach (1 + 3u) and s >=
        fl(d/rho) (1 - 3u), with reach = fl(d rho); its exact distance lies
        within 3u of s and |a| within 2u of r.  So |p| <= |a| + |a - p| and
        |p| >= max(|a| - |a - p|, |a - p| - |a|) put its exact modulus within
        about 12u * (r + reach) of the band below, and band() absorbs that.
        The proof of the box tests is next to them.
        """
        r = abs(a)
        found = {i: prim.distance_interval(a) for i, prim in self.others}
        seeds = set()
        for target in (r + d, r - d, d - r):
            j = bisect_left(self.moduli, target)
            seeds.update(self.slots[max(j - 1, 0) : j + 1])
        rho = min(
            _ratio_gap(d, *iv)
            for iv in (*found.values(), *(self.primitives[i].distance_interval(a) for i in seeds))
        )
        reach, near = d * rho, d / rho
        start, stop = self.band(max(r - reach, near - r), r + reach)
        # The box is the exact extent of the block's stored coordinates, so
        # every p in it has B <= |a - p| <= F, the exact distances from a to
        # the box and to its farthest corner.  By the docstring and the
        # hypot bound of _FILTER, a point that can enter has
        #     near (1 - 7u) - 2^-1074 <= |a - p| <= reach (1 + 7u) + 2^-1073.
        # Each test skips only where its radius squared exceeds 2^-1000, so
        # the radius exceeds 2^-501, scaling it by _SLACK is exact, and the
        # 2^-1073 that subnormal squares and sums can lose is below 2^-72 of
        # that square.
        # - Outer: out = reach + reach * _SLACK + _SLACK_TINY as computed is
        #   at least reach (1 + _SLACK)(1 - 2u).  As in scan, fl(dx^2) +
        #   fl(dy^2) <= B^2 (1 + u)^3 + 2^-1074, so a skip has B^2 (1 + u)^4
        #   + 2^-1073 > fl(out^2) >= out^2 (1 - u), B > out (1 - 3u) >=
        #   reach (1 + _SLACK)(1 - 5u) > reach (1 + 7u) + 2^-1073, and no
        #   point of the block can enter.
        # - Inner: F needs a bound that rounds upward.  fx, fy are its legs
        #   rounded (the larger of two differences stays the larger), at
        #   least the legs times 1 - u; a square loses at most u relative
        #   and 2^-1075, a sum of two non-negative terms u relative, so
        #   fl(fx^2 + fy^2) >= F^2 (1 - u)^4 - 2^-1074 and a skip has
        #       F^2 <= (fl(fx^2 + fy^2) + 2^-1074)(1 + 5u)
        #           < (fl(inn^2) + 2^-1074)(1 + 5u) <= inn^2 (1 + 7u).
        #   inn = near - near * _SLACK - _SLACK_TINY as computed is at most
        #   near (1 - _SLACK)(1 + 3u), so F < near (1 - _SLACK)(1 + 8u) <
        #   near (1 - 7u) - 2^-1074: no point of the block can enter.
        # Below 2^-1000 a square rounding by half its subnormal grid could
        # decide a test (see scan), so no block is skipped.
        out = reach + reach * _SLACK + _SLACK_TINY
        inn = near - near * _SLACK - _SLACK_TINY
        out2, inn2 = out * out, inn * inn
        x, y = a.real, a.imag
        prims, slots = self.primitives, self.slots
        for k in range(start // _BLOCK, (stop - 1) // _BLOCK + 1):
            x0, x1, y0, y1 = self.boxes[k]
            dx = x0 - x if x < x0 else x - x1 if x > x1 else 0.0
            dy = y0 - y if y < y0 else y - y1 if y > y1 else 0.0
            if dx * dx + dy * dy > out2 > 2.0**-1000:
                continue
            fx = x1 - x if x1 - x > x - x0 else x - x0
            fy = y1 - y if y1 - y > y - y0 else y - y0
            if fx * fx + fy * fy < inn2 and inn > 2.0**-500:
                continue
            lo, hi = k * _BLOCK, k * _BLOCK + _BLOCK
            for i in slots[start if start > lo else lo : stop if stop < hi else hi]:
                found[i] = prims[i].distance_interval(a)
        return tuple(found[i] for i in sorted(found))


# ---------------------------------------------------------------------------
# membership and nearest boundary


class Membership(Enum):
    IN_G = "InG"
    IN_E = "InE"
    ON_UNIT_CIRCLE_OR_OUTSIDE = "OnUnitCircleOrOutside"


def contains(spec: DomainSpec, z: complex) -> Membership:
    if not cmath.isfinite(z):
        raise ValueError("query point has non-finite coordinates")
    if abs(z) >= 1.0:
        return Membership.ON_UNIT_CIRCLE_OR_OUTSIDE
    idx = spec.point_index
    if z in idx.point_set or any(prim.set_distance(z) <= 0.0 for prim in idx.shapes):
        return Membership.IN_E
    return Membership.IN_G


@dataclass(frozen=True)
class NearestBoundary:
    """Nearest-boundary data of the point z, which callers reusing it check."""

    z: complex
    d: float
    witnesses: tuple[tuple[int, complex], ...]


def nearest_boundary(spec: DomainSpec, z: complex) -> NearestBoundary:
    """Distance to the boundary of G with its nearest witnesses.

    d is the smallest computed distance.  Witnesses are (primitive index,
    realizing point) pairs, in primitive order: every point primitive at
    the exactly smallest |z - p| among the points within the float filter,
    so exact ties stay and near-ties go, and every other primitive within
    the filter, whose realizing point is a rounded projection.  Raises
    NotInDomain when z is not in G or lies within rounding of its boundary.
    """
    if contains(spec, z) is not Membership.IN_G:
        raise NotInDomain(f"point {z} is not in G")
    idx = spec.point_index
    curves = [(abs(z - w), i, w) for i, prim in idx.others for w in (prim.nearest_point(z),)]
    d, hits = idx.scan(z, min(dist for dist, _, _ in curves))
    if d == 0.0:
        # a witness rounded onto z (a disk narrower than an ulp of z): z lies
        # within rounding of the boundary, with no positive distance to bound
        raise NotInDomain(f"point {z} is within rounding of the boundary")
    cutoff = d * _FILTER + _TINY
    points = [(i, p) for dist, i, p in hits if dist <= cutoff]
    if len(points) > 1:
        points = _exactly_nearest(z, points)
    witnesses = sorted([(i, w) for dist, i, w in curves if dist <= cutoff] + points)
    for i, w in witnesses:
        if spec.primitives[i].boundary_distance(w) > GEOM_TOL:
            raise RuntimeError(f"witness {w} of primitive {i} is off the boundary")
    if 0j in idx.point_set and d > abs(z):
        raise RuntimeError(f"boundary distance {d} exceeds |z| = {abs(z)} with 0 on the boundary")
    return NearestBoundary(z, d, tuple(witnesses))


def _reused_nearest(nb: NearestBoundary | None, z: complex) -> NearestBoundary | None:
    """nb, a nearest_boundary result passed in for reuse at z, or None when
    none was passed; a result for another point raises ValueError."""
    if nb is not None and nb.z != z:
        raise ValueError(f"nearest-boundary result for {nb.z} passed for z = {z}")
    return nb


def _exactly_nearest(z: complex, points: list[tuple[int, complex]]) -> list[tuple[int, complex]]:
    """The (index, point) pairs at the exactly smallest |z - p|.

    Every finite float is n / 2^k for integers n and k >= 0, so scaled by
    the largest 2^k among the coordinates, the squared distances are
    integers, computed without rounding.
    """
    ratios = [x.as_integer_ratio() for w in (z, *(p for _, p in points)) for x in (w.real, w.imag)]
    scale = max(den for _, den in ratios)
    zx, zy, *coords = (n * (scale // den) for n, den in ratios)
    sq = [(x - zx) ** 2 + (y - zy) ** 2 for x, y in zip(coords[::2], coords[1::2])]
    best = min(sq)
    return [ip for ip, s in zip(points, sq) if s == best]


def boundary_gap(spec: DomainSpec, z: complex) -> float:
    """Distance from z to the union of boundary curves of the primitives."""
    idx = spec.point_index
    return idx.scan(z, min(prim.boundary_distance(z) for _, prim in idx.others))[0]


def obstacle_gap(spec: DomainSpec, z: complex) -> float:
    """Distance from z to E, the union of the obstacles; inf when there is none."""
    idx = spec.point_index
    return idx.scan(z, min((prim.set_distance(z) for prim in idx.shapes), default=math.inf))[0]


# ---------------------------------------------------------------------------
# achievable-distance intervals


def _ratio_gap(d: float, lo: float, hi: float) -> float:
    """e^v for the log gap v from d > 0 to [lo, hi], read against the clamp s
    of d into it; inf for an interval degenerate at 0."""
    if hi <= 0.0:
        return math.inf
    # min(max(d, lo), hi) without two builtin calls: this runs once per interval
    s = lo if d < lo else hi if d > hi else d
    return s / d if s > d else d / s


def distance_set(spec: DomainSpec, a: complex, near: float) -> tuple[tuple[float, float], ...]:
    """The achievable-distance intervals {|a - b| : b in P} from the boundary
    point a that can come as close to near = d (d > 0, finite) in log scale
    as the best one: of the one interval per primitive, the subset, in
    primitive order, that holds every interval at the smallest log gap to d,
    so log_distance_to_set(d, .) returns the floats it returns for all of
    them.  Raises NotOnBoundary unless a is a stored point or lies within
    GEOM_TOL of a curve (the unit circle, a segment or a disk's circle), the
    test every nearest witness has passed.
    """
    if not 0.0 < near < math.inf:
        raise ValueError("near must be a positive finite distance")
    idx = spec.point_index
    if a not in idx.point_set and all(prim.boundary_distance(a) > GEOM_TOL for _, prim in idx.others):
        raise NotOnBoundary(f"point {a} is not on the boundary of G")
    return idx.window(a, near)


# ---------------------------------------------------------------------------
# arc + radial paths


@dataclass(frozen=True)
class ArcPiece:
    """Arc of the circle S(0, radius) from start_angle, sweeping `sweep` radians."""

    radius: float
    start_angle: float
    sweep: float

    def point(self, t: float) -> complex:
        return cmath.rect(self.radius, self.start_angle + t * self.sweep)


@dataclass(frozen=True)
class RadialPiece:
    """Straight run along the ray at `angle`, radius r_start to r_end."""

    angle: float
    r_start: float
    r_end: float

    def point(self, t: float) -> complex:
        return cmath.rect(self.r_start + t * (self.r_end - self.r_start), self.angle)


@dataclass(frozen=True)
class ArcRadialPath:
    arc: ArcPiece | None
    radial: RadialPiece | None

    def __post_init__(self):
        if self.arc is None and self.radial is None:
            raise MalformedPath("path has no pieces")

    @property
    def pieces(self) -> tuple:
        return tuple(p for p in (self.arc, self.radial) if p is not None)


def arc_then_radial(start: complex, target: complex) -> ArcRadialPath:
    """Shorter arc of S(0, |start|) onto the ray of target, then radially to target.

    Degenerate pieces (zero sweep, equal radii) are dropped; a path left
    with no piece raises MalformedPath.
    """
    if start == 0 or target == 0:
        raise MalformedPath("path endpoints must avoid the origin")
    rho = abs(start)
    th0, th1 = _angle(start), _angle(target)
    sweep = _wrap(th1 - th0)
    arc = ArcPiece(rho, th0, sweep) if abs(sweep) > 1e-15 else None
    radial = RadialPiece(th1, rho, abs(target)) if abs(target) != rho else None
    return ArcRadialPath(arc, radial)


def _quad_roots(a: float, b: float, c: float) -> tuple[float, ...]:
    if a == 0.0:
        return () if b == 0.0 else (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        # a graze within rounding still counts as touching
        if disc > -1e-13 * max(b * b, abs(4.0 * a * c)):
            disc = 0.0
        else:
            return ()
    rt = math.sqrt(disc)
    return ((-b - rt) / (2.0 * a), (-b + rt) / (2.0 * a))


def _arc_param(arc: ArcPiece, phi: float) -> float | None:
    """Arc parameter of the angle phi, or None when outside the sweep."""
    u = _wrap(phi - arc.start_angle)
    s = arc.sweep
    eps = 1e-12
    if s > 0:
        if u < -eps or u > s + eps:
            return None
    else:
        if u > eps or u < s - eps:
            return None
    return min(max(u / s, 0.0), 1.0)


def _arc_candidates(arc: ArcPiece, prim: Primitive) -> list[float]:
    out: list[float] = []
    if isinstance(prim, SinglePoint):
        if prim.p != 0:
            t = _arc_param(arc, _angle(prim.p))
            if t is not None:
                out.append(t)
    elif isinstance(prim, Segment):
        v = prim.q - prim.p
        a = _dot(v, v)
        b = 2.0 * _dot(prim.p, v)
        c0 = _dot(prim.p, prim.p) - arc.radius * arc.radius
        for s in _quad_roots(a, b, c0):
            if -1e-12 <= s <= 1.0 + 1e-12:
                x = prim.p + min(max(s, 0.0), 1.0) * v
                t = _arc_param(arc, _angle(x))
                if t is not None:
                    out.append(t)
    elif isinstance(prim, ObstacleDisk):
        d0 = abs(prim.center)
        den = 2.0 * d0 * arc.radius
        if d0 <= GEOM_TOL:
            if abs(arc.radius - prim.radius) <= HIT_TOL:
                out.append(0.0)
        elif den == 0.0:
            # an arc so near the origin that 2 d0 r underflows meets the
            # circle only if the circle passes within HIT_TOL of the origin
            if prim.boundary_distance(0j) <= HIT_TOL:
                out.append(0.0)
        else:
            x = (d0 * d0 + arc.radius**2 - prim.radius**2) / den
            if abs(x) <= 1.0 + 1e-9:
                beta = math.acos(min(max(x, -1.0), 1.0))
                base = _angle(prim.center)
                for phi in (base - beta, base + beta):
                    t = _arc_param(arc, phi)
                    if t is not None:
                        out.append(t)
    elif isinstance(prim, UnitCircle):
        if abs(arc.radius - 1.0) <= HIT_TOL:
            out.append(0.0)
    return out


def _radial_candidates(rad: RadialPiece, prim: Primitive) -> list[float]:
    A = rad.point(0.0)
    B = rad.point(1.0)
    V = B - A
    vv = _dot(V, V)
    out: list[float] = []
    if isinstance(prim, SinglePoint):
        t = _dot(prim.p - A, V) / vv if vv > 0.0 else 0.0
        out.append(t)
    elif isinstance(prim, Segment):
        u = prim.q - prim.p
        w = prim.p - A
        den = _cross(V, u)
        if abs(den) <= 1e-12 * math.sqrt(vv) * abs(u):
            # parallel: a collinear overlap contributes its earliest parameter
            if vv > 0.0 and abs(_cross(w, u)) <= HIT_TOL * abs(u):
                tp = _dot(prim.p - A, V) / vv
                tq = _dot(prim.q - A, V) / vv
                lo, hi = min(tp, tq), max(tp, tq)
                if hi >= -1e-12 and lo <= 1.0 + 1e-12:
                    out.append(max(lo, 0.0))
        else:
            t = _cross(w, u) / den
            s = _cross(w, V) / den
            if -1e-12 <= t <= 1.0 + 1e-12 and -1e-12 <= s <= 1.0 + 1e-12:
                out.append(t)
    elif isinstance(prim, ObstacleDisk):
        a = vv
        b = 2.0 * _dot(A - prim.center, V)
        c0 = _dot(A - prim.center, A - prim.center) - prim.radius * prim.radius
        out.extend(_quad_roots(a, b, c0))
    elif isinstance(prim, UnitCircle):
        if rad.r_end != rad.r_start:
            out.append((1.0 - rad.r_start) / (rad.r_end - rad.r_start))
    return out


def _piece_hits(piece, prim: Primitive) -> list[float]:
    if isinstance(piece, ArcPiece):
        raw = _arc_candidates(piece, prim)
    else:
        raw = _radial_candidates(piece, prim)
    hits = []
    for t in raw:
        tc = min(max(t, 0.0), 1.0)
        if prim.boundary_distance(piece.point(tc)) <= HIT_TOL:
            hits.append(tc)
    return hits


def first_boundary_hit(spec: DomainSpec, path: ArcRadialPath) -> complex:
    """First point of the boundary of G met along the path from its start.

    The path must end on the boundary, so a hit always exists.
    """
    idx = spec.point_index
    for piece in path.pieces:
        # a point hit lies within HIT_TOL of the piece, whose moduli span [lo,
        # hi], up to rounding that between() absorbs: a computed point w of the
        # piece has a modulus within 6u * hi of [lo, hi], and a hit needs a
        # computed |w - p| <= HIT_TOL, so an exact one within 4u of it
        if isinstance(piece, ArcPiece):
            lo = hi = piece.radius
        else:
            lo, hi = sorted((piece.r_start, piece.r_end))
        near = [idx.primitives[i] for i in idx.between(lo - HIT_TOL, hi + HIT_TOL)]
        best: float | None = None
        for prim in [prim for _, prim in idx.others] + near:
            for t in _piece_hits(piece, prim):
                if best is None or t < best:
                    best = t
        if best is not None:
            return piece.point(best)
    raise MalformedPath("path never meets the boundary of G")


# ---------------------------------------------------------------------------
# clearance between fat primitives (connectivity heuristics)


def _segments_cross(p1: complex, q1: complex, p2: complex, q2: complex) -> bool:
    """True when each segment has its endpoints strictly on opposite sides of the other's line."""
    s1 = (_cross(q2 - p2, p1 - p2), _cross(q2 - p2, q1 - p2))
    s2 = (_cross(q1 - p1, p2 - p1), _cross(q1 - p1, q2 - p1))
    return min(s1) < 0.0 < max(s1) and min(s2) < 0.0 < max(s2)


def primitive_clearance(a: Primitive, b: Primitive) -> float:
    """Set distance between two fat (segment or disk) obstacles."""
    if isinstance(a, Segment) and isinstance(b, Segment):
        # a touch or a collinear overlap puts an endpoint within rounding of
        # the other segment, so only a proper crossing needs its own test
        if _segments_cross(a.p, a.q, b.p, b.q):
            return 0.0
        return min(
            a.set_distance(b.p),
            a.set_distance(b.q),
            b.set_distance(a.p),
            b.set_distance(a.q),
        )
    if isinstance(a, (Segment, ObstacleDisk)) and isinstance(b, ObstacleDisk):
        return max(a.set_distance(b.center) - b.radius, 0.0)
    if isinstance(a, ObstacleDisk) and isinstance(b, Segment):
        return primitive_clearance(b, a)
    raise TypeError("clearance is defined for segment and disk obstacles")


# ---------------------------------------------------------------------------
# serialization


def _object(entry, where: str, fields: tuple[str, ...]) -> None:
    """Check that entry is a JSON object with no field outside `fields`."""
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: must be an object")
    extra = set(entry) - set(fields)
    if extra:
        raise SpecError(f"{where}: unexpected fields {sorted(extra)}")


def _num(entry: dict, key: str, where: str) -> float:
    try:
        v = entry[key]
    except KeyError as e:
        raise SpecError(f"{where}: missing field {key!r}") from e
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{where}: field {key!r} must be a number")
    return float(v)


def _typed(entry, where: str, types: dict) -> tuple:
    """The row of `types` for the "type" of entry, a JSON object; each row
    starts with the fields, besides "type", that an entry of its type has."""
    kind = entry.get("type") if isinstance(entry, dict) else None
    if kind not in types and isinstance(entry, dict):
        raise SpecError(f"{where}: unknown type {kind!r}")
    # a non-object has no row, and _object rejects it
    row = types.get(kind, ((),))
    _object(entry, where, ("type", *row[0]))
    return row


def _explicit_points(entry: dict) -> list[complex]:
    raw = entry.get("points")
    if not isinstance(raw, list):
        raise SpecError("sequence: points must be a list")
    pts = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
        ):
            raise SpecError(f"sequence: points[{i}] must be [x, y]")
        pts.append(complex(float(pair[0]), float(pair[1])))
    return pts


def _built(where: str, make, *args):
    """make(*args), with `where` put before the text of a SpecError it
    raises: the constructors check values without knowing where they were read."""
    try:
        return make(*args)
    except SpecError as e:
        raise SpecError(f"{where}: {e}") from e


# each type -> (its numeric fields, the primitive built from their values)
_PRIMITIVE_TYPES = {
    "point": (("x", "y"), lambda x, y: SinglePoint(complex(x, y))),
    "segment": (("x1", "y1", "x2", "y2"), lambda x1, y1, x2, y2: Segment(complex(x1, y1), complex(x2, y2))),
    "disk": (("cx", "cy", "r"), lambda cx, cy, r: ObstacleDisk(complex(cx, cy), r)),
}

# each type -> (its fields, the arguments read from an entry of that type,
# the constructor they go to)
_SEQUENCE_TYPES = {
    "geometric": (
        ("delta", "ratio", "count"),
        lambda entry: (_num(entry, "delta", "sequence"), _num(entry, "ratio", "sequence"), entry.get("count")),
        SequenceSpec.geometric,
    ),
    "explicit": (("points",), lambda entry: (_explicit_points(entry),), SequenceSpec.explicit),
}


def domain_from_dict(obj) -> DomainSpec:
    _object(obj, "domain description", ("primitives", "sequence"))
    prims_raw = obj.get("primitives", [])
    if not isinstance(prims_raw, list):
        raise SpecError("primitives must be a list")
    prims = []
    for i, entry in enumerate(prims_raw):
        where = f"primitives[{i}]"
        fields, make = _typed(entry, where, _PRIMITIVE_TYPES)
        prims.append(_built(where, make, *[_num(entry, key, where) for key in fields]))
    if "sequence" not in obj:
        raise SpecError("sequence is required")
    entry = obj["sequence"]
    _, read, make = _typed(entry, "sequence", _SEQUENCE_TYPES)
    return DomainSpec.build(prims, _built("sequence", make, *read(entry)))


def load_domain(path: str) -> DomainSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise SpecError(f"{path}: invalid JSON: {e}") from e
    return domain_from_dict(obj)
