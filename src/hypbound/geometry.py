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
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

GEOM_TOL = 1e-12   # on-boundary / witness tolerance
TIE_REL = 1e-9     # relative tolerance grouping tied nearest witnesses
HIT_TOL = 1e-10    # boundary-hit tolerance along paths

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


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


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
        return z / abs(z)

    def distance_interval(self, a: complex) -> tuple[float, float]:
        r = abs(a)
        return (abs(1.0 - r), 1.0 + r)

    def rotated(self, rot: complex) -> "UnitCircle":
        return self


@dataclass(frozen=True)
class SinglePoint:
    """An isolated obstacle point strictly inside the unit disk."""

    p: complex

    def __post_init__(self):
        if not _finite(self.p):
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

    def rotated(self, rot: complex) -> "SinglePoint":
        return SinglePoint(self.p * rot)


@dataclass(frozen=True)
class Segment:
    """A closed line segment obstacle with distinct endpoints inside D."""

    p: complex
    q: complex

    def __post_init__(self):
        if not (_finite(self.p) and _finite(self.q)):
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

    def rotated(self, rot: complex) -> "Segment":
        return Segment(self.p * rot, self.q * rot)


@dataclass(frozen=True)
class ObstacleDisk:
    """A closed disk obstacle contained in the open unit disk.

    As an obstacle it is the filled disk; as a piece of the boundary of G
    it is the bounding circle.  The two roles use different distances.
    """

    center: complex
    radius: float

    def __post_init__(self):
        if not (_finite(self.center) and math.isfinite(self.radius)):
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

    def rotated(self, rot: complex) -> "ObstacleDisk":
        return ObstacleDisk(self.center * rot, self.radius)


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
        if not (isinstance(count, int) and count >= 1):
            raise SpecError("count must be a positive integer")
        if not (0.0 < delta < 1.0):
            raise SpecError("delta must lie in (0, 1)")
        if not (0.0 < ratio < 1.0):
            raise SpecError("ratio must lie in (0, 1)")
        pts = tuple(complex(delta * ratio**n, 0.0) for n in range(count))
        return cls(pts)

    @classmethod
    def explicit(cls, points: Iterable[complex]) -> "SequenceSpec":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise SpecError("explicit sequence must be nonempty")
        for i, p in enumerate(pts):
            if not _finite(p):
                raise SpecError(f"sequence point {i} has non-finite coordinates")
            if abs(p) >= 1.0:
                raise SpecError(f"sequence point {i} is not inside the unit disk")
        return cls(pts)


def _check_user_primitives(primitives: Iterable[Primitive]) -> tuple[Primitive, ...]:
    user = tuple(primitives)
    for prim in user:
        if isinstance(prim, UnitCircle):
            raise SpecError("the unit circle is implicit and must not be listed")
        if isinstance(prim, SinglePoint) and prim.p == 0:
            raise SpecError("the origin obstacle is implicit and must not be listed")
        if not isinstance(prim, (SinglePoint, Segment, ObstacleDisk)):
            raise SpecError(f"unsupported primitive {prim!r}")
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
    def build(cls, primitives: Iterable[Primitive] = (), sequence: SequenceSpec | None = None) -> "DomainSpec":
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
    def origin_registered(self) -> bool:
        return any(isinstance(p, SinglePoint) and p.p == 0 for p in self.obstacles)


def rotate_domain(spec: DomainSpec, theta: float) -> DomainSpec:
    """The domain rotated by e^{i theta} about the origin."""
    rot = cmath.rect(1.0, theta)
    user = tuple(p.rotated(rot) for p in spec.primitives[: spec.n_user])
    if spec.sequence is not None:
        seq = SequenceSpec.explicit(p * rot for p in spec.sequence.resolved_points)
        return DomainSpec.build(user, seq)
    return DomainSpec.bare(user, include_origin=spec.origin_registered)


# ---------------------------------------------------------------------------
# membership and nearest boundary


class Membership(Enum):
    IN_G = "InG"
    IN_E = "InE"
    ON_UNIT_CIRCLE_OR_OUTSIDE = "OnUnitCircleOrOutside"


def contains(spec: DomainSpec, z: complex) -> Membership:
    if not _finite(z):
        raise ValueError("query point has non-finite coordinates")
    if abs(z) >= 1.0:
        return Membership.ON_UNIT_CIRCLE_OR_OUTSIDE
    for prim in spec.obstacles:
        if prim.set_distance(z) <= 0.0:
            return Membership.IN_E
    return Membership.IN_G


@dataclass(frozen=True)
class NearestBoundary:
    d: float
    witnesses: tuple[tuple[int, complex], ...]


def nearest_boundary(spec: DomainSpec, z: complex) -> NearestBoundary:
    """Distance to the boundary of G with every realizing primitive.

    Witnesses are (primitive index, realizing point) pairs listing every
    primitive whose distance ties the minimum within relative 1e-9.
    """
    if contains(spec, z) is not Membership.IN_G:
        raise NotInDomain(f"point {z} is not in G")
    realized = []
    for i, prim in enumerate(spec.primitives):
        w = prim.nearest_point(z)
        realized.append((abs(z - w), i, w))
    d = min(entry[0] for entry in realized)
    cutoff = d * (1.0 + TIE_REL)
    witnesses = []
    for dist, i, w in realized:
        if dist <= cutoff:
            if spec.primitives[i].boundary_distance(w) > GEOM_TOL:
                raise RuntimeError(f"witness {w} of primitive {i} is off the boundary")
            witnesses.append((i, w))
    if spec.origin_registered and d > abs(z):
        raise RuntimeError(f"boundary distance {d} exceeds |z| = {abs(z)} with 0 on the boundary")
    return NearestBoundary(d, tuple(witnesses))


def boundary_gap(spec: DomainSpec, z: complex) -> float:
    """Distance from z to the union of boundary curves of the primitives."""
    return min(prim.boundary_distance(z) for prim in spec.primitives)


# ---------------------------------------------------------------------------
# achievable-distance intervals


@dataclass(frozen=True)
class DistanceSet:
    """Per-primitive intervals {|base - b| : b in P}, aligned with spec.primitives."""

    base: complex
    intervals: tuple[tuple[float, float], ...]


def distance_set(spec: DomainSpec, a: complex) -> DistanceSet:
    intervals = tuple(prim.distance_interval(a) for prim in spec.primitives)
    # each lo is the same expression as that primitive's boundary_distance(a),
    # so the smallest lo is boundary_gap(spec, a) bit for bit
    if min(lo for lo, _ in intervals) > GEOM_TOL:
        raise NotOnBoundary(f"point {a} is not on the boundary of G")
    return DistanceSet(a, intervals)


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

    def start(self) -> complex:
        return self.pieces[0].point(0.0)

    def end(self) -> complex:
        return self.pieces[-1].point(1.0)

    def point(self, t: float) -> complex:
        """Global parametrization over [0, 1]; used by sampling cross-checks."""
        t = min(max(t, 0.0), 1.0)
        ps = self.pieces
        if len(ps) == 1:
            return ps[0].point(t)
        if t <= 0.5:
            return ps[0].point(2.0 * t)
        return ps[1].point(2.0 * t - 1.0)


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
        if d0 <= GEOM_TOL:
            if abs(arc.radius - prim.radius) <= HIT_TOL:
                out.append(0.0)
        else:
            x = (d0 * d0 + arc.radius**2 - prim.radius**2) / (2.0 * d0 * arc.radius)
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
    for piece in path.pieces:
        best: float | None = None
        for prim in spec.primitives:
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
    if isinstance(a, Segment) and isinstance(b, ObstacleDisk):
        return max(a.set_distance(b.center) - b.radius, 0.0)
    if isinstance(a, ObstacleDisk) and isinstance(b, Segment):
        return primitive_clearance(b, a)
    if isinstance(a, ObstacleDisk) and isinstance(b, ObstacleDisk):
        return max(abs(a.center - b.center) - a.radius - b.radius, 0.0)
    raise TypeError("clearance is defined for segment and disk obstacles")


def max_modulus(prim: Primitive) -> float:
    """Largest |z| over the obstacle; gauges clearance to the unit circle."""
    if isinstance(prim, SinglePoint):
        return abs(prim.p)
    if isinstance(prim, Segment):
        return max(abs(prim.p), abs(prim.q))
    if isinstance(prim, ObstacleDisk):
        return abs(prim.center) + prim.radius
    raise TypeError("no modulus bound for the unit circle")


# ---------------------------------------------------------------------------
# serialization


def _num(entry: dict, key: str, where: str) -> float:
    try:
        v = entry[key]
    except (KeyError, TypeError) as e:
        raise SpecError(f"{where}: missing field {key!r}") from e
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{where}: field {key!r} must be a number")
    return float(v)


def _primitive_from_dict(entry: dict, index: int) -> Primitive:
    where = f"primitives[{index}]"
    if not isinstance(entry, dict):
        raise SpecError(f"{where}: must be an object")
    kind = entry.get("type")
    if kind == "point":
        p = complex(_num(entry, "x", where), _num(entry, "y", where))
        if p == 0:
            raise SpecError(f"{where}: the origin obstacle is implicit and must not be listed")
        prim: Primitive = SinglePoint(p)
        allowed = {"type", "x", "y"}
    elif kind == "segment":
        prim = Segment(
            complex(_num(entry, "x1", where), _num(entry, "y1", where)),
            complex(_num(entry, "x2", where), _num(entry, "y2", where)),
        )
        allowed = {"type", "x1", "y1", "x2", "y2"}
    elif kind == "disk":
        prim = ObstacleDisk(
            complex(_num(entry, "cx", where), _num(entry, "cy", where)),
            _num(entry, "r", where),
        )
        allowed = {"type", "cx", "cy", "r"}
    else:
        raise SpecError(f"{where}: unknown primitive type {kind!r}")
    extra = set(entry) - allowed
    if extra:
        raise SpecError(f"{where}: unexpected fields {sorted(extra)}")
    return prim


def _sequence_from_dict(entry) -> SequenceSpec:
    if not isinstance(entry, dict):
        raise SpecError("sequence: must be an object")
    kind = entry.get("type")
    if kind == "geometric":
        extra = set(entry) - {"type", "delta", "ratio", "count"}
        if extra:
            raise SpecError(f"sequence: unexpected fields {sorted(extra)}")
        count = entry.get("count")
        if isinstance(count, bool) or not isinstance(count, int):
            raise SpecError("sequence: count must be an integer")
        return SequenceSpec.geometric(
            _num(entry, "delta", "sequence"), _num(entry, "ratio", "sequence"), count
        )
    if kind == "explicit":
        extra = set(entry) - {"type", "points"}
        if extra:
            raise SpecError(f"sequence: unexpected fields {sorted(extra)}")
        raw = entry.get("points")
        if not isinstance(raw, list) or not raw:
            raise SpecError("sequence: points must be a nonempty list")
        pts = []
        for i, pair in enumerate(raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair)
            ):
                raise SpecError(f"sequence: points[{i}] must be [x, y]")
            pts.append(complex(float(pair[0]), float(pair[1])))
        return SequenceSpec.explicit(pts)
    raise SpecError(f"sequence: unknown type {kind!r}")


def domain_from_dict(obj) -> DomainSpec:
    if not isinstance(obj, dict):
        raise SpecError("domain description must be a JSON object")
    extra = set(obj) - {"primitives", "sequence"}
    if extra:
        raise SpecError(f"unexpected top-level fields {sorted(extra)}")
    prims_raw = obj.get("primitives", [])
    if not isinstance(prims_raw, list):
        raise SpecError("primitives must be a list")
    prims = [_primitive_from_dict(entry, i) for i, entry in enumerate(prims_raw)]
    if "sequence" not in obj:
        raise SpecError("sequence is required")
    seq = _sequence_from_dict(obj["sequence"])
    return DomainSpec.build(prims, seq)


def load_domain(path: str) -> DomainSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise SpecError(f"{path}: invalid JSON: {e}") from e
    return domain_from_dict(obj)
