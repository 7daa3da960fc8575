import cmath
import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypbound import (
    DomainSpec,
    NotOnBoundary,
    ObstacleDisk,
    Segment,
    SequenceSpec,
    SinglePoint,
    constants,
    load_domain,
)
from hypbound.geometry import GEOM_TOL

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


def battery_domain(delta: float, ratio: float, count: int = 60) -> DomainSpec:
    """Point-sequence domain on the positive real axis."""
    return DomainSpec.build([], SequenceSpec.geometric(delta, ratio, count))


def battery_json(delta: float, ratio: float, count: int = 60) -> dict:
    return {
        "primitives": [],
        "sequence": {"type": "geometric", "delta": delta, "ratio": ratio, "count": count},
    }


# spec objects that domain_from_dict rejects with SpecError
MALFORMED_SPECS = [
    [],
    {"sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}, "bogus": 1},
    {"primitives": {}, "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": []},
    {"primitives": [], "sequence": {"type": "unknown"}},
    {"primitives": [], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5}},
    {"primitives": [], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": True}},
    {"primitives": [], "sequence": {"type": "geometric", "delta": 1.5, "ratio": 0.5, "count": 4}},
    {"primitives": [], "sequence": {"type": "explicit", "points": []}},
    {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5]]}},
    {"primitives": [], "sequence": {"type": "explicit", "points": [["a", 0]]}},
    {"primitives": [7], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "blob"}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "point", "x": 0.3}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "point", "x": 0.3, "y": True}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "point", "x": 0.0, "y": 0.0}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "point", "x": 0.3, "y": 0.0, "extra": 1}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
    {"primitives": [{"type": "disk", "cx": 0.0, "cy": 0.0, "r": 2.0}], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}},
]


@functools.cache
def bench_domain(name):
    """A benchmark spec from bench/specs with its constants, loaded once."""
    spec = load_domain(str(SPECS / name))
    return spec, constants(spec.sequence)


def write_spec(tmp_path, obj, name="spec.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def mixed_domain() -> DomainSpec:
    """Segment, disk and a 12-point sequence in one domain."""
    return DomainSpec.build(
        [
            Segment(complex(0.3, 0.3), complex(0.5, 0.2)),
            ObstacleDisk(complex(-0.4, 0.1), 0.12),
        ],
        SequenceSpec.geometric(0.25, 0.5, 12),
    )


def boundary_points(spec: DomainSpec, count: int, seed: int) -> list[complex]:
    """Random points on the boundary of G, drawn across all primitives."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        prim = spec.primitives[i % len(spec.primitives)]
        if isinstance(prim, SinglePoint):
            out.append(prim.p)
        elif isinstance(prim, Segment):
            out.append(prim.p + rng.random() * (prim.q - prim.p))
        elif isinstance(prim, ObstacleDisk):
            out.append(prim.center + cmath.rect(prim.radius, rng.uniform(0, math.tau)))
        else:
            out.append(cmath.rect(1.0, rng.uniform(0, math.tau)))
    return out


def primitive_intervals(spec: DomainSpec, a: complex) -> tuple[tuple[float, float], ...]:
    """One achievable-distance interval per primitive of spec, in primitive
    order, whatever a is: the reference for PointIndex.window."""
    return tuple(prim.distance_interval(a) for prim in spec.primitives)


def linear_distance_set(spec: DomainSpec, a: complex) -> tuple[tuple[float, float], ...]:
    """primitive_intervals(spec, a), the reference for distance_set.  Raises
    NotOnBoundary unless a is one of the stored points or lies within
    GEOM_TOL of a curve, the base rule of distance_set, read over every
    primitive."""
    if not any(
        prim.p == a if isinstance(prim, SinglePoint) else prim.boundary_distance(a) <= GEOM_TOL
        for prim in spec.primitives
    ):
        raise NotOnBoundary(f"point {a} is not on the boundary of G")
    return primitive_intervals(spec, a)


def rotate_domain(spec: DomainSpec, theta: float) -> DomainSpec:
    """The domain rotated by e^{i theta} about the origin."""
    rot = cmath.rect(1.0, theta)

    def rotated(prim):
        if isinstance(prim, SinglePoint):
            return SinglePoint(prim.p * rot)
        if isinstance(prim, Segment):
            return Segment(prim.p * rot, prim.q * rot)
        return ObstacleDisk(prim.center * rot, prim.radius)

    user = tuple(rotated(prim) for prim in spec.primitives[: spec.n_user])
    if spec.sequence is not None:
        seq = SequenceSpec.explicit(p * rot for p in spec.sequence.resolved_points)
        return DomainSpec.build(user, seq)
    return DomainSpec.bare(user, include_origin=0j in spec.point_index.point_set)


def path_point(path, t: float) -> complex:
    """The point of an arc+radial path at t in [0, 1]: a path of two pieces
    spends the first half of [0, 1] on its arc."""
    t = min(max(t, 0.0), 1.0)
    ps = path.pieces
    if len(ps) == 1:
        return ps[0].point(t)
    if t <= 0.5:
        return ps[0].point(2.0 * t)
    return ps[1].point(2.0 * t - 1.0)


def exact_sq_distance(z: complex, w: complex) -> Fraction:
    """|z - w|^2 without rounding, from the stored floats."""
    dx, dy = Fraction(z.real) - Fraction(w.real), Fraction(z.imag) - Fraction(w.imag)
    return dx * dx + dy * dy


def mirror(p: complex, z: complex, how: str) -> complex:
    """p reflected through z ("point"), or about the horizontal or the
    vertical line through z."""
    return {
        "point": 2.0 * z - p,
        "horizontal": complex(p.real, 2.0 * z.imag - p.imag),
        "vertical": complex(2.0 * z.real - p.real, p.imag),
    }[how]


def nudge(x: float, steps: int) -> float:
    """x moved by |steps| ulps, up for positive steps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def primitive_samples(prim, m: int) -> np.ndarray:
    """Dense sample of one primitive as a complex array, endpoints included."""
    if isinstance(prim, SinglePoint):
        return np.array([prim.p])
    if isinstance(prim, Segment):
        t = np.linspace(0.0, 1.0, m)
        return prim.p + t * (prim.q - prim.p)
    if isinstance(prim, ObstacleDisk):
        th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        return prim.center + prim.radius * np.exp(1j * th)
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.exp(1j * th)


def boundary_cloud(spec: DomainSpec, m: int) -> np.ndarray:
    """About m samples over the whole boundary of G."""
    curves = sum(1 for p in spec.primitives if not isinstance(p, SinglePoint))
    per = max(m // max(curves, 1), 8)
    chunks = [
        primitive_samples(p, 1 if isinstance(p, SinglePoint) else per)
        for p in spec.primitives
    ]
    return np.concatenate(chunks)


@pytest.fixture
def std_domain():
    return battery_domain(0.5, 0.5)
