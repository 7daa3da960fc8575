"""Closed-form geometric kernel: membership, nearest boundary, achievable
distances, arc+radial first hits, clearances, rotation, serialization."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypbound import (
    DomainSpec,
    MalformedPath,
    Membership,
    NotInDomain,
    NotOnBoundary,
    ObstacleDisk,
    Segment,
    SequenceSpec,
    SinglePoint,
    SpecError,
    UnitCircle,
    arc_then_radial,
    boundary_gap,
    contains,
    distance_set,
    domain_from_dict,
    first_boundary_hit,
    load_domain,
    nearest_boundary,
    rotate_domain,
)
from hypbound.geometry import GEOM_TOL, max_modulus, primitive_clearance

from conftest import (
    battery_domain,
    battery_json,
    boundary_points,
    mixed_domain,
    primitive_samples,
    write_spec,
)


def points_domain(*pts: complex) -> DomainSpec:
    """Fixture domain whose obstacle set is the origin plus the given points."""
    return DomainSpec.bare([SinglePoint(p) for p in pts], include_origin=True)


# ---------------------------------------------------------------------------
# primitive validation


class TestPrimitiveValidation:
    def test_point_outside_disk(self):
        with pytest.raises(SpecError):
            SinglePoint(complex(1.0, 0.0))
        with pytest.raises(SpecError):
            SinglePoint(complex(0.8, 0.7))

    def test_point_non_finite(self):
        with pytest.raises(SpecError):
            SinglePoint(complex(math.nan, 0.0))
        with pytest.raises(SpecError):
            SinglePoint(complex(0.0, math.inf))

    def test_segment_degenerate(self):
        with pytest.raises(SpecError):
            Segment(complex(0.1, 0.1), complex(0.1, 0.1))

    def test_segment_squared_length_underflows(self):
        # distinct endpoints whose squared distance rounds to 0 would divide
        # by zero in nearest_point
        with pytest.raises(SpecError):
            Segment(0j, complex(1e-170, 0.0))
        # a subnormal squared length still divides
        assert Segment(0j, complex(1e-160, 0.0)).nearest_point(0.5j) == 0j

    def test_segment_outside(self):
        with pytest.raises(SpecError):
            Segment(0j, complex(1.0, 0.0))

    def test_disk_bad_radius(self):
        with pytest.raises(SpecError):
            ObstacleDisk(0j, 0.0)
        with pytest.raises(SpecError):
            ObstacleDisk(0j, -0.1)

    def test_disk_touches_circle(self):
        with pytest.raises(SpecError):
            ObstacleDisk(complex(0.5, 0.0), 0.5)

    def test_build_rejects_listed_circle(self):
        with pytest.raises(SpecError):
            DomainSpec.build([UnitCircle()], SequenceSpec.geometric(0.5, 0.5, 4))

    def test_build_rejects_listed_origin(self):
        with pytest.raises(SpecError):
            DomainSpec.build([SinglePoint(0j)], SequenceSpec.geometric(0.5, 0.5, 4))

    def test_build_requires_sequence(self):
        with pytest.raises(SpecError):
            DomainSpec.build([SinglePoint(complex(0.5, 0))])

    def test_build_registers_sequence_and_origin_last(self):
        spec = battery_domain(0.5, 0.5, count=3)
        assert spec.n_user == 0
        assert isinstance(spec.primitives[-1], UnitCircle)
        assert spec.primitives[-2] == SinglePoint(0j)
        assert spec.origin_registered
        assert [p.p for p in spec.primitives[:3]] == [0.5, 0.25, 0.125]


class TestSequenceSpec:
    def test_geometric_values(self):
        seq = SequenceSpec.geometric(0.5, 0.5, 4)
        assert seq.resolved_points == (0.5 + 0j, 0.25 + 0j, 0.125 + 0j, 0.0625 + 0j)

    def test_geometric_validation(self):
        with pytest.raises(SpecError):
            SequenceSpec.geometric(1.0, 0.5, 4)
        with pytest.raises(SpecError):
            SequenceSpec.geometric(0.0, 0.5, 4)
        with pytest.raises(SpecError):
            SequenceSpec.geometric(0.5, 1.0, 4)
        with pytest.raises(SpecError):
            SequenceSpec.geometric(0.5, 0.0, 4)
        with pytest.raises(SpecError):
            SequenceSpec.geometric(0.5, 0.5, 0)

    def test_explicit_validation(self):
        with pytest.raises(SpecError):
            SequenceSpec.explicit([])
        with pytest.raises(SpecError):
            SequenceSpec.explicit([complex(1.0, 0.0)])
        with pytest.raises(SpecError):
            SequenceSpec.explicit([complex(math.nan, 0.0)])


# ---------------------------------------------------------------------------
# membership


class TestContains:
    def test_point_in_g(self):
        assert contains(points_domain(0.25 + 0j), 0.5 + 0j) is Membership.IN_G

    def test_point_in_e(self):
        assert contains(points_domain(0.25 + 0j), 0.25 + 0j) is Membership.IN_E

    def test_unit_circle_and_outside(self):
        spec = points_domain(0.25 + 0j)
        assert contains(spec, 1.0 + 0j) is Membership.ON_UNIT_CIRCLE_OR_OUTSIDE
        assert contains(spec, complex(0.8, 0.8)) is Membership.ON_UNIT_CIRCLE_OR_OUTSIDE

    def test_origin_is_obstacle(self):
        assert contains(points_domain(0.25 + 0j), 0j) is Membership.IN_E

    def test_segment_and_disk_interiors(self):
        spec = DomainSpec.bare(
            [Segment(0j, complex(0.1, 0)), ObstacleDisk(complex(0.5, 0), 0.1)]
        )
        assert contains(spec, complex(0.05, 0)) is Membership.IN_E
        assert contains(spec, complex(0.5, 0.05)) is Membership.IN_E
        assert contains(spec, complex(0.5, 0.2)) is Membership.IN_G

    def test_non_finite_query(self):
        with pytest.raises(ValueError):
            contains(points_domain(0.25 + 0j), complex(math.nan, 0))


# ---------------------------------------------------------------------------
# nearest boundary


class TestNearestBoundary:
    def test_single_witness(self):
        nb = nearest_boundary(points_domain(0.25 + 0j), 0.3 + 0j)
        assert abs(nb.d - 0.05) < 1e-15
        assert len(nb.witnesses) == 1
        _, w = nb.witnesses[0]
        assert w == 0.25 + 0j

    def test_tied_witnesses(self):
        spec = DomainSpec.bare(include_origin=True)
        nb = nearest_boundary(spec, 0.5 + 0j)
        assert abs(nb.d - 0.5) < 1e-15
        assert {w for _, w in nb.witnesses} == {0j, 1.0 + 0j}

    def test_segment_endpoint_witness(self):
        spec = DomainSpec.bare([Segment(0j, complex(0.1, 0))])
        nb = nearest_boundary(spec, 0.5 + 0j)
        assert abs(nb.d - 0.4) < 1e-15
        assert len(nb.witnesses) == 1
        assert abs(nb.witnesses[0][1] - 0.1) < 1e-15

    def test_rejects_outside_points(self):
        spec = points_domain(0.25 + 0j)
        with pytest.raises(NotInDomain):
            nearest_boundary(spec, 0.25 + 0j)
        with pytest.raises(NotInDomain):
            nearest_boundary(spec, 1.5 + 0j)

    def test_witness_soundness_random(self, std_domain):
        rng = random.Random(3)
        checked = 0
        while checked < 500:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if contains(std_domain, z) is not Membership.IN_G:
                continue
            checked += 1
            nb = nearest_boundary(std_domain, z)
            assert nb.witnesses
            for i, w in nb.witnesses:
                assert std_domain.primitives[i].boundary_distance(w) <= 1e-12
                assert nb.d * (1.0 - 1e-12) <= abs(z - w) <= nb.d * (1.0 + 2e-9)
            for prim in std_domain.primitives:
                assert nb.d <= prim.set_distance(z) + 1e-12

    def test_d_bounded_by_abs_z_with_origin(self, std_domain):
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if contains(std_domain, z) is not Membership.IN_G:
                continue
            checked += 1
            assert nearest_boundary(std_domain, z).d <= abs(z)


# ---------------------------------------------------------------------------
# achievable distances


class TestDistanceSet:
    def test_origin_base(self):
        spec = DomainSpec.bare(include_origin=True)
        ds = distance_set(spec, 0j)
        assert ds.intervals == ((0.0, 0.0), (1.0, 1.0))

    def test_segment_endpoint_base(self):
        spec = DomainSpec.bare([Segment(0j, complex(0.1, 0))])
        ds = distance_set(spec, 0.1 + 0j)
        assert ds.intervals[0] == (0.0, 0.1)
        lo, hi = ds.intervals[1]
        assert abs(lo - 0.9) < 1e-15 and abs(hi - 1.1) < 1e-15

    def test_disk_interval(self):
        spec = DomainSpec.bare([ObstacleDisk(complex(0.3, 0), 0.1)], include_origin=True)
        ds = distance_set(spec, 0j)
        assert ds.intervals[0] == pytest.approx((0.2, 0.4), abs=1e-15)
        assert ds.intervals[1] == (0.0, 0.0)
        assert ds.intervals[2] == (1.0, 1.0)

    def test_rejects_interior_base(self):
        spec = DomainSpec.bare(include_origin=True)
        with pytest.raises(NotOnBoundary):
            distance_set(spec, 0.5 + 0j)

    # (boundary point of mixed_domain(), unit direction off the boundary)
    OFF_BOUNDARY_BASES = {
        "point": (0.25 + 0j, 1j),
        "segment-interior": (0.4 + 0.25j, (1 + 2j) / abs(1 + 2j)),
        "segment-endpoint": (0.5 + 0.2j, (2 - 1j) / abs(2 - 1j)),
        "disk-circle": (complex(-0.4, 0.1) + cmath.rect(0.12, 2.0), cmath.rect(1.0, 2.0)),
        "unit-circle": (cmath.rect(1.0, -2.5), -cmath.rect(1.0, -2.5)),
    }

    @pytest.mark.parametrize("offset", [0.0, 0.5e-12, 2e-12, 1e-3])
    @pytest.mark.parametrize("where", list(OFF_BOUNDARY_BASES))
    def test_rejects_exactly_off_boundary(self, where, offset):
        spec = mixed_domain()
        base, direction = self.OFF_BOUNDARY_BASES[where]
        a = base + offset * direction
        if boundary_gap(spec, a) > GEOM_TOL:
            with pytest.raises(NotOnBoundary):
                distance_set(spec, a)
        else:
            assert distance_set(spec, a).base == a

    def test_brute_force_conformance(self):
        # each interval must bracket the sampled min/max up to the sampling
        # gap; 40k nodes per curve keep even a V-shaped minimum at a base
        # point between unit-circle nodes below the 1e-4 tolerance
        spec = mixed_domain()
        for a in boundary_points(spec, 100, seed=11):
            ds = distance_set(spec, a)
            for prim, (lo, hi) in zip(spec.primitives, ds.intervals):
                dists = np.abs(primitive_samples(prim, 40_000) - a)
                smin, smax = float(dists.min()), float(dists.max())
                assert lo - 1e-9 <= smin and smax <= hi + 1e-9
                assert smin - lo <= 1e-4
                assert hi - smax <= 1e-4


# ---------------------------------------------------------------------------
# paths and first hits


class TestPaths:
    def test_radial_path_shape(self):
        path = arc_then_radial(0.5 + 0j, 1.0 + 0j)
        assert path.arc is None
        assert path.start() == 0.5 + 0j
        assert path.end() == 1.0 + 0j

    def test_arc_then_radial_rejects_origin(self):
        with pytest.raises(MalformedPath):
            arc_then_radial(0j, 0.5 + 0j)
        with pytest.raises(MalformedPath):
            arc_then_radial(0.5 + 0j, 0j)

    def test_arc_then_radial_shape(self):
        path = arc_then_radial(0.3 + 0j, 0.5j)
        assert path.arc is not None and path.radial is not None
        assert abs(path.start() - 0.3) < 1e-15
        assert abs(path.end() - 0.5j) < 1e-15
        assert abs(path.arc.sweep - math.pi / 2.0) < 1e-15

    def test_arc_then_radial_takes_shorter_arc(self):
        path = arc_then_radial(0.3 + 0j, complex(0.0, -0.4))
        assert path.arc.sweep < 0.0
        assert abs(path.arc.sweep + math.pi / 2.0) < 1e-15

    def test_arc_then_radial_degenerate(self):
        with pytest.raises(MalformedPath):
            arc_then_radial(0.3 + 0j, 0.3 + 0j)

    def test_pure_arc_and_pure_radial_pieces(self):
        arc_only = arc_then_radial(0.3 + 0j, 0.3j)
        assert arc_only.radial is None
        radial_only = arc_then_radial(0.3 + 0j, 0.6 + 0j)
        assert radial_only.arc is None


class TestFirstBoundaryHit:
    def test_start_on_boundary(self):
        spec = points_domain(0.5 + 0j)
        path = arc_then_radial(0.5 + 0j, 1.0 + 0j)
        assert first_boundary_hit(spec, path) == 0.5 + 0j

    def test_start_on_boundary_inner(self):
        spec = points_domain(0.5 + 0j, 0.25 + 0j)
        path = arc_then_radial(0.25 + 0j, 0.5 + 0j)
        assert first_boundary_hit(spec, path) == 0.25 + 0j

    def test_arc_hit_before_radial(self):
        spec = points_domain(0.3j, 0.5 + 0j)
        path = arc_then_radial(0.3 + 0j, 0.5j)
        hit = first_boundary_hit(spec, path)
        assert abs(hit - 0.3j) <= 1e-12

    def test_radial_hit_through_disk(self):
        spec = DomainSpec.bare([ObstacleDisk(complex(0.5, 0), 0.1)])
        path = arc_then_radial(0.2 + 0j, 0.9 + 0j)
        hit = first_boundary_hit(spec, path)
        assert abs(hit - 0.4) <= 1e-12

    def test_radial_hit_on_collinear_segment(self):
        spec = DomainSpec.bare([Segment(complex(0.4, 0), complex(0.6, 0))])
        path = arc_then_radial(0.1 + 0j, 0.9 + 0j)
        hit = first_boundary_hit(spec, path)
        assert abs(hit - 0.4) <= 1e-12

    def test_circle_hit_when_nothing_else(self):
        spec = DomainSpec.bare(include_origin=True)
        path = arc_then_radial(0.5j, 1.0j)
        hit = first_boundary_hit(spec, path)
        assert abs(hit - 1.0j) <= 1e-12

    def test_rejects_path_missing_boundary(self):
        spec = DomainSpec.bare()
        path = arc_then_radial(0.5 + 0j, 0.6 + 0j)
        with pytest.raises(MalformedPath):
            first_boundary_hit(spec, path)

    @pytest.mark.parametrize(
        "obstacles,start,target",
        [
            ((0.3j, 0.5 + 0j), 0.3 + 0j, 0.3j),
            ((complex(0.2, 0.2), complex(-0.3, 0.1)), complex(0.28, 0.28), complex(-0.3, 0.1)),
            ((0.4j, complex(0.1, 0)), complex(0.25, 0.25), 1.0j),
        ],
    )
    def test_against_dense_path_sampling(self, obstacles, start, target):
        # the analytic first hit must agree with a brute-force walk of the path
        spec = points_domain(*obstacles)
        path = arc_then_radial(start, target)
        hit = first_boundary_hit(spec, path)
        assert boundary_gap(spec, hit) <= 1e-10
        ts = np.linspace(0.0, 1.0, 20_001)
        gaps = [boundary_gap(spec, path.point(t)) for t in ts]
        first = next(i for i, g in enumerate(gaps) if g <= 1e-4)
        assert abs(path.point(ts[first]) - hit) <= 5e-3


# ---------------------------------------------------------------------------
# clearances


class TestClearances:
    def test_crossing_segments(self):
        a = Segment(complex(-0.2, 0), complex(0.2, 0))
        b = Segment(complex(0, -0.2), complex(0, 0.2))
        assert primitive_clearance(a, b) == 0.0

    def test_separated_segments(self):
        a = Segment(complex(-0.2, 0), complex(0.2, 0))
        b = Segment(complex(-0.2, 0.1), complex(0.2, 0.1))
        assert abs(primitive_clearance(a, b) - 0.1) < 1e-15

    def test_segment_disk(self):
        a = Segment(complex(-0.2, 0), complex(0.2, 0))
        b = ObstacleDisk(complex(0, 0.3), 0.1)
        assert abs(primitive_clearance(a, b) - 0.2) < 1e-15
        assert primitive_clearance(b, a) == primitive_clearance(a, b)

    def test_disks(self):
        a = ObstacleDisk(complex(-0.3, 0), 0.1)
        b = ObstacleDisk(complex(0.3, 0), 0.1)
        assert abs(primitive_clearance(a, b) - 0.4) < 1e-15
        c = ObstacleDisk(complex(-0.25, 0), 0.1)
        assert primitive_clearance(c, ObstacleDisk(complex(-0.15, 0), 0.1)) == 0.0

    @pytest.mark.parametrize("a, b", [
        # T-junction on the interior of an oblique segment
        (Segment(0.1 + 0.1j, 0.5 + 0.3j), Segment(0.22 + 0.16j, 0.12 + 0.36j)),
        # two segments meeting at a shared endpoint
        (Segment(0.1 + 0.1j, 0.4 + 0.2j), Segment(0.4 + 0.2j, 0.3 + 0.5j)),
        # collinear overlap
        (Segment(0.1 + 0.1j, 0.3 + 0.2j), Segment(0.2 + 0.15j, 0.4 + 0.25j)),
    ])
    def test_touching_segments(self, a, b):
        assert primitive_clearance(a, b) < 1e-12
        assert primitive_clearance(b, a) < 1e-12

    def test_points_unsupported(self):
        with pytest.raises(TypeError):
            primitive_clearance(SinglePoint(0.1 + 0j), SinglePoint(0.2 + 0j))

    def test_max_modulus(self):
        assert max_modulus(SinglePoint(complex(0.3, 0.4))) == 0.5
        assert max_modulus(Segment(0j, complex(0.6, 0))) == 0.6
        assert max_modulus(ObstacleDisk(complex(0.5, 0), 0.2)) == 0.7
        with pytest.raises(TypeError):
            max_modulus(UnitCircle())


# ---------------------------------------------------------------------------
# rotation equivariance


class TestRotation:
    @given(
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.floats(-0.95, 0.95),
        st.floats(-0.95, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_and_distance(self, theta, x, y):
        spec = mixed_domain()
        rspec = rotate_domain(spec, theta)
        z = complex(x, y)
        rz = z * cmath.rect(1.0, theta)
        # membership within an ulp of a boundary curve cannot survive the
        # rounding of the rotated multiply; keep a guard band around E
        assume(abs(1.0 - abs(z)) > 1e-9)
        assume(all(abs(p.set_distance(z)) > 1e-9 for p in spec.obstacles))
        assert contains(spec, z) is contains(rspec, rz)
        if contains(spec, z) is Membership.IN_G:
            d0 = nearest_boundary(spec, z).d
            d1 = nearest_boundary(rspec, rz).d
            assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)

    def test_distance_set_intervals(self):
        spec = mixed_domain()
        rot = cmath.rect(1.0, 2.0)
        rspec = rotate_domain(spec, 2.0)
        for a in boundary_points(spec, 30, seed=23):
            ds0 = distance_set(spec, a)
            ds1 = distance_set(rspec, a * rot)
            for (lo0, hi0), (lo1, hi1) in zip(ds0.intervals, ds1.intervals):
                assert abs(lo0 - lo1) <= 1e-12
                assert abs(hi0 - hi1) <= 1e-12


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_geometric_round_trip(self):
        spec = domain_from_dict(battery_json(0.5, 0.5, count=6))
        assert spec == battery_domain(0.5, 0.5, count=6)

    def test_mixed_primitives(self):
        spec = domain_from_dict(
            {
                "primitives": [
                    {"type": "point", "x": 0.3, "y": 0.4},
                    {"type": "segment", "x1": 0.1, "y1": 0.0, "x2": 0.2, "y2": 0.0},
                    {"type": "disk", "cx": -0.4, "cy": 0.0, "r": 0.1},
                ],
                "sequence": {"type": "geometric", "delta": 0.25, "ratio": 0.5, "count": 4},
            }
        )
        assert spec.n_user == 3
        assert spec.primitives[0] == SinglePoint(complex(0.3, 0.4))
        assert spec.primitives[1] == Segment(complex(0.1, 0), complex(0.2, 0))
        assert spec.primitives[2] == ObstacleDisk(complex(-0.4, 0), 0.1)

    def test_explicit_sequence(self):
        spec = domain_from_dict(
            {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0], [0.25, 0]]}}
        )
        assert spec.sequence.resolved_points == (0.5 + 0j, 0.25 + 0j)

    @pytest.mark.parametrize(
        "obj",
        [
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
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(SpecError):
            domain_from_dict(obj)

    def test_load_domain(self, tmp_path):
        path = write_spec(tmp_path, battery_json(0.5, 0.5, count=6))
        assert load_domain(path) == battery_domain(0.5, 0.5, count=6)

    def test_load_domain_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError):
            load_domain(str(path))
