"""Closed-form geometric kernel: membership, nearest boundary, achievable
distances, arc+radial first hits, clearances, rotation, serialization."""

import cmath
import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

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
    boundary_gap,
    contains,
    distance_set,
    domain_from_dict,
    first_boundary_hit,
    load_domain,
    nearest_boundary,
)
from hypbound.geometry import GEOM_TOL, ArcPiece, RadialPiece, _dot, _is_number, _piece_hits, _walk, primitive_clearance

from conftest import (
    MALFORMED_SPECS,
    battery_domain,
    battery_json,
    boundary_points,
    exact_sq_distance,
    linear_distance_set,
    mirror,
    mixed_domain,
    nudge,
    path_point,
    primitive_samples,
    reference_nearest_point,
    rotate_domain,
    write_spec,
)


def points_domain(*pts: complex) -> DomainSpec:
    """Fixture domain whose obstacle set is the origin plus the given points."""
    return DomainSpec.bare([SinglePoint(p) for p in pts], include_origin=True)


def assert_first_hit_matches_walk(spec: DomainSpec, start: complex, target: complex) -> None:
    """The analytic first hit must agree with a brute-force walk of the path."""
    pieces = _walk(start, target)
    hit = first_boundary_hit(spec, start, target)
    assert boundary_gap(spec, hit) <= 1e-10
    ts = np.linspace(0.0, 1.0, 20_001)
    gaps = [boundary_gap(spec, path_point(pieces, t)) for t in ts]
    first = next(i for i, g in enumerate(gaps) if g <= 1e-4)
    assert abs(path_point(pieces, ts[first]) - hit) <= 5e-3


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
            DomainSpec.build([SinglePoint(complex(0.5, 0))], None)

    def test_build_registers_sequence_and_origin_last(self):
        spec = battery_domain(0.5, 0.5, count=3)
        assert spec.n_user == 0
        assert isinstance(spec.primitives[-1], UnitCircle)
        assert spec.primitives[-2] == SinglePoint(0j)
        assert 0j in spec.point_index.point_set
        assert [p.p for p in spec.primitives[:3]] == [0.5, 0.25, 0.125]


# ---------------------------------------------------------------------------
# segment kernel

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-160]
COORDS = st.one_of(st.floats(-0.7, 0.7), st.sampled_from(EDGES))
OFFSETS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(EDGES))


class TestSegmentKernel:
    """The projection onto a segment reads v = q - p and |v|^2, stored at
    construction, and gives the floats of the formula that recomputes them."""

    @given(COORDS, COORDS, COORDS, COORDS, OFFSETS, OFFSETS)
    @settings(max_examples=300, deadline=None)
    def test_projection_matches_the_recomputing_formula(self, x1, y1, x2, y2, dx, dy):
        try:
            seg = Segment(complex(x1, y1), complex(x2, y2))
        except SpecError:
            assume(False)
        v = seg.q - seg.p
        assert repr((seg.v, seg.vv)) == repr((v, _dot(v, v)))
        for z in (seg.p + complex(dx, dy), seg.q + complex(dx, dy), complex(dx, dy)):
            assert repr(seg.nearest_point(z)) == repr(reference_nearest_point(seg, z))

    # v has negative parts, so t is -0.0 where z - p is 0 or underflows
    @pytest.mark.parametrize(
        "p, z, end",
        [
            (complex(0.3, 0.1), complex(0.5, 0.3), "p"),   # t < 0
            (complex(0.3, 0.1), complex(-0.4, -0.6), "q"),  # t > 1
            (complex(0.3, 0.1), complex(0.05, -0.15), None),
            (complex(0.3, 0.1), complex(0.3, 0.1), "p"),    # z = p, t = -0.0
            (0j, complex(5e-324, 0.0), "p"),                # the product underflows to -0.0
            (0j, complex(-5e-324, -5e-324), None),
            (0j, complex(-1e-310, -1e-310), None),          # subnormal t and point
            (0j, complex(-0.0, 1e-310), None),
        ],
    )
    def test_clamps_signed_zeros_and_subnormal_offsets(self, p, z, end):
        seg = Segment(p, complex(-0.2, -0.4))
        w = seg.nearest_point(z)
        assert repr(w) == repr(reference_nearest_point(seg, z))
        if end is not None:
            assert w == getattr(seg, end)

    def test_stored_data_leaves_identity_alone(self):
        seg = Segment(complex(0.3, 0.3), complex(0.5, 0.2))
        assert [f.name for f in dataclasses.fields(seg)] == ["p", "q"]
        assert dataclasses.astuple(seg) == (seg.p, seg.q)
        assert repr(seg) == "Segment(p=(0.3+0.3j), q=(0.5+0.2j))"
        assert seg == Segment(complex(0.3, 0.3), complex(0.5, 0.2))
        assert seg != Segment(complex(0.3, 0.3), complex(0.5, 0.25))
        assert hash(seg) == hash((seg.p, seg.q))
        copy = pickle.loads(pickle.dumps(seg))
        assert (copy, hash(copy), repr(copy)) == (seg, hash(seg), repr(seg))
        assert (copy.v, copy.vv) == (seg.v, seg.vv)
        with pytest.raises(dataclasses.FrozenInstanceError):
            seg.v = 0j


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
        with pytest.raises(SpecError):
            SequenceSpec.geometric(0.5, 0.5, True)
        # 0.5 * 0.5**1074 = 2^-1075 rounds to 0; 2^-1074 is the smallest subnormal
        with pytest.raises(SpecError, match="underflows"):
            SequenceSpec.geometric(0.5, 0.5, 1075)
        # ratio ** (count - 1) cannot convert a count beyond the float range
        with pytest.raises(SpecError, match="count is too large"):
            SequenceSpec.geometric(0.5, 0.5, 10**400)
        assert SequenceSpec.geometric(0.5, 0.5, 1074).floor == 5e-324

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

    @pytest.mark.parametrize("z", [5e-324 + 5e-324j, 3e-310 - 1e-320j])
    def test_circle_witness_of_a_subnormal_point(self, z):
        spec = DomainSpec.bare()
        (i, w), = nearest_boundary(spec, z).witnesses
        assert isinstance(spec.primitives[i], UnitCircle)
        assert abs(1.0 - abs(w)) <= 1e-15
        assert abs(w - cmath.rect(1.0, cmath.phase(z))) <= 1e-15


coord = st.floats(-0.9, 0.9)


@st.composite
def near_tied_points(draw):
    """(z, p, q): q is p mirrored about z, about a horizontal or vertical line
    through z, or drawn freely, each coordinate then moved by up to 3 ulps,
    so exact ties and near-ties dominate."""
    z, p = complex(draw(coord), draw(coord)), complex(draw(coord), draw(coord))
    how = draw(st.sampled_from(["point", "horizontal", "vertical", "free"]))
    q = complex(draw(coord), draw(coord)) if how == "free" else mirror(p, z, how)
    steps = st.integers(-3, 3)
    q = complex(nudge(q.real, draw(steps)), nudge(q.imag, draw(steps)))
    return z, p, q


class TestExactWitnesses:
    @given(near_tied_points())
    @settings(max_examples=400, deadline=None)
    def test_points_decided_exactly(self, case):
        # a bare domain of two points: the witnesses are the points at the
        # exactly smallest |z - p|, whatever the computed distances say
        z, p, q = case
        assume(len({z, p, q}) == 3 and max(abs(p), abs(q)) < 1.0)
        # and nearer than the unit circle, which would otherwise win outright
        assume(max(abs(z - p), abs(z - q)) < 0.99 * (1.0 - abs(z)))
        spec = DomainSpec.bare([SinglePoint(w) for w in (p, q) if w != 0], include_origin=0 in (p, q))
        nb = nearest_boundary(spec, z)
        sq = {w: exact_sq_distance(z, w) for w in (p, q)}
        assert {w for _, w in nb.witnesses if w in sq} == {w for w in sq if sq[w] == min(sq.values())}

    @given(st.complex_numbers(max_magnitude=0.99), st.complex_numbers(max_magnitude=1.0))
    @settings(max_examples=400, deadline=None)
    def test_computed_distance_within_the_filter_model(self, z, w):
        # the float filter assumes abs(z - w) within a factor 1 +- 3u of
        # |z - w| (plus O(u^2)) in the normal range; 4u covers the square terms
        u = Fraction(2) ** -53
        exact = exact_sq_distance(z, w)
        got = Fraction(abs(z - w)) ** 2
        if abs(z - w) >= 2.0**-1000:
            assert (1 - 4 * u) ** 2 * exact <= got <= (1 + 4 * u) ** 2 * exact

    def test_points_symmetric_about_z_both_kept(self):
        # conjugates are mirror images about the real axis bit for bit
        z = 0.3 + 0j
        nb = nearest_boundary(points_domain(0.2 + 0.1j, 0.2 - 0.1j), z)
        assert [w for _, w in nb.witnesses] == [0.2 + 0.1j, 0.2 - 0.1j]

    @pytest.mark.parametrize(
        "curve, point",
        [
            # the segment crosses the real axis at 0.3, but its computed
            # realizing point is 0.3 + 1.4e-17i, exactly farther than -0.3
            (Segment(complex(0.3, -0.1), complex(0.3, 0.17)), -0.3 + 0j),
            # |c| = 0.625 and r = 0.125 are exact, so the disk lies at distance
            # 0.5 from 0, but its realizing point rounds off the circle |w| = 0.5
            (ObstacleDisk(0.375 + 0.5j, 0.125), -0.5 + 0j),
        ],
    )
    def test_curve_tied_with_a_point_stays(self, curve, point):
        w = curve.nearest_point(0j)
        assert exact_sq_distance(0j, w) != exact_sq_distance(0j, point)
        for prims in ([curve, SinglePoint(point)], [SinglePoint(point), curve]):
            nb = nearest_boundary(DomainSpec.bare(prims), 0j)
            assert {v for _, v in nb.witnesses} == {w, point}

    def test_near_tie_dropped(self):
        # one ulp farther: the computed distances agree, the exact ones do not
        z = 0.3 + 0j
        far = complex(0.2, math.nextafter(-0.1, -1.0))
        assert abs(z - far) == abs(z - (0.2 + 0.1j))
        nb = nearest_boundary(points_domain(0.2 + 0.1j, far), z)
        assert [w for _, w in nb.witnesses] == [0.2 + 0.1j]


# ---------------------------------------------------------------------------
# achievable distances


class TestDistanceSet:
    def test_origin_base(self):
        spec = DomainSpec.bare(include_origin=True)
        ds = linear_distance_set(spec, 0j)
        assert ds == ((0.0, 0.0), (1.0, 1.0))

    def test_segment_endpoint_base(self):
        spec = DomainSpec.bare([Segment(0j, complex(0.1, 0))])
        ds = linear_distance_set(spec, 0.1 + 0j)
        assert ds[0] == (0.0, 0.1)
        lo, hi = ds[1]
        assert abs(lo - 0.9) < 1e-15 and abs(hi - 1.1) < 1e-15

    def test_disk_interval(self):
        spec = DomainSpec.bare([ObstacleDisk(complex(0.3, 0), 0.1)], include_origin=True)
        ds = linear_distance_set(spec, 0j)
        assert ds[0] == pytest.approx((0.2, 0.4), abs=1e-15)
        assert ds[1] == (0.0, 0.0)
        assert ds[2] == (1.0, 1.0)

    def test_rejects_interior_base(self):
        spec = DomainSpec.bare(include_origin=True)
        with pytest.raises(NotOnBoundary):
            linear_distance_set(spec, 0.5 + 0j)
        with pytest.raises(NotOnBoundary):
            distance_set(spec, 0.5 + 0j, near=0.5)

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
        # a stored point is a base only as its exact float, a curve's point
        # within GEOM_TOL of the curve
        gap = boundary_gap(spec, a)
        if gap > 0.0 if where == "point" else gap > GEOM_TOL:
            with pytest.raises(NotOnBoundary):
                linear_distance_set(spec, a)
            with pytest.raises(NotOnBoundary):
                distance_set(spec, a, near=0.1)
        else:
            assert len(linear_distance_set(spec, a)) == len(spec.primitives)
            assert distance_set(spec, a, near=0.1)

    def test_brute_force_conformance(self):
        # each interval must bracket the sampled min/max up to the sampling
        # gap; 40k nodes per curve keep even a V-shaped minimum at a base
        # point between unit-circle nodes below the 1e-4 tolerance
        spec = mixed_domain()
        for a in boundary_points(spec, 100, seed=11):
            ds = linear_distance_set(spec, a)
            for prim, (lo, hi) in zip(spec.primitives, ds):
                dists = np.abs(primitive_samples(prim, 40_000) - a)
                smin, smax = float(dists.min()), float(dists.max())
                assert lo - 1e-9 <= smin and smax <= hi + 1e-9
                assert smin - lo <= 1e-4
                assert hi - smax <= 1e-4


# ---------------------------------------------------------------------------
# paths and first hits


class TestPaths:
    def test_radial_path_shape(self):
        pieces = _walk(0.5 + 0j, 1.0 + 0j)
        assert [type(p) for p in pieces] == [RadialPiece]
        assert path_point(pieces, 0.0) == 0.5 + 0j
        assert path_point(pieces, 1.0) == 1.0 + 0j

    def test_arc_then_radial_rejects_origin(self):
        with pytest.raises(MalformedPath):
            _walk(0j, 0.5 + 0j)
        with pytest.raises(MalformedPath):
            _walk(0.5 + 0j, 0j)
        with pytest.raises(MalformedPath):
            first_boundary_hit(points_domain(0.5 + 0j), 0j, 0.5 + 0j)

    def test_arc_then_radial_shape(self):
        pieces = _walk(0.3 + 0j, 0.5j)
        assert [type(p) for p in pieces] == [ArcPiece, RadialPiece]
        assert abs(path_point(pieces, 0.0) - 0.3) < 1e-15
        assert abs(path_point(pieces, 1.0) - 0.5j) < 1e-15
        assert abs(pieces[0].sweep - math.pi / 2.0) < 1e-15

    def test_arc_then_radial_takes_shorter_arc(self):
        arc = _walk(0.3 + 0j, complex(0.0, -0.4))[0]
        assert arc.sweep < 0.0
        assert abs(arc.sweep + math.pi / 2.0) < 1e-15

    def test_arc_then_radial_degenerate(self):
        with pytest.raises(MalformedPath):
            _walk(0.3 + 0j, 0.3 + 0j)

    def test_pure_arc_and_pure_radial_pieces(self):
        assert [type(p) for p in _walk(0.3 + 0j, 0.3j)] == [ArcPiece]
        assert [type(p) for p in _walk(0.3 + 0j, 0.6 + 0j)] == [RadialPiece]


class TestFirstBoundaryHit:
    def test_start_on_boundary(self):
        spec = points_domain(0.5 + 0j)
        assert first_boundary_hit(spec, 0.5 + 0j, 1.0 + 0j) == 0.5 + 0j

    def test_start_on_boundary_inner(self):
        spec = points_domain(0.5 + 0j, 0.25 + 0j)
        assert first_boundary_hit(spec, 0.25 + 0j, 0.5 + 0j) == 0.25 + 0j

    def test_arc_hit_before_radial(self):
        spec = points_domain(0.3j, 0.5 + 0j)
        hit = first_boundary_hit(spec, 0.3 + 0j, 0.5j)
        assert abs(hit - 0.3j) <= 1e-12

    def test_radial_hit_through_disk(self):
        spec = DomainSpec.bare([ObstacleDisk(complex(0.5, 0), 0.1)])
        hit = first_boundary_hit(spec, 0.2 + 0j, 0.9 + 0j)
        assert abs(hit - 0.4) <= 1e-12

    def test_radial_hit_on_collinear_segment(self):
        spec = DomainSpec.bare([Segment(complex(0.4, 0), complex(0.6, 0))])
        hit = first_boundary_hit(spec, 0.1 + 0j, 0.9 + 0j)
        assert abs(hit - 0.4) <= 1e-12

    def test_circle_hit_when_nothing_else(self):
        spec = DomainSpec.bare(include_origin=True)
        hit = first_boundary_hit(spec, 0.5j, 1.0j)
        assert abs(hit - 1.0j) <= 1e-12

    def test_rejects_path_missing_boundary(self):
        spec = DomainSpec.bare()
        with pytest.raises(MalformedPath):
            first_boundary_hit(spec, 0.5 + 0j, 0.6 + 0j)

    @pytest.mark.parametrize(
        "obstacles,start,target",
        [
            ((0.3j, 0.5 + 0j), 0.3 + 0j, 0.3j),
            ((complex(0.2, 0.2), complex(-0.3, 0.1)), complex(0.28, 0.28), complex(-0.3, 0.1)),
            ((0.4j, complex(0.1, 0)), complex(0.25, 0.25), 1.0j),
        ],
    )
    def test_against_dense_path_sampling(self, obstacles, start, target):
        assert_first_hit_matches_walk(points_domain(*obstacles), start, target)

    # arcs that first meet a disk or the unit circle; linear_first_hit in
    # test_index shares _piece_hits, so only a walk checks these formulas
    ARC_HITS = {
        "disk": (ObstacleDisk(0.4j, 0.1), 0.4 + 0j, cmath.rect(0.4, 2.5)),
        "disk-negative-sweep": (ObstacleDisk(-0.4j, 0.1), 0.4 + 0j, cmath.rect(0.4, -2.5)),
        "disk-at-start": (ObstacleDisk(0j, 0.3), 0.3 + 0j, 0.3j),
        "unit-circle": (None, complex(1.0 - 1e-11, 0.0), cmath.rect(1.0 - 1e-11, 1.0)),
    }

    @pytest.mark.parametrize("name", list(ARC_HITS))
    def test_arc_hits_against_dense_path_sampling(self, name):
        disk, start, target = self.ARC_HITS[name]
        spec = DomainSpec.bare([disk] if disk is not None else [])
        assert isinstance(_walk(start, target)[0], ArcPiece)
        assert_first_hit_matches_walk(spec, start, target)

    @pytest.mark.parametrize("radius,hits", [(0.2, [0.0]), (0.1, [])])
    def test_arc_too_near_the_origin_for_the_disk_formula(self, radius, hits):
        # 2 * 0.2 * 5e-324 rounds to 0, so only the disk's distance from the
        # origin decides; the circle of radius 0.2 about 0.2 passes through it
        assert _piece_hits(ArcPiece(5e-324, 0.0, 1.0), ObstacleDisk(0.2 + 0j, radius)) == hits


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
        # validate gauges clearance to the unit circle by the largest distance from 0
        assert SinglePoint(complex(0.3, 0.4)).distance_interval(0j)[1] == 0.5
        assert Segment(0j, complex(0.6, 0)).distance_interval(0j)[1] == 0.6
        assert ObstacleDisk(complex(0.5, 0), 0.2).distance_interval(0j)[1] == 0.7


# ---------------------------------------------------------------------------
# rotation equivariance


class TestRotation:
    @given(
        st.sampled_from([
            mixed_domain(),
            DomainSpec.bare(
                [SinglePoint(complex(0.3, -0.2)), Segment(complex(-0.5, 0.1), complex(-0.2, 0.4))],
                include_origin=True,
            ),
        ]),
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.floats(-0.95, 0.95),
        st.floats(-0.95, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_and_distance(self, spec, theta, x, y):
        rspec = rotate_domain(spec, theta)
        assert (0j in rspec.point_index.point_set) is (0j in spec.point_index.point_set)
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
            ds0 = linear_distance_set(spec, a)
            ds1 = linear_distance_set(rspec, a * rot)
            for (lo0, hi0), (lo1, hi1) in zip(ds0, ds1):
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

    @pytest.mark.parametrize("obj", MALFORMED_SPECS)
    def test_rejects_malformed(self, obj):
        with pytest.raises(SpecError):
            domain_from_dict(obj)

    GEOMETRIC = {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4}

    @pytest.mark.parametrize("primitives, sequence, message", [
        # checks made by the constructors, which know no location
        ([{"type": "disk", "cx": 0.0, "cy": 0.0, "r": 2.0}], GEOMETRIC, "primitives[0]: disk is not inside the unit disk"),
        ([{"type": "point", "x": 0.1, "y": 0.0}, {"type": "point", "x": 1.5, "y": 0.0}], GEOMETRIC,
         "primitives[1]: point (1.5+0j) is not inside the unit disk"),
        ([], {**GEOMETRIC, "delta": 1.5}, "sequence: delta must lie in (0, 1)"),
        ([], {**GEOMETRIC, "count": "4"}, "sequence: count must be a positive integer"),
        ([], {"type": "explicit", "points": []}, "sequence: points must be nonempty"),
        ([], {"type": "explicit", "points": [[0.5, 0.0], [0.0, -1.0]]}, "sequence: points[1] is not inside the unit disk"),
        # checks of the reader and of DomainSpec.build, located once
        ([{"type": "point", "x": 0.3}], GEOMETRIC, "primitives[0]: missing field 'y'"),
        ([{"type": "point", "x": 0.0, "y": 0.0}], GEOMETRIC,
         "primitives[0]: the origin obstacle is implicit and must not be listed"),
        ([], {"type": "geometric", "ratio": 0.5, "count": 4}, "sequence: missing field 'delta'"),
        ([], {"type": "explicit", "points": [[0.5]]}, "sequence: points[0] must be [x, y]"),
        # integers beyond the float range
        ([{"type": "point", "x": 0.1, "y": -(10**400)}], GEOMETRIC, "primitives[0]: field 'y' must be a number"),
        ([], {"type": "explicit", "points": [[0.5, 0.0], [10**400, 0.0]]}, "sequence: points[1] must be [x, y]"),
        ([], {**GEOMETRIC, "count": 10**400}, "sequence: count is too large: it lies beyond the float range"),
    ])
    def test_error_names_its_location_once(self, primitives, sequence, message):
        with pytest.raises(SpecError) as exc:
            domain_from_dict({"primitives": primitives, "sequence": sequence})
        assert str(exc.value) == message

    def test_load_domain(self, tmp_path):
        path = write_spec(tmp_path, battery_json(0.5, 0.5, count=6))
        assert load_domain(path) == battery_domain(0.5, 0.5, count=6)

    def test_load_domain_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError):
            load_domain(str(path))

    def test_load_domain_integer_past_the_digit_limit(self, tmp_path):
        # json.load raises a plain ValueError for an integer literal longer
        # than int()'s digit limit (4300 digits by default)
        path = tmp_path / "long.json"
        path.write_text('{"primitives": [], "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": '
                        + "1" * 5000 + "}}", encoding="utf-8")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_domain(str(path))

    def test_numbers_end_at_the_float_range(self):
        # float() rounds 2^1024 - 2^970 up to 2^1024 and overflows; one less
        # rounds down to the largest float
        top = 2**1024 - 2**970
        assert float(top - 1) == sys.float_info.max
        with pytest.raises(OverflowError):
            float(top)
        assert [_is_number(v) for v in (top - 1, -(top - 1), top, -top, 10**400, 1e308, True)] == [
            True, True, False, False, False, True, False,
        ]
