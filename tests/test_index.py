"""The modulus index against brute force.

Every indexed boundary query in `geometry` must return the floats that a
scan over all primitives returns: membership, the nearest distance with its
exact witness tuple, the boundary gap, the distance to E, the log gap of a
pruned distance set, the first boundary hit along a path, and the ring point
a DeepSmallGap certificate starts from.  The references below are written
here, from the primitives' own methods, and do not touch the index.
"""

import cmath
import math
import random

import pytest
from hypothesis import assume, example, given, settings
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
    boundary_gap,
    contains,
    distance_set,
    first_boundary_hit,
    log_distance_to_set,
    nearest_boundary,
)
from hypbound.geometry import _BLOCK, _FILTER, _TINY, _piece_hits, _ratio_gap, _walk, obstacle_gap
from hypbound import halving
from hypbound.halving import CaseTag, CertificateError, _interior_circle_point

from conftest import (
    bench_domain,
    boundary_points,
    exact_sq_distance,
    linear_distance_set,
    mirror,
    nudge,
    primitive_intervals,
)

# ---------------------------------------------------------------------------
# brute-force references


def linear_contains(spec, z):
    if abs(z) >= 1.0:
        return Membership.ON_UNIT_CIRCLE_OR_OUTSIDE
    if any(prim.set_distance(z) <= 0.0 for prim in spec.obstacles):
        return Membership.IN_E
    return Membership.IN_G


def linear_nearest(spec, z):
    """(d, witnesses): the smallest computed distance; among the primitives
    within the float filter of it, every point at the exact minimum of
    |z - p|^2 over those points and every other primitive."""
    realized = [(i, prim.nearest_point(z)) for i, prim in enumerate(spec.primitives)]
    d = min(abs(z - w) for _, w in realized)
    near = [(i, w) for i, w in realized if abs(z - w) <= d * _FILTER + _TINY]
    points = [exact_sq_distance(z, w) for i, w in near if isinstance(spec.primitives[i], SinglePoint)]
    return d, tuple(
        (i, w)
        for i, w in near
        if not isinstance(spec.primitives[i], SinglePoint) or exact_sq_distance(z, w) == min(points)
    )


def linear_gap(spec, z):
    return min(prim.boundary_distance(z) for prim in spec.primitives)


def linear_first_hit(spec, pieces):
    for piece in pieces:
        ts = [t for prim in spec.primitives for t in _piece_hits(piece, prim)]
        if ts:
            return piece.point(min(ts))
    raise MalformedPath("path never meets the boundary of G")


def linear_circle_point(spec, radius):
    """(gap, w) of the first of 64 directions on S(0, radius) farthest from every obstacle."""
    best_gap, best_w = -1.0, 0j
    for j in range(64):
        w = cmath.rect(radius, (2.0 * math.pi) * j / 64.0)
        gap = min(prim.set_distance(w) for prim in spec.obstacles)
        if gap > best_gap:
            best_gap, best_w = gap, w
    return best_gap, best_w


def outcome(fn, *args, **kwargs):
    """fn's value, or the type of what it raised, for side-by-side comparison."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        return type(e)


def is_subsequence(part, whole) -> bool:
    it = iter(whole)
    return all(any(x == y for y in it) for x in part)


# ---------------------------------------------------------------------------
# specs and query points

unit = st.floats(-1.0, 1.0)
angles = st.floats(0.0, math.tau)
inner = st.floats(-0.7, 0.7)


@st.composite
def user_primitives(draw):
    out = []
    for kind in draw(st.lists(st.sampled_from(["point", "segment", "disk"]), max_size=4)):
        p = complex(draw(inner), draw(inner))
        if kind == "point" and p != 0:
            out.append(SinglePoint(p))
        elif kind == "segment":
            q = complex(draw(inner), draw(inner))
            if abs(q - p) > 1e-6:
                out.append(Segment(p, q))
        elif kind == "disk":
            out.append(ObstacleDisk(p * 0.7, draw(st.floats(1e-3, 0.2))))
    return out


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["geometric", "spiral", "mirrored", "ray", "user", "bare"]))
    if kind == "bare":
        return DomainSpec.bare(draw(user_primitives()), include_origin=draw(st.booleans()))
    # up to a dozen blocks of the point index, so that later blocks meet the box test
    count = draw(st.integers(1, 400))
    if kind in ("geometric", "user"):
        seq = SequenceSpec.geometric(draw(st.floats(0.05, 0.9)), draw(st.floats(0.5, 0.99)), count)
    elif kind == "ray":
        # every point on one ray, like bench/specs/dense.json, at any angle
        scale, ratio, theta = draw(st.floats(0.05, 0.9)), draw(st.floats(0.5, 0.99)), draw(angles)
        seq = SequenceSpec.explicit(cmath.rect(scale * ratio**n, theta) for n in range(count))
    else:
        # off-axis explicit spiral; mirrored adds its conjugates, so queries
        # on the real axis tie pairs of points exactly
        scale, ratio, turn = draw(st.floats(0.05, 0.9)), draw(st.floats(0.5, 0.95)), draw(st.floats(-3.0, 3.0))
        pts = [cmath.rect(scale * ratio**n, turn * n) for n in range(count)]
        if kind == "mirrored":
            pts += [p.conjugate() for p in pts if p.imag != 0.0]
        seq = SequenceSpec.explicit(pts)
    return DomainSpec.build(draw(user_primitives()) if kind == "user" else [], seq)


def spec_points(spec):
    return [prim.p for prim in spec.primitives if isinstance(prim, SinglePoint)]


@st.composite
def spec_and_point(draw):
    """A spec and a query point: uniform, log-uniform deep, hugging a point
    of the spec at a relative gap in [1e-12, 1e-1], or log-uniform in the
    open half-plane facing away from the largest sequence point, where the
    origin is nearest when every point lies on its ray; uniform and deep
    points land on the real axis a quarter of the time."""
    spec = draw(specs())
    pts = spec_points(spec)
    kind = draw(st.sampled_from(["uniform", "deep", "hug", "opposite"] if pts else ["uniform", "deep"]))
    if kind == "hug":
        p = draw(st.sampled_from(pts))
        gap = 10.0 ** draw(st.floats(-12.0, -1.0)) * (abs(p) or 1.0)
        return spec, p + cmath.rect(gap, draw(angles))
    if kind == "opposite":
        away = cmath.phase(spec.sequence.largest if spec.sequence else max(pts, key=abs)) + math.pi
        turn = draw(st.floats(-1.5, 1.5))
        return spec, cmath.rect(10.0 ** draw(st.floats(-12.0, -0.01)), away + turn)
    if kind == "uniform":
        z = complex(draw(unit), draw(unit))
    else:
        z = cmath.rect(10.0 ** draw(st.floats(-12.0, 0.0)), draw(angles))
    if draw(st.integers(0, 3)) == 0:
        z = complex(z.real, 0.0)
    return spec, z


@st.composite
def near_tie_spec_and_point(draw):
    """Points, segments and disks around z, several of them at exactly or
    nearly the distance of the first point: mirror images of it about lines
    through z, a few ulps off."""
    z = complex(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6)))
    p = z + cmath.rect(draw(st.floats(1e-3, 0.3)), draw(st.floats(0.0, math.tau)))
    steps = st.integers(-2, 2)
    pts = [p]
    for image in draw(st.lists(st.sampled_from(["horizontal", "vertical", "point"]), max_size=3)):
        q = mirror(p, z, image)
        pts.append(complex(nudge(q.real, draw(steps)), nudge(q.imag, draw(steps))))
    prims = [SinglePoint(q) for q in dict.fromkeys(pts) if q != 0 and abs(q) < 0.95]
    gap = abs(z - p)
    for kind in draw(st.lists(st.sampled_from(["segment", "disk"]), max_size=2)):
        # a segment tangent to the circle |w - z| = gap, or a disk touching it from outside
        theta = draw(st.floats(0.0, math.tau))
        foot = z + cmath.rect(gap, theta)
        if kind == "segment":
            tangent = cmath.rect(0.05, theta + math.pi / 2.0)
            candidate = (foot - tangent, foot + tangent)
            if max(map(abs, candidate)) < 0.95:
                prims.append(Segment(*candidate))
        else:
            r = draw(st.floats(1e-3, 0.1))
            center = z + cmath.rect(gap + r, theta)
            if abs(center) + r < 0.95:
                prims.append(ObstacleDisk(center, r))
    return DomainSpec.bare(prims, include_origin=draw(st.booleans())), z


INDEXED = settings(max_examples=250, deadline=None)


# ---------------------------------------------------------------------------
# conformance


@given(spec_and_point())
@INDEXED
def test_contains(case):
    spec, z = case
    assert contains(spec, z) is linear_contains(spec, z)


@given(specs())
@settings(max_examples=60, deadline=None)
def test_every_point_is_in_e(spec):
    for p in spec_points(spec):
        assert contains(spec, p) is Membership.IN_E
        assert boundary_gap(spec, p) == 0.0


@given(st.one_of(spec_and_point(), near_tie_spec_and_point()))
@INDEXED
def test_nearest_boundary(case):
    spec, z = case
    if linear_contains(spec, z) is not Membership.IN_G:
        with pytest.raises(NotInDomain):
            nearest_boundary(spec, z)
        return
    nb = nearest_boundary(spec, z)
    assert (nb.z, nb.d, nb.witnesses) == (z, *linear_nearest(spec, z))


def assert_linear(spec, z):
    """Every indexed point query at z returns the floats of a linear scan."""
    assert contains(spec, z) is linear_contains(spec, z)
    if linear_contains(spec, z) is Membership.IN_G:
        d, witnesses = linear_nearest(spec, z)
        if d == 0.0:
            # a witness rounded onto z
            with pytest.raises(NotInDomain):
                nearest_boundary(spec, z)
        else:
            nb = nearest_boundary(spec, z)
            assert (nb.d, nb.witnesses) == (d, witnesses)
    assert boundary_gap(spec, z) == linear_gap(spec, z)
    assert obstacle_gap(spec, z) == min((prim.set_distance(z) for prim in spec.obstacles), default=math.inf)


def test_origin_query_reads_two_blocks():
    # 0 is nearest at -0.05-0.3i, so the modulus window holds every point of
    # dense.json below 2|z|; the boxes leave the block holding |z| and that of 0
    spec, _ = bench_domain("dense.json")
    z = complex(-0.05, -0.3)
    d, hits = spec.point_index.scan(z, 1.0)
    assert len(hits) <= 2 * _BLOCK
    assert d == abs(z) and (d, len(spec.primitives) - 2, 0j) in hits


@pytest.mark.parametrize("spec", [
    DomainSpec.bare(),
    DomainSpec.bare([ObstacleDisk(complex(0.3, 0.1), 0.1), Segment(-0.5j, complex(-0.2, -0.5))]),
    DomainSpec.bare(include_origin=True),
    DomainSpec.bare([SinglePoint(complex(0.3, -0.2))]),
    DomainSpec.build([], SequenceSpec.explicit([complex(-0.4, 0.1)])),
], ids=["empty", "shapes only", "origin only", "one point", "one point and the origin"])
def test_index_without_blocks_to_skip(spec):
    # the seed of the scan reads the first point only when there is one
    idx = spec.point_index
    if not idx.points:
        assert idx.scan(0.5j, 0.25) == (0.25, [])
    for z in (0.5j, complex(-0.4, 0.1000001), complex(0.3, -0.2), complex(-0.01, 0.0), complex(0.0, -0.9)):
        assert_linear(spec, z)


def test_queries_on_box_edges():
    # z at a corner, on an edge or inside every block's box (degenerate for
    # the points on the real axis), and on the lines through its edges at
    # moduli far from the block's, where the block meets the box test
    spiral = SequenceSpec.explicit(cmath.rect(0.6 * 0.97**n, 0.05 * n) for n in range(300))
    axis = SequenceSpec.geometric(0.6, 0.97, 300)
    for seq in (spiral, axis):
        spec = DomainSpec.build([], seq)
        for x0, x1, y0, y1 in spec.point_index.boxes:
            xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            on_box = {complex(x, y) for x in (x0, xm, x1) for y in (y0, ym, y1)}
            lines = (-0.5, 0.05, 0.4)
            on_lines = {complex(x, y) for x in (x0, x1) for y in lines} | {complex(x, y) for y in (y0, y1) for x in lines}
            for z in on_box | on_lines:
                assert_linear(spec, z)


def test_subnormal_points_and_queries():
    ray = [cmath.rect(0.5 * 0.9**n, 1.0) for n in range(100)]
    for origin in (False, True):
        spec = DomainSpec.bare(
            [SinglePoint(p) for p in ray + [5e-324 + 0j, complex(1e-310, -2e-310), complex(-3e-320, 4e-320)]],
            include_origin=origin,
        )
        for z in (complex(3e-323, 1e-323), complex(-1e-310, 1e-310), complex(2e-308, 0.0),
                  complex(0.0, 5e-324), complex(1e-310, -1.9e-310), complex(-5e-324, -5e-324), 1e-300j):
            assert_linear(spec, z)


def test_box_test_near_the_subnormal_squares():
    # At the scale g = 2^-537 squares are subnormal multiples of g^2.  The
    # last block holds one point, 1.095g from z; the squares of its box's
    # legs, 0.6 g^2 each, round up to g^2, so its squared distance reads
    # 2 g^2, while the square of the bound 1.14g that q sets, 1.3 g^2,
    # rounds down to g^2.  The box test must not skip the block on those.
    g = 2.0**-537
    z = complex(10.0 * g, 0.0)
    q = z + cmath.rect(1.14 * g, math.radians(80.0))
    star = z + complex(0.7746 * g, 0.7746 * g)
    pts = [complex(0.0, -0.1 * k * g) for k in range(1, 33)]
    pts += [q] + [complex(0.0, (10.0 + 0.02 * k) * g) for k in range(1, 32)] + [star]
    spec = DomainSpec.bare([SinglePoint(p) for p in pts])
    assert spec.point_index.points[2 * _BLOCK :] == [star]
    assert obstacle_gap(spec, z) == abs(z - star) < abs(z - q)
    assert_linear(spec, z)


@given(spec_and_point())
@INDEXED
def test_boundary_gap(case):
    spec, z = case
    assert boundary_gap(spec, z) == linear_gap(spec, z)


@given(spec_and_point())
@INDEXED
def test_obstacle_gap(case):
    spec, z = case
    assert obstacle_gap(spec, z) == min((prim.set_distance(z) for prim in spec.obstacles), default=math.inf)


@given(spec_and_point(), st.sampled_from(["exact", "below", "above", "scaled", "none"]), st.floats(0.0, 2.0))
@INDEXED
def test_obstacle_gap_with_a_floor(case, where, factor):
    # the floor at the exact gap, one ulp on either side, a multiple of the
    # gap, or -inf: a gap above the floor comes back exactly, any other at
    # most the floor and no less than the gap.  The point scan likewise
    # returns its full (d, hits) above the floor, and else stops early with
    # a prefix of the hits.
    spec, z = case
    gap = obstacle_gap(spec, z)
    floor = {
        "exact": gap,
        "below": math.nextafter(gap, -math.inf),
        "above": math.nextafter(gap, math.inf),
        "scaled": gap * factor,
        "none": -math.inf,
    }[where]
    assume(not math.isnan(floor))   # inf * 0, with no obstacle at all
    got = obstacle_gap(spec, z, floor)
    if gap > floor:
        assert got == gap
    else:
        assert gap <= got <= floor
    d, hits = spec.point_index.scan(z, math.inf)
    got_d, got_hits = spec.point_index.scan(z, math.inf, floor)
    if d > floor:
        assert (got_d, got_hits) == (d, hits)
    else:
        assert d <= got_d <= floor and got_hits == hits[: len(got_hits)]


@given(spec_and_point(), st.floats(-12.0, 0.3))
@INDEXED
def test_pruned_distance_set(case, log_d):
    spec, z = case
    # bases: z itself (off the boundary unless it lies within GEOM_TOL of a
    # curve), its nearest witnesses, and boundary points of every primitive
    bases = [z] + boundary_points(spec, 8, seed=len(spec.primitives))
    dists = [10.0**log_d]
    if linear_contains(spec, z) is Membership.IN_G:
        d, witnesses = linear_nearest(spec, z)
        bases += [w for _, w in witnesses[:20]]
        dists.append(d)
    for a in bases:
        for d in dists:
            full, near = outcome(linear_distance_set, spec, a), outcome(distance_set, spec, a, near=d)
            if isinstance(full, type) or isinstance(near, type):
                assert near is full
                continue
            assert is_subsequence(near, full)
            assert log_distance_to_set(d, near) == log_distance_to_set(d, full)


@pytest.mark.parametrize("name", ["dense.json", "spiral.json"])
def test_stored_point_base_is_exact(name):
    # dense.json's largest point 0.5 and spiral.json's smallest, 3.7e-14 from
    # the origin: a base one ulp off either lies on no curve and is rejected
    spec, _ = bench_domain(name)
    p = min(spec.sequence.resolved_points, key=abs) if name == "spiral.json" else 0.5 + 0j
    assert p in spec.point_index.point_set
    d = abs(p)
    assert log_distance_to_set(d, distance_set(spec, p, near=d)) == log_distance_to_set(d, linear_distance_set(spec, p))
    for q in (complex(math.nextafter(p.real, 1.0), p.imag), complex(p.real, math.nextafter(p.imag, -1.0))):
        assert boundary_gap(spec, q) <= 1e-12
        with pytest.raises(NotOnBoundary):
            distance_set(spec, q, near=d)


def assert_window(spec, a, d):
    """window(a, d) is a subsequence of the intervals of every primitive at
    a that keeps every interval at the smallest log gap from d; window makes
    no base check, so a need not lie on the boundary."""
    full, near = primitive_intervals(spec, a), spec.point_index.window(a, d)
    best = min(_ratio_gap(d, *iv) for iv in full)
    assert is_subsequence(near, full)
    assert [iv for iv in near if _ratio_gap(d, *iv) == best] == [iv for iv in full if _ratio_gap(d, *iv) == best]
    assert log_distance_to_set(d, near) == log_distance_to_set(d, full)


def test_far_from_e_window_reads_two_blocks():
    # At 0.3+0.4i the nearest point a lies on the ray of the points and the
    # best match is 0 at |a|, so the modulus band of the window holds every
    # point; the boxes leave the block of 0 and at most one more
    spec = DomainSpec.build([], SequenceSpec.geometric(0.5, 0.99, 2300))
    idx = spec.point_index
    nb = nearest_boundary(spec, complex(0.3, 0.4))
    for _, a in nb.witnesses:
        assert len(idx.window(a, nb.d)) <= len(idx.others) + 2 * _BLOCK
        assert_window(spec, a, nb.d)


def test_window_keeps_blocks_on_its_radii():
    # a = 0.5, d = 0.25: the unit circle sets rho = 2, so the radii are 0.125
    # and 0.5.  One block lies beyond 0.5 + 0.5i, its near edge at exactly 0.5
    # from a; one lies on [0.375, 0.4355], its far corner at exactly 0.125.
    # Each holds a point tied with the unit circle, and both are kept.  The
    # block of a lies within 0.03 of a and is skipped.
    a, d = 0.5 + 0j, 0.25
    outer = [complex(0.5, 0.5 + k / 256.0) for k in range(_BLOCK)]
    inner = [complex(0.375 + k / 512.0, 0.0) for k in range(_BLOCK)]
    near_a = [a + complex(0.0, k / 1024.0) for k in range(_BLOCK)]
    for pts in (outer + inner, inner, outer):
        spec = DomainSpec.bare([SinglePoint(p) for p in pts + near_a])
        assert len(spec.point_index.boxes) == len(pts) // _BLOCK + 1
        assert_window(spec, a, d)
        assert len(spec.point_index.window(a, d)) == len(pts) + 1


@pytest.mark.parametrize("s, d, step", [
    (float.fromhex("0x1.ad1673ceb3994p-4"), 0.15, 1.0),
    (float.fromhex("0x1.cf8453bba7e2cp-3"), 0.17, -1.0),
], ids=["inner", "outer"])
def test_window_radii_rounded_past_the_best_match(s, d, step):
    # a = 0.5 and its best match p = a - s, which sets rho; fl(d / rho) rounds
    # above s (inner) or fl(d * rho) below s (outer).  The other points of
    # p's block lie on the real axis between p and a, or beyond p, so p is
    # the block's far corner or near edge, and only the slack keeps it.
    a, p = 0.5 + 0j, complex(0.5 - s, 0.0)
    assert abs(a - p) == s and (d / (d / s) > s if step > 0 else d * (s / d) < s)
    pts = [p] + [p + step * k * s / 64.0 for k in range(1, _BLOCK)] + [a]
    spec = DomainSpec.bare([SinglePoint(q) for q in pts])
    assert spec.point_index.points[_BLOCK:] == [a]
    assert_window(spec, a, d)


@pytest.mark.parametrize("leg", [0.7, 0.7746])
def test_window_near_the_subnormal_squares(leg):
    # At the scale g = 2^-537 squares are subnormal multiples of g^2.  The
    # last block holds one point c, leg * (1 + i) g from a, and d = |a - c|,
    # so c is the best match and both radii lie within rounding of |a - c|.
    # With leg 0.7746 the squares of the box's legs, 0.6 g^2 each, round up
    # to g^2 while that of the outer radius, 1.2 g^2, rounds down; with leg
    # 0.7 they round down to 0 while that of the inner radius, 0.98 g^2,
    # rounds up.  Neither box test may skip the block on those.
    g = 2.0**-537
    a = complex(10.0 * g, 0.0)
    c = a + complex(leg * g, leg * g)
    spec = DomainSpec.bare([SinglePoint(complex(0.0, -0.1 * k * g)) for k in range(1, _BLOCK + 1)] + [SinglePoint(c)])
    assert spec.point_index.points[_BLOCK:] == [c]
    assert_window(spec, a, abs(a - c))


@given(spec_and_point(), st.data())
@INDEXED
def test_first_boundary_hit(case, data):
    spec, z = case
    if linear_contains(spec, z) is not Membership.IN_G:
        return
    pts = [p for p in spec_points(spec) if p != 0] or [cmath.rect(1.0, data.draw(angles))]
    target = data.draw(st.sampled_from(pts))
    for start in (z, cmath.rect(abs(z), data.draw(angles))):
        pieces = outcome(_walk, start, target)
        want = pieces if isinstance(pieces, type) else outcome(linear_first_hit, spec, pieces)
        assert outcome(first_boundary_hit, spec, start, target) == want


def test_hit_on_a_far_ring_of_a_dense_sequence():
    # the arc crosses many points' rays but meets only those of its own modulus
    spec = DomainSpec.build([], SequenceSpec.explicit(cmath.rect(0.5 * 0.99**n, 0.3 * n) for n in range(400)))
    start = cmath.rect(abs(spec.primitives[200].p), 1.0)
    for target in (spec.primitives[100].p, spec.primitives[300].p, 1j):
        assert first_boundary_hit(spec, start, target) == linear_first_hit(spec, _walk(start, target))


@st.composite
def spec_and_ring(draw):
    """A spec with obstacles and a ring radius: dyadic below the sequence's
    outer modulus, log-uniform, or the modulus of one of its points.  Extra
    user primitives may sit on the ring: a point exactly in one of the 64
    directions (gap 0 there), a disk or a segment straddling it (so the
    seeded bound matters), or a disk about 0 covering it."""
    spec = draw(specs())
    assume(spec.obstacles)
    pts = [p for p in spec_points(spec) if p != 0]
    kinds = ["dyadic", "uniform"] + (["through"] if pts else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "dyadic":
        outer = abs(spec.sequence.largest) if spec.sequence else 0.5
        radius = outer * 2.0 ** -draw(st.integers(2, 40))
    elif kind == "uniform":
        radius = 10.0 ** draw(st.floats(-12.0, -0.35))
    else:
        radius = abs(draw(st.sampled_from(pts)))
    extras = []
    for extra in draw(st.lists(st.sampled_from(["direction", "disk", "segment", "cover"]), max_size=3)):
        if extra == "direction":
            extras.append(SinglePoint(cmath.rect(radius, (2.0 * math.pi) * draw(st.integers(0, 63)) / 64.0)))
        elif radius > 0.45:
            continue
        elif extra == "disk":
            extras.append(ObstacleDisk(cmath.rect(radius, draw(angles)), radius * draw(st.floats(0.01, 0.9))))
        elif extra == "segment":
            f = draw(st.floats(0.01, 0.9))
            # Segment rejects endpoints whose squared distance underflows
            assume(radius * f > 1e-150)
            extras.append(Segment(cmath.rect(radius * (1.0 - f), draw(angles)), cmath.rect(radius * (1.0 + f), draw(angles))))
        else:
            extras.append(ObstacleDisk(0j, radius * draw(st.floats(1.01, 1.5))))
    user = list(spec.primitives[: spec.n_user]) + extras
    if spec.sequence is None:
        return DomainSpec.bare(user, include_origin=0j in spec.point_index.point_set), radius
    return DomainSpec.build(user, spec.sequence), radius


# below every sequence point the origin, at distance RING, is nearest in each
# direction; the disk on the ring at angle 0 seeds bounds up to 1.7 RING
RING = 0.25 * 2.0**-8
RING_CASE = (DomainSpec.build([ObstacleDisk(complex(RING, 0.0), 0.3 * RING)], SequenceSpec.geometric(0.25, 0.5, 3)), RING)


@given(spec_and_ring())
@example(RING_CASE)
@INDEXED
def test_interior_circle_point(case):
    spec, radius = case
    gap, w = linear_circle_point(spec, radius)
    if gap <= 0.0:
        with pytest.raises(CertificateError):
            _interior_circle_point(spec, radius)
    else:
        assert _interior_circle_point(spec, radius) == w


def certificate_rings(name):
    """The dyadic ring radii delta * 2^-m that a DeepSmallGap certificate on
    a bench spec can start from: m >= 2 with a dyadic witness in annulus m."""
    spec, consts = bench_domain(name)
    radii, m = [], 2
    while True:
        try:
            halving.dyadic_witness(spec.sequence, m)
        except halving.TruncationExceeded:
            return spec, radii
        radii.append(consts.delta * 2.0**-m)
        m += 1


@pytest.mark.parametrize("name, step", [("spiral.json", 1), ("demo.json", 1), ("dense.json", 4)])
def test_ring_points_of_the_bench_specs(name, step):
    # every ring of spiral.json and demo.json and every fourth of dense.json,
    # whose reference scan reads 2301 points per direction
    spec, radii = certificate_rings(name)
    assert len(radii) >= 30
    for radius in radii[::step]:
        gap, w = linear_circle_point(spec, radius)
        assert gap > 0.0
        assert _interior_circle_point(spec, radius) == w


moduli = st.floats(1e-6, 0.99)


@given(st.lists(st.tuples(moduli, angles, st.sampled_from(["one", "mirror", "flip"])), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_sequence_extremes(draws):
    # conjugates and negatives share a modulus bit for bit, so maxima and minima tie
    pts = []
    for m, theta, how in draws:
        p = cmath.rect(m, theta)
        pts += {"one": [p], "mirror": [p, p.conjugate()], "flip": [p, -p]}[how]
    seq = SequenceSpec.explicit(pts)
    top = max(abs(p) for p in pts)
    assert seq.largest == next(p for p in pts if abs(p) == top)
    assert seq.floor == min(abs(p) for p in pts)


def test_hit_from_a_subnormal_start():
    # the arc of radius 5e-324 underflows the cosine rule against the disk
    spec = DomainSpec.bare([SinglePoint(0.5j), ObstacleDisk(complex(0.175, 0.0), 0.125)])
    for start in (5e-324 + 0j, 5e-324 - 5e-324j):
        hit = first_boundary_hit(spec, start, 0.5j)
        assert hit == linear_first_hit(spec, _walk(start, 0.5j))
        assert abs(hit - 0.5j) <= 1e-15


def deep_inputs(spec, consts, seed, n):
    """n points of G drawn as the deep_certify benchmark draws them: in turn,
    a log-uniform modulus from 10x the sequence floor to delta/2 in any
    direction, and a point hugging a sequence point at a log-uniform
    relative gap in [1e-3, 1/8]."""
    rng = random.Random(f"deep_certify:{seed}")
    r_min = 10.0 * spec.sequence.floor
    pts = [p for p in spec.sequence.resolved_points if abs(p) >= r_min]
    lo, hi = math.log(r_min), math.log(consts.delta / 2.0)
    out = []
    while len(out) < n:
        if len(out) % 2 == 0:
            z = cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(0.0, math.tau))
        else:
            a = rng.choice(pts)
            z = a + cmath.rect(abs(a) * math.exp(rng.uniform(math.log(1e-3), math.log(0.125))), rng.uniform(0.0, math.tau))
        if linear_contains(spec, z) is Membership.IN_G:
            out.append(z)
    return out


@pytest.mark.parametrize("name", ["spiral.json", "dense.json"])
def test_certificate_walks(monkeypatch, name):
    # DeepSmallGap walks from a point of G on a dyadic ring, DeepComparable
    # from z; the partner b is the first hit, the float a scan over every
    # primitive finds along the same pieces
    spec, consts = bench_domain(name)
    walks = []

    def recorded(spec, start, target):
        hit = first_boundary_hit(spec, start, target)
        walks.append((start, target, hit))
        return hit

    monkeypatch.setattr(halving, "first_boundary_hit", recorded)
    starts = {CaseTag.DEEP_SMALL_GAP: 0, CaseTag.DEEP_COMPARABLE: 0}
    # ring walks repeat (one ring point per radius), so each distinct walk
    # is scanned once
    reference = {}
    for z in deep_inputs(spec, consts, 1, 300):
        walks.clear()
        cert = halving.build_certificate(spec, consts, z)
        for start, target, hit in walks:
            if (start, target) not in reference:
                reference[start, target] = linear_first_hit(spec, _walk(start, target))
            assert hit == cert.b == reference[start, target]
            assert (start == z) is (cert.case_tag is CaseTag.DEEP_COMPARABLE)
            starts[cert.case_tag] += 1
    assert min(starts.values()) >= 10, starts
