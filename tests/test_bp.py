"""Two-sided density bounds: the constant kappa, the log-scale distance to
the achievable-distance set, L with its witnesses, and the bound formulas.
The analytic L is cross-checked against brute-force boundary discretization,
which can only overshoot the true infimum."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypbound import (
    DomainSpec,
    EmptySet,
    Membership,
    NearestBoundary,
    NotInDomain,
    NotOnBoundary,
    ObstacleDisk,
    Segment,
    SinglePoint,
    UnitCircle,
    bp,
    contains,
    bp_bounds,
    compute_L,
    disk_density,
    log_distance_to_set,
    nearest_boundary,
    punctured_disk_density,
)
from hypbound.bp import KAPPA, TWO_ROOT_TWO
from hypbound.cli import sample_domain_points
from hypbound.oracles import OracleDomain, oracle_density, oracle_fixture

from conftest import (
    battery_domain,
    bench_domain,
    boundary_cloud,
    counted_calls,
    linear_distance_set,
    mixed_domain,
    reference_L,
    rotate_domain,
)


class TestKappa:
    def test_value(self):
        assert abs(KAPPA - 5.7627) <= 1e-4
        assert KAPPA == 4.0 + math.log(3.0 + 2.0 * math.sqrt(2.0))
        assert KAPPA == 5.762747174039086

    def test_five_log_two_combination(self):
        val = 1.0 / (2.0 * math.sqrt(2.0) * (KAPPA + 5.0 * math.log(2.0)))
        assert abs(val - 0.03831) <= 1e-5
        assert val == 0.0383111056984657


class TestLogDistanceToSet:
    def test_inside_interval(self):
        assert log_distance_to_set(0.5, ((0.4, 0.6),)) == (0.0, 0.5)

    def test_point_interval(self):
        val, s = log_distance_to_set(0.5, ((1.0, 1.0),))
        assert abs(val - math.log(2.0)) < 1e-15
        assert s == 1.0

    def test_two_intervals(self):
        val, s = log_distance_to_set(0.4, ((0.0, 0.1), (0.9, 1.1)))
        assert abs(val - 0.8109302162163288) < 1e-15
        assert s == 0.9

    def test_degenerate_intervals_skipped(self):
        val, s = log_distance_to_set(0.4, ((0.0, 0.0), (0.9, 1.1)))
        assert abs(val - math.log(0.9 / 0.4)) < 1e-15

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            log_distance_to_set(0.4, ((0.0, 0.0), (0.0, 0.0)))

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            log_distance_to_set(0.0, ((0.4, 0.6),))

    @given(
        st.floats(1e-3, 3.0),
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
                st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, d, raw):
        intervals = tuple((lo, lo + w) for lo, w in raw)
        candidates = [
            min(max(d, lo), hi) for lo, hi in intervals if hi > 0.0
        ]
        if not candidates:
            with pytest.raises(EmptySet):
                log_distance_to_set(d, intervals)
            return
        val, s = log_distance_to_set(d, intervals)
        expected = min(abs(math.log(d / c)) for c in candidates)
        assert abs(val - expected) <= 1e-12
        assert abs(val - abs(math.log(d / s))) <= 1e-12


class TestComputeL:
    def test_punctured_fixture_is_zero(self):
        # the circle witness admits a boundary pair at exactly distance d
        spec = DomainSpec.bare(include_origin=True)
        r = compute_L(spec, nearest_boundary(spec, 0.5 + 0j))
        assert r.L == 0.0
        assert r.witness_a == 1.0 + 0j
        assert r.witness_s == 0.5
        assert r == bp_bounds(spec, 0.5 + 0j)

    def test_slit_fixture(self):
        spec = DomainSpec.bare([Segment(0j, complex(0.1, 0))])
        r = compute_L(spec, nearest_boundary(spec, 0.5 + 0j))
        assert abs(r.L - 0.8109302162163288) < 1e-12
        assert abs(r.witness_a - 0.1) < 1e-15
        assert abs(r.witness_s - 0.9) < 1e-15

    def test_witness_invariants(self, std_domain):
        rng = random.Random(17)
        for z in sample_domain_points(std_domain, 1000, 100):
            r = compute_L(std_domain, nearest_boundary(std_domain, z))
            assert abs(z - r.witness_a) <= r.d * (1.0 + 2e-9)
            assert abs(r.L - abs(math.log(r.d / r.witness_s))) <= 1e-9
            ds = linear_distance_set(std_domain, r.witness_a)
            assert any(
                lo - 1e-12 <= r.witness_s <= hi + 1e-12 for lo, hi in ds if hi > 0
            )

    def test_rejects_outside(self, std_domain):
        with pytest.raises(NotInDomain):
            bp_bounds(std_domain, 0.5 + 0j)

    @pytest.mark.parametrize("z, L", [(complex(-0.05, -0.3), 0.0046596798503624132), (0.3j, 0.0017415047625832009)])
    def test_origin_alone_is_nearest_on_the_dense_sequence(self, z, L):
        # only the origin is exactly nearest, though 369 and 1253 primitives
        # lie within relative 1e-9 of d; any farther one taken as a witness
        # could lower L below its value at the origin
        spec, _ = bench_domain("dense.json")
        nb = nearest_boundary(spec, z)
        assert [w for _, w in nb.witnesses] == [0j]
        r = compute_L(spec, nb)
        assert (r.L, r.witness_a) == (L, 0j)

    def test_bp_bounds_is_compute_L_of_its_own_pass(self, std_domain):
        z = 0.3 + 0.2j
        assert bp_bounds(std_domain, z) == compute_L(std_domain, nearest_boundary(std_domain, z))


def assert_matches_reference(spec: DomainSpec, nb: NearestBoundary):
    """compute_L(spec, nb) gives the floats of reference_L bit for bit, with
    the bounds that L gives."""
    r = compute_L(spec, nb)
    L, ws, wa = reference_L(spec, nb)
    denom = nb.d * (KAPPA + L)
    expected = (L, nb.d, wa, ws, 1.0 / (TWO_ROOT_TWO * denom), (KAPPA + math.pi / 4.0) / denom)
    assert repr(tuple(vars(r).values())) == repr(expected)
    return r


class TestLZeroExit:
    """compute_L returns L = 0 at the first witness whose curve interval holds
    d, without its point window, and the floats of the full reading."""

    @staticmethod
    def domain(name: str) -> DomainSpec:
        return mixed_domain() if name == "mixed" else bench_domain(name)[0]

    @given(
        st.sampled_from(["demo.json", "spiral.json", "dense.json", "mixed"]),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_reading(self, name, depth, theta):
        # |z| log-uniform from 10x the sequence floor up to 1
        spec = self.domain(name)
        z = cmath.rect(math.exp(math.log(10.0 * spec.sequence.floor) * depth), theta)
        if contains(spec, z) is not Membership.IN_G:
            return
        assert_matches_reference(spec, nearest_boundary(spec, z))

    @pytest.mark.parametrize("name", ["demo.json", "spiral.json", "dense.json", "mixed"])
    def test_sweep_points_match_the_full_reading(self, name):
        spec = self.domain(name)
        for z in sample_domain_points(spec, 3, 150):
            assert_matches_reference(spec, nearest_boundary(spec, z))

    def test_d_at_the_low_end_of_the_circle_interval(self, monkeypatch):
        # from a = 0.9 the circle is 1 - 0.9 away, which is d at z = 0.8
        spec = DomainSpec.bare([SinglePoint(0.9 + 0j)])
        nb = nearest_boundary(spec, 0.8 + 0j)
        assert nb.d == UnitCircle().distance_interval(0.9 + 0j)[0]
        calls = counted_calls(monkeypatch, "distance_set", bp)
        r = assert_matches_reference(spec, nb)
        assert (r.L, r.witness_s, calls) == (0.0, nb.d, [])
        # an ulp farther out d drops below the interval, and the window decides
        nb = nearest_boundary(spec, complex(math.nextafter(0.8, 1.0), 0.0))
        r = assert_matches_reference(spec, nb)
        assert r.L > 0.0 and calls == [0.9 + 0j]

    def test_d_at_the_high_end_of_a_segment_interval(self, monkeypatch):
        # the far end 0.6 of the segment lies as far from a = 0.5 as z = 0.4
        spec = DomainSpec.bare([SinglePoint(0.5 + 0j), Segment(0.55 + 0j, 0.6 + 0j)])
        nb = nearest_boundary(spec, 0.4 + 0j)
        assert nb.d == spec.primitives[1].distance_interval(0.5 + 0j)[1]
        calls = counted_calls(monkeypatch, "distance_set", bp)
        assert assert_matches_reference(spec, nb).L == 0.0
        assert calls == []

    def test_tie_where_only_the_second_witness_gives_zero(self, monkeypatch):
        # the origin and the unit circle tie at z = 0.5: from the origin L = ln 2,
        # from the circle L = 0
        spec = DomainSpec.bare(include_origin=True)
        nb = nearest_boundary(spec, 0.5 + 0j)
        assert [w for _, w in nb.witnesses] == [0j, 1 + 0j]
        calls = counted_calls(monkeypatch, "distance_set", bp)
        r = assert_matches_reference(spec, nb)
        assert (r.L, r.witness_a, calls) == (0.0, 1 + 0j, [0j])
        # read the other way round, the circle comes first and ends the pass
        calls.clear()
        flipped = NearestBoundary(nb.z, nb.d, nb.witnesses[::-1])
        assert compute_L(spec, flipped) == r
        assert calls == []

    @pytest.mark.parametrize("d, windows", [(1.0, 0), (0.1, 1)])
    def test_off_boundary_witness_raises_on_both_paths(self, monkeypatch, d, windows):
        # from a = 0.3 the circle interval is [0.7, 1.3]: d = 1.0 takes the
        # exit, d = 0.1 the window
        spec = DomainSpec.bare(include_origin=True)
        calls = counted_calls(monkeypatch, "distance_set", bp)
        with pytest.raises(NotOnBoundary):
            compute_L(spec, NearestBoundary(0.5 + 0j, d, ((0, 0.3 + 0j),)))
        assert len(calls) == windows


class TestBPBounds:
    def test_punctured_fixture_values(self):
        spec = DomainSpec.bare(include_origin=True)
        r = bp_bounds(spec, 0.5 + 0j)
        assert r.d == 0.5 and r.L == 0.0
        assert r.lower == 0.12270307196054536
        assert r.upper == 2.272577692436563
        assert abs(r.lower - 1.0 / (2.0 * math.sqrt(2.0) * 0.5 * KAPPA)) < 1e-15

    def test_sandwich_at_half(self):
        spec = DomainSpec.bare(include_origin=True)
        r = bp_bounds(spec, 0.5 + 0j)
        lam = punctured_disk_density(0.5 + 0j)
        assert r.lower <= lam <= r.upper

    def test_algebraic_identities(self, std_domain):
        for z in sample_domain_points(std_domain, 2000, 50):
            r = bp_bounds(std_domain, z)
            assert abs(r.lower * (TWO_ROOT_TWO * r.d * (KAPPA + r.L)) - 1.0) <= 1e-14
            assert abs(r.upper * r.d * (KAPPA + r.L) / (KAPPA + math.pi / 4.0) - 1.0) <= 1e-14
            assert r.lower <= r.upper

    def test_oracle_sandwich_random(self):
        for kind in OracleDomain:
            spec = oracle_fixture(kind)
            for z in sample_domain_points(spec, 300, 200):
                r = bp_bounds(spec, z)
                lam = oracle_density(kind, z)
                assert r.lower <= lam <= r.upper

    def test_bounds_grow_as_boundary_nears(self):
        # in the plain disk L = 0 throughout, so shrinking d must raise both bounds
        spec = DomainSpec.bare()
        rows = [bp_bounds(spec, complex(x, 0)) for x in (0.0, 0.5, 0.9)]
        assert rows[0].d > rows[1].d > rows[2].d
        assert rows[0].lower < rows[1].lower < rows[2].lower
        assert rows[0].upper < rows[1].upper < rows[2].upper
        lam = [disk_density(complex(x, 0)) for x in (0.0, 0.5, 0.9)]
        for r, v in zip(rows, lam):
            assert r.lower <= v <= r.upper

    def test_rotation_invariance(self):
        spec = mixed_domain()
        rng = random.Random(29)
        done = 0
        while done < 40:
            z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            theta = rng.uniform(-math.pi, math.pi)
            try:
                r0 = bp_bounds(spec, z)
            except NotInDomain:
                continue
            done += 1
            r1 = bp_bounds(rotate_domain(spec, theta), z * cmath.rect(1.0, theta))
            assert abs(r0.L - r1.L) <= 1e-12 * max(1.0, r0.L)
            assert abs(r0.lower - r1.lower) <= 1e-12 * r0.lower
            assert abs(r0.upper - r1.upper) <= 1e-12 * r0.upper


class TestDiscretizedL:
    """A sampled boundary is a subset of the true boundary, so the sampled
    infimum can only sit above the analytic L; it must also improve as the
    sampling refines."""

    @staticmethod
    def discretized_L(spec: DomainSpec, z: complex, m: int) -> float:
        nb = nearest_boundary(spec, z)
        pts = boundary_cloud(spec, m)
        best = math.inf
        for _, a in nb.witnesses:
            s = np.abs(pts - a)
            s = s[s > 1e-15]
            best = min(best, float(np.min(np.abs(np.log(nb.d / s)))))
        return best

    @pytest.mark.parametrize(
        "spec,z",
        [
            (DomainSpec.bare([Segment(0j, complex(0.1, 0))]), 0.5 + 0j),
            (DomainSpec.bare([Segment(0j, complex(0.1, 0))]), complex(0.3, 0.2)),
            (DomainSpec.bare(include_origin=True), 0.5 + 0j),
            (DomainSpec.bare(include_origin=True), 0.05 + 0j),
            (DomainSpec.bare([ObstacleDisk(complex(0.3, 0), 0.15)]), -0.5 + 0j),
            (battery_domain(0.5, 0.5, count=8), 0.3j),
        ],
    )
    def test_discretization_upper_bounds_analytic(self, spec, z):
        analytic = bp_bounds(spec, z).L
        coarse = self.discretized_L(spec, z, 1_000)
        fine = self.discretized_L(spec, z, 100_000)
        assert coarse >= analytic - 1e-6
        assert fine >= analytic - 1e-6
        assert fine - analytic <= (coarse - analytic) + 1e-12
        assert fine - analytic <= 1e-3
