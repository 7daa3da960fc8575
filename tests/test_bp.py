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
    NotInDomain,
    ObstacleDisk,
    Segment,
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

from conftest import battery_domain, bench_domain, boundary_cloud, linear_distance_set, mixed_domain, rotate_domain


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

    def test_reuses_nb_of_its_point_only(self, std_domain):
        z = 0.3 + 0.2j
        nb = nearest_boundary(std_domain, z)
        assert compute_L(std_domain, nb) == bp_bounds(std_domain, z, nb=nb) == bp_bounds(std_domain, z)
        with pytest.raises(ValueError, match="nearest-boundary result for"):
            bp_bounds(std_domain, z + 1e-12, nb=nb)


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
