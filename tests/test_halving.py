"""Halving-sequence hypothesis gate, the explicit constant and its branches,
dyadic annulus witnesses, and the per-point certificate machinery."""

import cmath
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypbound
from hypbound import (
    CaseTag,
    Certificate,
    DomainSpec,
    HypothesisViolated,
    Membership,
    NotInDomain,
    ObstacleDisk,
    SequenceSpec,
    TruncationExceeded,
    ZeroArgument,
    bp_bounds,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_halving,
    constants,
    contains,
    dyadic_witness,
    lower_bound,
    nearest_boundary,
    verify_certificate,
)
from hypbound.bp import KAPPA, TWO_ROOT_TWO
from hypbound.cli import main, sample_domain_points
from hypbound.halving import _annulus_index, _case_cap

from conftest import battery_domain, bench_domain, write_spec


def seq_geometric(delta, ratio, count=60):
    return SequenceSpec.geometric(delta, ratio, count)


def seq_explicit(*values):
    return SequenceSpec.explicit([complex(v) for v in values])


class TestCheckHalving:
    def test_exact_halving_ok(self):
        check_halving(seq_geometric(0.5, 0.5, 10))

    def test_slow_decay_ok(self):
        check_halving(seq_geometric(0.5, 0.6, 60))

    def test_drop_below_half(self):
        with pytest.raises(HypothesisViolated, match=r"^at index 0:"):
            check_halving(seq_explicit(0.5, 0.2))

    def test_fast_geometric_fails(self):
        with pytest.raises(HypothesisViolated, match=r"^at index 0:"):
            check_halving(seq_geometric(0.5, 0.4, 5))

    def test_zero_point(self):
        with pytest.raises(HypothesisViolated, match=r"^at index 1:"):
            check_halving(seq_explicit(0.3, 0.0))

    def test_duplicate_point(self):
        with pytest.raises(HypothesisViolated, match=r"^at index 1:"):
            check_halving(seq_explicit(0.3, 0.3))

    def test_no_overall_decrease(self):
        with pytest.raises(HypothesisViolated, match=r"^at index 1:"):
            check_halving(seq_explicit(0.3, 0.4))

    def test_single_point_ok(self):
        check_halving(seq_explicit(0.3))


class TestConstants:
    def test_delta_half(self):
        c = constants(seq_geometric(0.5, 0.5, 10))
        assert c.delta == 0.5
        assert c.c == 0.0383111056984657
        assert c.c == c.branch_5log2
        assert c.branch_log4delta > c.branch_5log2

    def test_delta_small(self):
        c = constants(seq_geometric(0.01, 0.5, 10))
        assert abs(c.c - 0.030078868662642328) <= 1e-15
        assert c.c == c.branch_log4delta
        assert c.branch_log4delta < c.branch_5log2

    def test_branch_crossover_at_eighth(self):
        c = constants(seq_geometric(0.125, 0.5, 10))
        assert abs(c.branch_log4delta - c.branch_5log2) <= 1e-12

    def test_case_constants(self):
        # c is at most 1/(2 sqrt 2 (kappa + 5 ln 2)), below the CircleNearest
        # ceiling 1/(2 sqrt 2 kappa) and the deep-case ceiling 2 sqrt 2/(kappa + 2 ln 6)
        c = constants(seq_geometric(0.5, 0.5, 10))
        assert c.c <= 1.0 / (TWO_ROOT_TWO * KAPPA)
        assert c.c <= TWO_ROOT_TWO / (KAPPA + 2.0 * math.log(6.0))

    def test_rejects_bad_sequence(self):
        with pytest.raises(HypothesisViolated):
            constants(seq_explicit(0.5, 0.2))

    def test_monotone_in_delta(self):
        # below the crossover c grows with delta; above it the 5 log 2 branch pins it
        lows = [1e-4 * (0.125 / 1e-4) ** (i / 24.0) for i in range(25)]
        vals = [constants(seq_geometric(d, 0.5, 5)).c for d in lows]
        for a, b in zip(vals, vals[1:]):
            assert b >= a
        flat = constants(seq_geometric(0.5, 0.5, 5)).branch_5log2
        for d in (0.125, 0.2, 0.4, 0.7, 0.9):
            assert constants(seq_geometric(d, 0.5, 5)).c == flat

    @pytest.mark.parametrize("delta", [5e-324, 1e-310, 2.0**-1022])
    def test_rejects_delta_where_four_over_delta_overflows(self, delta):
        with pytest.raises(HypothesisViolated, match="^at index 0: "):
            constants(seq_explicit(delta))
        # the index names the largest point, wherever it sits
        with pytest.raises(HypothesisViolated, match="^at index 1: "):
            constants(seq_explicit(0.8 * delta, delta, 0.6 * delta))

    def test_smallest_working_delta(self):
        spec = DomainSpec.build([], seq_explicit(2.0**-1021))
        consts = constants(spec.sequence)
        assert 0.0 < consts.c == consts.branch_log4delta
        cert = build_certificate(spec, consts, complex(0.3, 0.1))
        assert cert.case_tag is CaseTag.FAR_FROM_E
        assert verify_certificate(spec, consts, cert)

    def test_validate_reports_overflowing_delta(self, tmp_path, capsys):
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": [[5e-324, 0]]}}
        assert main(["validate", write_spec(tmp_path, obj)]) == 1
        assert capsys.readouterr().out.startswith("halving check: FAIL at index 0: delta = ")


class TestDyadicWitness:
    def test_exact_dyadic(self):
        assert dyadic_witness(seq_geometric(0.5, 0.5, 60), 3) == 3

    def test_slow_sequence(self):
        assert dyadic_witness(seq_geometric(0.5, 0.6, 60), 1) == 2

    def test_top_annulus(self):
        seq = seq_explicit(0.4, 0.5, 0.3)
        k = dyadic_witness(seq, 0)
        assert 0.25 < abs(seq.resolved_points[k]) <= 0.5

    def test_truncation(self):
        seq = seq_geometric(0.5, 0.5, 5)
        assert dyadic_witness(seq, 4) == 4
        with pytest.raises(TruncationExceeded):
            dyadic_witness(seq, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dyadic_witness(seq_geometric(0.5, 0.5, 5), -1)


class TestAnnulusIndex:
    @pytest.mark.parametrize("delta,r", [
        (0.5, 0.5), (0.5, 0.25), (0.5, 0.2500000001), (0.3, 1e-9),
        (0.5, 1e-310), (0.5, 5e-324), (0.9, 5e-324), (2.0**-1021, 5e-324),
        # log2 puts this just above 2^-5 at n = 4; the downward fix-up gives 3
        (0.5, 0.03125000000000001),
    ])
    def test_defining_inequalities(self, delta, r):
        # delta / r overflows for the subnormal radii
        n = _annulus_index(delta, r)
        assert n >= 0
        assert delta * 2.0 ** -(n + 1) < r <= delta * 2.0 ** -n

    def test_smallest_subnormal(self):
        assert _annulus_index(0.5, 5e-324) == 1073


class TestLowerBound:
    def test_values(self):
        c = constants(seq_geometric(0.5, 0.5, 10))
        assert lower_bound(c, 0.5 + 0j) == c.c / 0.5
        assert lower_bound(c, 1j) == c.c

    def test_depends_on_modulus_only(self):
        c = constants(seq_geometric(0.5, 0.5, 10))
        assert abs(lower_bound(c, 0.3j) - lower_bound(c, -0.3 + 0j)) <= 1e-16

    def test_zero_rejected(self):
        c = constants(seq_geometric(0.5, 0.5, 10))
        with pytest.raises(ZeroArgument):
            lower_bound(c, 0j)


@pytest.fixture(scope="module")
def std():
    spec = battery_domain(0.5, 0.5)
    return spec, constants(spec.sequence)


class TestCertificateCases:
    @pytest.mark.parametrize("z", [0.95 + 0j, 0.3j, 0.3 + 0.01j, 0.001 + 0.0005j])
    def test_reuses_nb_of_its_point_only(self, std, z):
        spec, consts = std
        nb = nearest_boundary(spec, z)
        assert build_certificate(spec, consts, z, nb=nb) == build_certificate(spec, consts, z)
        with pytest.raises(ValueError, match="nearest-boundary result for"):
            build_certificate(spec, consts, z * (1.0 + 1e-9), nb=nb)

    def test_circle_nearest(self, std):
        spec, consts = std
        cert = build_certificate(spec, consts, 0.95 + 0j)
        assert cert.case_tag is CaseTag.CIRCLE_NEAREST
        assert cert.zeta == 1.0 + 0j
        assert cert.log_ratio <= 1e-12
        assert cert.case_log_cap == math.log(2.0)
        ref = 1.0 / (TWO_ROOT_TWO * 0.05 * KAPPA)
        assert abs(cert.implied_lower - ref) <= 1e-12 * ref
        assert verify_certificate(spec, consts, cert)

    def test_far_from_obstacles(self, std):
        spec, consts = std
        cert = build_certificate(spec, consts, 0.3j)
        assert cert.case_tag is CaseTag.FAR_FROM_E
        assert cert.zeta == 0j
        assert cert.b == 0.5 + 0j
        assert abs(cert.log_ratio - 0.5108256237659907) <= 1e-12
        assert abs(cert.case_log_cap - math.log(8.0)) <= 1e-12
        assert verify_certificate(spec, consts, cert)

    def test_far_from_obstacles_off_axis_partner(self):
        # the partner is the largest sequence point itself, not a rounded
        # copy of it (rect(|a_0|, arg a_0) is 0.21000000000000002+0.17j)
        a0 = 0.21 + 0.17j
        spec = DomainSpec.build([], SequenceSpec.explicit(a0 * 0.6**n for n in range(60)))
        consts = constants(spec.sequence)
        cert = build_certificate(spec, consts, -0.4 * a0 / abs(a0))
        assert cert.case_tag is CaseTag.FAR_FROM_E
        assert cert.zeta == 0j
        assert cert.b == a0
        assert verify_certificate(spec, consts, cert)

    def test_mid_range(self, std):
        spec, consts = std
        cert = build_certificate(spec, consts, complex(0.5, 0.1))
        assert cert.case_tag is CaseTag.MID_RANGE
        assert cert.zeta == 0.5 + 0j
        assert cert.b == 0j
        assert abs(cert.log_ratio - math.log(5.0)) <= 1e-12
        assert abs(cert.case_log_cap - math.log(20.0)) <= 1e-12
        assert verify_certificate(spec, consts, cert)

    def test_deep_small_gap(self, std):
        spec, consts = std
        a20 = 0.5 * 0.5**20
        z = complex(a20, 0.05 * a20)
        cert = build_certificate(spec, consts, z)
        assert cert.case_tag is CaseTag.DEEP_SMALL_GAP
        assert cert.zeta == complex(a20, 0)
        assert cert.b == complex(0.5 * 0.5**22, 0)
        assert abs(cert.log_ratio - math.log(15.0)) <= 1e-9
        want_cap = math.log(4.5) + math.log(abs(z) / abs(z - cert.zeta))
        assert abs(cert.case_log_cap - want_cap) <= 1e-12
        assert cert.log_ratio <= cert.case_log_cap + 1e-9
        assert verify_certificate(spec, consts, cert)

    def test_deep_comparable_origin_partner(self, std):
        spec, consts = std
        a20 = 0.5 * 0.5**20
        cert = build_certificate(spec, consts, complex(0.75 * a20, 0))
        assert cert.case_tag is CaseTag.DEEP_COMPARABLE
        assert cert.zeta == complex(0.5 * a20, 0)
        assert cert.b == 0j
        assert abs(cert.log_ratio - math.log(2.0)) <= 1e-12
        assert cert.case_log_cap == math.log(32.0)
        assert verify_certificate(spec, consts, cert)

    def test_deep_comparable_arc_partner(self, std):
        spec, consts = std
        z = complex(0, 0.3 * 0.5**10)
        cert = build_certificate(spec, consts, z)
        assert cert.case_tag is CaseTag.DEEP_COMPARABLE
        assert cert.zeta == 0j
        assert cert.b == complex(0.5 * 0.5**10, 0)
        assert abs(cert.log_ratio - abs(math.log(0.6))) <= 1e-12
        assert verify_certificate(spec, consts, cert)

    def test_truncation_surfaces(self):
        spec = battery_domain(0.5, 0.5, count=5)
        consts = constants(spec.sequence)
        a4 = 0.5 * 0.5**4
        with pytest.raises(TruncationExceeded):
            build_certificate(spec, consts, complex(a4, 0.05 * a4))

    def test_rejects_outside_domain(self, std):
        spec, consts = std
        with pytest.raises(NotInDomain):
            build_certificate(spec, consts, 0.25 + 0j)
        with pytest.raises(NotInDomain):
            build_certificate(spec, consts, 2.0 + 0j)

    def test_rejects_sequence_free_domain(self, std):
        _, consts = std
        bare = DomainSpec.bare(include_origin=True)
        with pytest.raises(HypothesisViolated):
            build_certificate(bare, consts, 0.5j)


class TestVerifyCertificate:
    @pytest.fixture()
    def good(self, std):
        spec, consts = std
        return build_certificate(spec, consts, complex(0.5, 0.1))

    def test_round_trip_is_true(self, std, good):
        spec, consts = std
        assert verify_certificate(spec, consts, good)

    def test_detects_b_off_boundary(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, b=good.b + 0.05)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_b_equal_zeta(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, b=good.zeta)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_log_ratio_tamper(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, log_ratio=good.log_ratio + 1e-3)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_cap_tamper(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, case_log_cap=good.case_log_cap + 0.5)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_case_tamper(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, case_tag=CaseTag.CIRCLE_NEAREST)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_implied_tamper(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, implied_lower=good.implied_lower * 2.0)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_z_outside(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, z=2.0 + 0j)
        assert not verify_certificate(spec, consts, bad)

    def test_detects_zeta_not_nearest(self, std, good):
        spec, consts = std
        bad = dataclasses.replace(good, zeta=0.25 + 0j)
        assert not verify_certificate(spec, consts, bad)

    @pytest.mark.parametrize("tag", [CaseTag.MID_RANGE, CaseTag.FAR_FROM_E, CaseTag.DEEP_COMPARABLE])
    def test_detects_zeta_off_boundary(self, std, tag):
        # rotating zeta about z keeps |z - zeta| = d but takes zeta off the boundary
        spec, consts = std
        cert = build_certificate(spec, consts, CASE_POINTS[tag])
        zeta = cert.z + (cert.zeta - cert.z) * cmath.rect(1.0, 1e-3)
        assert not verify_certificate(spec, consts, dataclasses.replace(cert, zeta=zeta))

    def test_detects_zeta_one_ulp_off_a_witness(self):
        # zeta = 0 is the one exactly nearest witness among 369 points within
        # relative 1e-9 of d; one ulp away it passes every tolerance, yet it
        # is not a witness
        spec, consts = bench_domain("dense.json")
        cert = build_certificate(spec, consts, complex(-0.05, -0.3))
        assert cert.zeta == 0 and verify_certificate(spec, consts, cert)
        bad = dataclasses.replace(cert, zeta=complex(math.nextafter(0.0, 1.0), 0.0))
        assert not verify_certificate(spec, consts, bad)

    def test_rejects_zeta_at_z(self):
        # next to a disk narrower than an ulp of z the nearest witness rounds
        # onto z itself; z counts as not in G, and the verifier rejects
        # rather than taking log(0)
        spec = DomainSpec.build([ObstacleDisk(0.5 + 0j, 1e-16)], seq_geometric(0.25, 0.5, 40))
        z = complex(math.nextafter(0.5, 1.0), 0.0)
        with pytest.raises(NotInDomain):
            nearest_boundary(spec, z)
        cert = Certificate(CaseTag.MID_RANGE, z, z, 0j, 0.0, 0.0, 1.0)
        assert not verify_certificate(spec, constants(spec.sequence), cert)


A20 = 0.5 * 0.5**20
# on the battery domain of delta 1/2, ratio 1/2
CASE_POINTS = {
    CaseTag.CIRCLE_NEAREST: 0.95 + 0j,
    CaseTag.FAR_FROM_E: 0.3j,
    CaseTag.MID_RANGE: complex(0.5, 0.1),
    CaseTag.DEEP_SMALL_GAP: complex(A20, 0.05 * A20),
    CaseTag.DEEP_COMPARABLE: complex(0.75 * A20, 0),
}


class TestCaseSplit:
    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_relabelled_certificate_is_rejected(self, std, tag):
        # every other tag, with its own cap, passes the inequality checks of
        # some case; only the replayed case split tells them apart
        spec, consts = std
        cert = build_certificate(spec, consts, CASE_POINTS[tag])
        assert cert.case_tag is tag
        assert verify_certificate(spec, consts, cert)
        for other in CaseTag:
            if other is not tag:
                cap = _case_cap(other, cert.z, cert.zeta, consts.delta)
                bad = dataclasses.replace(cert, case_tag=other, case_log_cap=cap)
                assert not verify_certificate(spec, consts, bad), other


class TestToleranceOverride:
    def test_loosened_tolerance_changes_verdict(self, std, monkeypatch):
        # the slack is the constant 1e-9: the HYPBOUND_TOL variable, which
        # once overrode it, has no effect
        spec, consts = std
        cert = build_certificate(spec, consts, complex(0.5, 0.1))
        nudged = dataclasses.replace(cert, log_ratio=cert.log_ratio + 5e-4)
        monkeypatch.setenv("HYPBOUND_TOL", "1e-3")
        assert verify_certificate(spec, consts, cert)
        assert not verify_certificate(spec, consts, nudged)


class TestSerialization:
    def test_json_round_trip(self, std):
        spec, consts = std
        cert = build_certificate(spec, consts, 0.3j)
        wire = json.loads(json.dumps(certificate_to_dict(cert, consts)))
        back, c = certificate_from_dict(wire)
        assert back == cert
        assert c == consts.c
        assert verify_certificate(spec, consts, back)

    def test_dict_shape(self, std):
        spec, consts = std
        obj = certificate_to_dict(build_certificate(spec, consts, 0.3j), consts)
        assert obj["case"] == "FarFromE"
        assert obj["z"] == [0.0, 0.3]
        assert set(obj) == {"case", "z", "zeta", "b", "log_ratio", "case_log_cap", "implied_lower", "c"}

    def test_rejects_malformed(self):
        with pytest.raises((KeyError, ValueError)):
            certificate_from_dict({"case": "FarFromE"})
        with pytest.raises(ValueError, match="field 'z' must be"):
            certificate_from_dict({"case": "FarFromE", "z": [0.3]})
        with pytest.raises(ValueError):
            certificate_from_dict(
                {
                    "case": "NoSuchCase",
                    "z": [0, 0.3],
                    "zeta": [0, 0],
                    "b": [0.5, 0],
                    "log_ratio": 0.5,
                    "case_log_cap": 2.0,
                    "implied_lower": 0.2,
                    "c": 0.038,
                }
            )


def dispatch_conditions_hold(cert, delta: float) -> bool:
    """The recorded case must be consistent with the dispatch conditions."""
    gap = abs(cert.z - cert.zeta)
    slack = 1.0 + 1e-12
    if cert.case_tag is CaseTag.CIRCLE_NEAREST:
        return abs(abs(cert.zeta) - 1.0) <= 1e-12
    if cert.case_tag is CaseTag.FAR_FROM_E:
        return gap * slack >= delta / 2.0
    if cert.case_tag is CaseTag.MID_RANGE:
        return gap <= slack * delta / 2.0 and abs(cert.z) * slack >= delta / 2.0
    if cert.case_tag is CaseTag.DEEP_SMALL_GAP:
        return gap <= slack * abs(cert.z) / 8.0 and abs(cert.z) <= slack * delta / 2.0
    return (
        gap * slack >= abs(cert.z) / 8.0
        and gap <= slack * delta / 2.0
        and abs(cert.z) <= slack * delta / 2.0
    )


class TestCertificateProperties:
    def test_builder_never_falls_through(self, std):
        spec, consts = std
        seen = set()
        for i, z in enumerate(sample_domain_points(spec, 4000, 10_000)):
            cert = build_certificate(spec, consts, z)
            seen.add(cert.case_tag)
            assert dispatch_conditions_hold(cert, consts.delta)
            if i < 1000:
                assert verify_certificate(spec, consts, cert)
        assert {CaseTag.CIRCLE_NEAREST, CaseTag.FAR_FROM_E, CaseTag.MID_RANGE}.issubset(seen)
        assert CaseTag.DEEP_COMPARABLE in seen

    @pytest.mark.parametrize("delta,ratio", [(0.5, 0.5), (0.25, 0.7), (0.05, 0.9)])
    def test_chain_inequality(self, delta, ratio):
        spec = battery_domain(delta, ratio)
        consts = constants(spec.sequence)
        floor = min(abs(p) for p in spec.sequence.resolved_points)
        rng_base = int(1e6 * delta)
        for i, z in enumerate(sample_domain_points(spec, rng_base, 400, 10.0 * floor)):
            cert = build_certificate(spec, consts, z)
            gap = abs(z - cert.zeta)
            assert TWO_ROOT_TWO * consts.c * (KAPPA + cert.log_ratio) <= abs(z) / gap + 1e-9
            assert cert.log_ratio <= cert.case_log_cap + 1e-9
            assert cert.implied_lower >= consts.c / abs(z) - 1e-12
            if i % 4 == 0:
                assert verify_certificate(spec, consts, cert)
                assert bp_bounds(spec, z).lower >= lower_bound(consts, z) - 1e-15

    def test_deep_points_near_sequence(self, std):
        # force the hugging case at several depths and check the cap margin
        spec, consts = std
        rng = random.Random(99)
        for n in (5, 12, 25, 40):
            a_n = 0.5 * 0.5**n
            for _ in range(20):
                off = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                z = a_n * (1 + off)
                if abs(z - a_n) == 0.0:
                    continue
                cert = build_certificate(spec, consts, z)
                assert cert.log_ratio <= cert.case_log_cap + 1e-9
                assert verify_certificate(spec, consts, cert)


@pytest.mark.parametrize("name", ["demo.json", "spiral.json"])
@given(theta=st.floats(-math.pi, math.pi), depth=st.floats(6.0, 16.0))
@settings(max_examples=150, deadline=None)
def test_points_near_the_unit_circle_certify(name, theta, depth):
    # 1 - |z| from 1e-16 to 1e-6: the chord partner b cannot make the log
    # ratio exactly 0 there, so the CircleNearest cap must leave room
    spec, consts = bench_domain(name)
    z = cmath.rect(1.0 - 10.0**-depth, theta)
    assume(contains(spec, z) is Membership.IN_G)
    cert = build_certificate(spec, consts, z)
    assert verify_certificate(spec, consts, cert)


class TestInvariantsUnderOptimize:
    def test_broken_cap_raises_certificate_error(self):
        # under -O every assert is stripped; build_certificate's own inequality
        # checks must still fire when the case cap is broken
        code = (
            "import hypbound.halving as h\n"
            "from hypbound import DomainSpec, SequenceSpec, constants\n"
            "spec = DomainSpec.build([], SequenceSpec.geometric(0.5, 0.5, 60))\n"
            "h._case_cap = lambda *args: -1.0\n"
            "try:\n"
            "    h.build_certificate(spec, constants(spec.sequence), 0.3j)\n"
            "except h.CertificateError:\n"
            "    print(__debug__, 'CertificateError')\n"
        )
        src = str(Path(hypbound.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False CertificateError"

    def test_nb_for_another_point_raises(self):
        code = (
            "from hypbound import DomainSpec, SequenceSpec, bp_bounds, build_certificate, constants, nearest_boundary\n"
            "spec = DomainSpec.build([], SequenceSpec.geometric(0.5, 0.5, 60))\n"
            "nb = nearest_boundary(spec, 0.3j)\n"
            "for call in (lambda: bp_bounds(spec, 0.31j, nb=nb),\n"
            "             lambda: build_certificate(spec, constants(spec.sequence), 0.31j, nb=nb)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError:\n"
            "        print(__debug__, 'ValueError')\n"
        )
        src = str(Path(hypbound.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "ValueError"] * 2
