"""Acceptance battery: every shipped guarantee exercised end to end at its
stated tolerance. One test per item; each prints a single verdict line
(visible with -s, and on any failure)."""

import cmath
import contextlib
import csv
import math
import random

import numpy as np

from hypbound import (
    CaseTag,
    Membership,
    SequenceSpec,
    bp_bounds,
    build_certificate,
    constants,
    contains,
    dyadic_witness,
    nearest_boundary,
    verify_certificate,
)
from hypbound.bp import KAPPA
from hypbound.cli import main, sample_domain_points, slit_audit_row

from conftest import (
    battery_domain,
    battery_json,
    boundary_points,
    linear_distance_set,
    mixed_domain,
    primitive_samples,
    rotate_domain,
    write_spec,
)

BATTERY = [(d, q) for d in (0.5, 0.25, 0.05) for q in (0.5, 0.7, 0.9)]


@contextlib.contextmanager
def verdict(n):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    print(f"ACCEPTANCE {n}: PASS")


def _two_point_seq(delta):
    return SequenceSpec.explicit([complex(delta, 0.0), complex(delta / 2.0, 0.0)])


def test_criterion_1_constants():
    with verdict(1):
        assert abs(KAPPA - 5.7627) <= 1e-4
        combo = 1.0 / (2.0 * math.sqrt(2.0) * (KAPPA + 5.0 * math.log(2.0)))
        assert abs(combo - 0.03831) <= 1e-5
        # the two branches of the certified constant swap exactly at delta = 1/8
        lo, hi = 0.05, 0.2
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            c = constants(_two_point_seq(mid))
            if c.branch_log4delta < c.branch_5log2:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 0.125) <= 1e-12
        at_cross = constants(_two_point_seq(0.125))
        assert abs(at_cross.branch_log4delta - at_cross.branch_5log2) <= 1e-12


def test_criterion_2_oracle_sandwich(capsys):
    with verdict(2):
        assert main(["oracle-check", "--kind", "punctured", "--n", "200", "--seed", "1"]) == 0
        assert main(["oracle-check", "--kind", "disk", "--n", "200", "--seed", "2"]) == 0


def test_criterion_3_lower_bound_chain(tmp_path, capsys):
    with verdict(3):
        for delta, ratio in BATTERY:
            spec_path = write_spec(
                tmp_path, battery_json(delta, ratio), name=f"d{delta}_q{ratio}.json"
            )
            out = tmp_path / f"rows_{delta}_{ratio}.csv"
            code = main(["sweep", spec_path, "--n", "1000", "--seed", "7", "--out", str(out)])
            assert code == 0
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1001
            for row in rows[1:]:
                assert row[10] == "true"
                assert float(row[5]) >= float(row[7])


def test_criterion_4_certificates():
    with verdict(4):
        deep_cap = math.log(32.0)
        observed = 0.0
        for di, (delta, ratio) in enumerate(BATTERY):
            spec = battery_domain(delta, ratio)
            consts = constants(spec.sequence)
            r_min = 10.0 * delta * ratio**59
            for z in sample_domain_points(spec, 600 + 37 * di, 300, r_min):
                cert = build_certificate(spec, consts, z)
                assert verify_certificate(spec, consts, cert)
                assert cert.log_ratio <= cert.case_log_cap + 1e-9
                if cert.case_tag is CaseTag.DEEP_COMPARABLE:
                    observed = max(observed, cert.log_ratio)
        print(
            f"  deep comparable-scale log_ratio: observed max {observed:.6f} "
            f"vs cap ln 32 = {deep_cap:.6f}"
        )
        assert observed <= deep_cap + 1e-9


def test_criterion_5_dyadic_annulus_witness():
    with verdict(5):
        delta = 0.5
        for j in range(10):
            q = 0.5 + 0.05 * j
            count = math.ceil(41.0 * math.log(2.0) / math.log(1.0 / q)) + 2
            seq = SequenceSpec.geometric(delta, q, count)
            mags = [abs(p) for p in seq.resolved_points]
            for n in range(41):
                k = dyadic_witness(seq, n)
                hi = delta * 2.0 ** (-n)
                lo = delta * 2.0 ** (-(n + 1))
                assert lo < mags[k] <= hi
                assert all(not (lo < m <= hi) for m in mags[:k])


def test_criterion_6_slit_scaling(tmp_path, capsys):
    with verdict(6):
        deltas = (0.2, 0.1, 0.01, 0.001)
        rows = [slit_audit_row(d) for d in deltas]
        products = []
        for row in rows:
            expected_L = min(
                math.log((0.5 - row.delta) / row.delta),
                math.log((1.0 - row.delta) / (0.5 - row.delta)),
            )
            assert abs(row.L_literal - expected_L) <= 1e-9
            product = row.c_ceiling_paper * math.log(1.0 / row.delta)
            assert product <= (KAPPA + math.pi / 4.0) / (1.0 - 2.0 * row.delta) + 1e-9
            products.append(product)
        assert abs(rows[0].L_literal - rows[0].L_paper) <= 1e-12
        assert max(products) <= 11.0
        out = tmp_path / "slit.csv"
        code = main(["slit-audit", "--deltas", "0.2,0.1,0.01,0.001", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "L_paper and L_literal equal" in text
        assert "L_paper and L_literal differ" in text


def test_criterion_7_property_suites(tmp_path):
    with verdict(7):
        spec = mixed_domain()
        rng = random.Random(77)

        def draw():
            while True:
                z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                if abs(z) < 1.0:
                    return z

        interior = []
        while len(interior) < 40:
            z = draw()
            if contains(spec, z) is Membership.IN_G:
                interior.append(z)

        for theta in (0.7, 2.4):
            rspec = rotate_domain(spec, theta)
            rot = cmath.rect(1.0, theta)
            for z in interior:
                a = bp_bounds(spec, z)
                b = bp_bounds(rspec, z * rot)
                assert abs(a.d - b.d) <= 1e-12 * max(1.0, a.d)
                assert abs(a.L - b.L) <= 1e-12 * max(1.0, a.L)
                assert abs(a.lower - b.lower) <= 1e-12 * a.lower
                assert abs(a.upper - b.upper) <= 1e-12 * a.upper
            for _ in range(200):
                z = draw()
                assert contains(spec, z) is contains(rspec, z * rot)

        # 40k nodes per curve keep the worst sampling gap (a V-shaped minimum
        # at a base point between circle nodes) below the 1e-4 tolerance
        for a in boundary_points(spec, 20, seed=29):
            ds = linear_distance_set(spec, a)
            for prim, (lo, hi) in zip(spec.primitives, ds):
                dists = np.abs(primitive_samples(prim, 40_000) - a)
                smin, smax = float(dists.min()), float(dists.max())
                assert lo - 1e-9 <= smin and smax <= hi + 1e-9
                assert smin - lo <= 1e-4
                assert hi - smax <= 1e-4

        spec_path = write_spec(tmp_path, battery_json(0.25, 0.7))
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(["sweep", spec_path, "--n", "200", "--seed", "9", "--out", str(serial)]) == 0
        assert (
            main(["sweep", spec_path, "--n", "200", "--seed", "9", "--jobs", "4", "--out", str(threaded)])
            == 0
        )
        assert serial.read_bytes() == threaded.read_bytes()

        for _ in range(500):
            z = draw()
            if contains(spec, z) is not Membership.IN_G:
                continue
            nb = nearest_boundary(spec, z)
            assert nb.witnesses
            for idx, w in nb.witnesses:
                assert spec.primitives[idx].boundary_distance(w) <= 1e-12
                assert nb.d * (1.0 - 1e-12) <= abs(z - w) <= nb.d * (1.0 + 2e-9)
            for prim in spec.primitives:
                assert nb.d <= prim.set_distance(z) + 1e-12
