"""Command line harness: exit codes, CSV schema and determinism, per-row
re-checkability, the slit audit, and the oracle sandwich commands."""

import csv
import json
import math
import subprocess
import sys

import pytest

from hypbound import DomainSpec, SequenceSpec, bp, constants, geometry, halving, load_domain, lower_bound, oracles
from hypbound.cli import (
    CSV_HEADER,
    EXIT_CODES,
    SLIT_HEADER,
    BadDelta,
    RejectionStarvation,
    main,
    point_row,
    sample_domain_points,
    slit_audit_row,
)

from conftest import MALFORMED_SPECS, SPECS, battery_domain, battery_json, bench_domain, write_spec

NEG_AXIS_SPEC = {
    "primitives": [],
    "sequence": {
        "type": "explicit",
        "points": [[-0.5 * 0.5**n, 0.0] for n in range(6)],
    },
}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "halving check: ok" in out
        assert "c = 0.0383111056984657" in out
        assert "binding branch = 5 log 2" in out
        assert "warning" not in out

    def test_small_delta_branch(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.01, 0.5))
        assert main(["validate", path]) == 0
        assert "binding branch = log(4/delta)" in capsys.readouterr().out

    def test_hypothesis_failure(self, tmp_path, capsys):
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0], [0.2, 0]]}}
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 1
        assert "index 0" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_structural_error(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(1.5, 0.5))
        assert main(["validate", path]) == 2

    def test_truncation_warning(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5, count=10))
        assert main(["validate", path]) == 0
        assert "truncated" in capsys.readouterr().out

    def test_truncation_warning_reads_smallest_modulus(self, tmp_path, capsys):
        # the last point sits above 1e-10 but an earlier one reaches 2.9e-11
        pts = [[0.5 * 0.5**n, 0.0] for n in range(35)] + [[0.99 * 0.5**33, 0.0]]
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": pts}}
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "halving check: ok" in out
        assert "truncated" not in out

    def test_clearance_warning(self, tmp_path, capsys):
        obj = {
            "primitives": [
                {"type": "disk", "cx": -0.3, "cy": 0.0, "r": 0.1},
                {"type": "disk", "cx": -0.1, "cy": 0.0, "r": 0.0999999},
            ],
            "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
        }
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 0
        assert "nearly touch" in capsys.readouterr().out

    @pytest.mark.parametrize("segments", [
        # T-junction, collinear overlap
        [[0.1, 0.1, 0.5, 0.3], [0.22, 0.16, 0.12, 0.36]],
        [[0.1, 0.1, 0.3, 0.2], [0.2, 0.15, 0.4, 0.25]],
    ])
    def test_touching_segments_warning(self, segments, tmp_path, capsys):
        obj = {
            "primitives": [
                {"type": "segment", "x1": x1, "y1": y1, "x2": x2, "y2": y2}
                for x1, y1, x2, y2 in segments
            ],
            "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
        }
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 0
        assert "primitives 0 and 1 nearly touch" in capsys.readouterr().out

    def test_unit_circle_warning(self, tmp_path, capsys):
        # a disk and a segment reaching within 5e-7 of the circle, and a
        # control disk 2e-6 away
        obj = {
            "primitives": [
                {"type": "disk", "cx": 0.9, "cy": 0.0, "r": 0.0999995},
                {"type": "segment", "x1": -0.5, "y1": 0.0, "x2": -0.9999995, "y2": 0.0},
                {"type": "disk", "cx": 0.0, "cy": -0.9, "r": 0.099998},
            ],
            "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
        }
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "primitive 0 nearly touches the unit circle" in out
        assert "primitive 1 nearly touches the unit circle" in out
        assert "primitive 2 nearly" not in out
        assert "nearly touch;" not in out

    def test_origin_inside_disk_warning(self, tmp_path, capsys):
        obj = {
            "primitives": [{"type": "disk", "cx": 0.05, "cy": 0.0, "r": 0.2}],
            "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
        }
        path = write_spec(tmp_path, obj)
        assert main(["validate", path]) == 0
        assert "origin" in capsys.readouterr().out


class TestBounds:
    def test_reference_values(self, tmp_path, capsys):
        # obstacle sequence on the negative axis leaves z = 0.5 exactly
        # equidistant from the origin and the circle, with no log penalty
        path = write_spec(tmp_path, NEG_AXIS_SPEC)
        assert main(["bounds", path, "--z", "0.5,0"]) == 0
        out = capsys.readouterr().out
        assert "d = 0.5" in out
        assert "L = 0" in out
        assert "bp_lower = 0.12270307196054536" in out
        assert "bp_upper = 2.2725776924365628" in out
        assert "case = CircleNearest" in out
        assert "chain_ok = true" in out

    def test_csv_mode(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["bounds", path, "--csv", "--z", "0,0.3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert len(row) == 11
        assert float(row[2]) == 0.3
        assert row[8] == ""
        assert row[9] == "FarFromE"
        assert row[10] == "true"

    def test_boundary_point_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["bounds", path, "--z", "0,0"]) == 1
        assert main(["bounds", path, "--z", "1,0"]) == 1

    def test_bad_z_syntax(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["bounds", path, "--z", "0.5"]) == 2

    def test_hypothesis_failure(self, tmp_path, capsys):
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0], [0.2, 0]]}}
        path = write_spec(tmp_path, obj)
        assert main(["bounds", path, "--z", "0,0.3"]) == 1


class TestPointRow:
    @pytest.mark.parametrize("z", [0.95 + 0j, 0.3j, 0.3 + 0.01j, 0.001 + 0.0005j, 0.0031 + 0.0002j])
    def test_two_nearest_boundary_passes(self, monkeypatch, z):
        # one pass shared by the bounds and the certificate, one of the verifier's own
        spec = DomainSpec.build([], SequenceSpec.geometric(0.5, 0.5, 60))
        consts = constants(spec.sequence)
        expected = point_row(spec, consts, z)
        calls = []
        original = geometry.nearest_boundary

        def counted(spec, z):
            calls.append(z)
            return original(spec, z)

        for module in (geometry, bp, halving):
            monkeypatch.setattr(module, "nearest_boundary", counted)
        assert point_row(spec, consts, z) == expected
        assert calls == [z, z]

    @pytest.mark.parametrize("name", ["dense.json", "demo.json"])
    def test_one_boundary_gap_scan_per_row(self, monkeypatch, name):
        # the verifier's check of b; distance_set reads its base off the
        # witness rule that nearest_boundary has applied
        spec, consts = bench_domain(name)
        calls = []
        original = geometry.boundary_gap

        def counted(spec, z):
            calls.append(z)
            return original(spec, z)

        for module in (geometry, halving):
            monkeypatch.setattr(module, "boundary_gap", counted)
        for z in sample_domain_points(spec, 5, 40, 10.0 * spec.sequence.floor):
            calls.clear()
            point_row(spec, consts, z)
            assert len(calls) == 1


class TestCertify:
    def test_round_trip(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["certify", path, "--z", "0,0.3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["case"] == "FarFromE"
        assert obj["z"] == [0.0, 0.3]
        assert obj["c"] == 0.0383111056984657

    def test_boundary_rejected(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5))
        assert main(["certify", path, "--z", "0.5,0"]) == 1

    def test_truncation_reported(self, tmp_path, capsys):
        path = write_spec(tmp_path, battery_json(0.5, 0.5, count=5))
        a4 = 0.5 * 0.5**4
        assert main(["certify", path, "--z", f"{a4},{0.05 * a4}"]) == 1
        assert "truncation" in capsys.readouterr().err


class TestSweep:
    def test_basic_run(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        out = tmp_path / "rows.csv"
        assert main(["sweep", spec_path, "--n", "25", "--seed", "7", "--out", str(out)]) == 0
        rows = read_csv(str(out))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 26
        for row in rows[1:]:
            assert len(row) == 11
            assert row[8] == ""
            assert row[10] == "true"

    def test_rows_recomputable(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        out = tmp_path / "rows.csv"
        assert main(["sweep", spec_path, "--n", "25", "--seed", "3", "--out", str(out)]) == 0
        spec = load_domain(spec_path)
        consts = constants(spec.sequence)
        for row in read_csv(str(out))[1:]:
            z = complex(float(row[0]), float(row[1]))
            r = bp.bp_bounds(spec, z)
            assert abs(float(row[2]) - abs(z)) <= 1e-12
            assert abs(float(row[3]) - r.d) <= 1e-12 * max(1.0, r.d)
            assert abs(float(row[4]) - r.L) <= 1e-12 * max(1.0, r.L)
            assert abs(float(row[5]) - r.lower) <= 1e-12 * r.lower
            assert abs(float(row[6]) - r.upper) <= 1e-12 * r.upper
            thm1 = lower_bound(consts, z)
            assert abs(float(row[7]) - thm1) <= 1e-12 * thm1

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        out = tmp_path / "rows.csv"
        assert main(["sweep", spec_path, "--n", "10", "--seed", "11", "--out", str(out)]) == 0
        spec = load_domain(spec_path)
        for row, z in zip(read_csv(str(out))[1:], sample_domain_points(spec, 11, 10), strict=True):
            assert float(row[0]) == z.real
            assert float(row[1]) == z.imag

    def test_adjacent_seeds_share_no_point(self):
        # with a stream per seed + i, seed 8's row 1 would be seed 7's row 2
        spec = battery_domain(0.5, 0.5)
        seven, eight = (set(sample_domain_points(spec, seed, 50)) for seed in (7, 8))
        assert not seven & eight

    def test_empty_sweep(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        out = tmp_path / "rows.csv"
        assert main(["sweep", spec_path, "--n", "0", "--out", str(out)]) == 0
        assert read_csv(str(out)) == [CSV_HEADER.split(",")]

    def test_deterministic_across_jobs(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.25, 0.7))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", spec_path, "--n", "64", "--seed", "5", "--out", str(a)]) == 0
        assert main(["sweep", spec_path, "--n", "64", "--seed", "5", "--jobs", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", spec_path, "--n", "8", "--seed", "1", "--out", str(a)]) == 0
        assert main(["sweep", spec_path, "--n", "8", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_guard_band(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.05, 0.9))
        out = tmp_path / "rows.csv"
        assert main(["sweep", spec_path, "--n", "200", "--seed", "13", "--out", str(out)]) == 0
        floor = 0.05 * 0.9**59
        for row in read_csv(str(out))[1:]:
            assert float(row[2]) >= 10.0 * floor

    def test_refuses_bad_hypothesis(self, tmp_path, capsys):
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0], [0.2, 0]]}}
        spec_path = write_spec(tmp_path, obj)
        assert main(["sweep", spec_path, "--n", "5", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_output(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        out = tmp_path / "no-such-dir" / "rows.csv"
        assert main(["sweep", spec_path, "--n", "1", "--out", str(out)]) == 2

    def test_rejection_starvation(self, tmp_path, capsys):
        # a lone obstacle point at |a| just under 0.1 pushes the guard band
        # to nearly the whole disk, so acceptance collapses below 1%
        obj = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.0999999, 0]]}}
        spec_path = write_spec(tmp_path, obj)
        assert main(["sweep", spec_path, "--n", "4", "--out", str(tmp_path / "x.csv")]) == 1
        assert "sampling failure" in capsys.readouterr().err


class TestSlitAudit:
    def test_row_values(self):
        row = slit_audit_row(0.1)
        assert row.d == 0.4
        assert abs(row.L_paper - math.log(4.0)) <= 1e-15
        assert abs(row.L_literal - 0.8109302162163288) <= 1e-12
        assert row.bp_upper_literal > row.bp_upper_paper

    def test_large_delta_agreement(self):
        row = slit_audit_row(0.2)
        assert abs(row.L_paper - math.log(1.5)) <= 1e-15
        assert abs(row.L_literal - row.L_paper) <= 1e-12

    def test_bad_delta(self):
        for bad in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(BadDelta):
                slit_audit_row(bad)

    def test_command_output(self, tmp_path, capsys):
        out = tmp_path / "slit.csv"
        assert main(["slit-audit", "--deltas", "0.2,0.1,0.01,0.001", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sup over grid of c_ceiling_paper" in text
        assert "delta = 0.20000000000000001: L_paper and L_literal equal" in text
        assert "delta = 0.001: L_paper and L_literal differ" in text
        rows = read_csv(str(out))
        assert rows[0] == SLIT_HEADER.split(",")
        assert len(rows) == 5
        for row in rows[1:]:
            assert all(math.isfinite(float(v)) for v in row)

    def test_command_bad_delta(self, tmp_path, capsys):
        assert main(["slit-audit", "--deltas", "0.3", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["slit-audit", "--deltas", "abc", "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["slit-audit", "--deltas", "", "--out", str(tmp_path / "x.csv")]) == 2


class TestOracleCheck:
    def test_punctured(self, capsys):
        assert main(["oracle-check", "--kind", "punctured", "--n", "200", "--seed", "1"]) == 0

    def test_disk(self, capsys):
        assert main(["oracle-check", "--kind", "disk", "--n", "200", "--seed", "2"]) == 0

    def test_empty(self, capsys):
        assert main(["oracle-check", "--kind", "punctured", "--n", "0"]) == 0

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-check", "--kind", "annulus", "--n", "5"])
        assert exc.value.code == 2


def _broken_cap(monkeypatch):
    monkeypatch.setattr(halving, "_case_cap", lambda *args: -1.0)


def _failed_verification(monkeypatch):
    monkeypatch.setattr(halving, "verify_certificate", lambda *args: False)


def _infinite_floor(monkeypatch):
    monkeypatch.setattr(halving, "lower_bound", lambda *args: math.inf)


def _negative_oracle(monkeypatch):
    monkeypatch.setattr(oracles, "oracle_density", lambda *args: -1.0)


HYP_SPEC = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0], [0.2, 0]]}}
STARVED_SPEC = {"primitives": [], "sequence": {"type": "explicit", "points": [[0.0999999, 0]]}}
# the DeepSmallGap ring of radius 1/64 lies inside the disk around the origin
COVERED_RING_SPEC = {
    "primitives": [{"type": "disk", "cx": 0, "cy": 0, "r": 0.05}],
    "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
}
# a disk narrower than an ulp of 0.5, inside G at nextafter(0.5, 1)
ULP_DISK_SPEC = {
    "primitives": [{"type": "disk", "cx": 0.5, "cy": 0, "r": 1e-16}],
    "sequence": {"type": "geometric", "delta": 0.25, "ratio": 0.5, "count": 40},
}
# 4/delta overflows
TINY_DELTA_SPEC = {"primitives": [], "sequence": {"type": "explicit", "points": [[5e-324, 0]]}}
# endpoints 1e-170 apart: the squared length underflows to 0
SHORT_SEGMENT_SPEC = {
    "primitives": [{"type": "segment", "x1": 0.3, "y1": 0.0, "x2": 0.3, "y2": 1e-170}],
    "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
}

# name -> (spec JSON, or raw file bytes, written and passed after the command,
# or None; argv,
# where {tmp} is the test directory; monkeypatch hook; exit code; stderr prefix)
EXIT_CASES = {
    "not-in-domain": (battery_json(0.5, 0.5), ["bounds", "--z=0,0"], None, 1, "not in domain: "),
    "hypothesis": (HYP_SPEC, ["certify", "--z=0,0.3"], None, 1, "hypothesis failure: at index 0: "),
    "truncation": (battery_json(0.5, 0.5, count=4), ["bounds", "--z=0.001,0.0005"], None, 1, "truncation: "),
    # delta / |z| overflows to inf; the annulus index never forms that quotient
    "subnormal-z-bounds": (battery_json(0.5, 0.5), ["bounds", "--z=1e-310,0"], None, 1, "truncation: "),
    "subnormal-z-certify": (battery_json(0.5, 0.5), ["certify", "--z=1e-320,1e-320"], None, 1, "truncation: "),
    # the nearest witness on the disk of radius 1e-16 rounds onto z
    "witness-on-z-bounds": (ULP_DISK_SPEC, ["bounds", "--z=0.5000000000000001,0"], None, 1, "not in domain: "),
    "witness-on-z-certify": (ULP_DISK_SPEC, ["certify", "--z=0.5000000000000001,0"], None, 1, "not in domain: "),
    "tiny-delta": (TINY_DELTA_SPEC, ["certify", "--z=0.3,0.1"], None, 1, "hypothesis failure: at index 0: "),
    "starvation": (STARVED_SPEC, ["sweep", "--n", "4", "--out", "{tmp}/x.csv"], None, 1, "sampling failure: "),
    "certificate-build": (
        battery_json(0.5, 0.5), ["certify", "--z=0,0.3"], _broken_cap, 1, "certificate failure: "
    ),
    "certificate-verify": (
        battery_json(0.5, 0.5), ["bounds", "--z=0,0.3"], _failed_verification, 1, "certificate failure: "
    ),
    "chain-violation": (
        battery_json(0.5, 0.5), ["sweep", "--n", "3", "--out", "{tmp}/x.csv"], _infinite_floor, 1,
        "chain violation: ",
    ),
    "sandwich-violation": (
        None, ["oracle-check", "--kind", "disk", "--n", "3"], _negative_oracle, 1, "sandwich violation at z = "
    ),
    "covered-ring": (COVERED_RING_SPEC, ["certify", "--z=0.0655,0.001"], None, 1, "certificate failure: "),
    "spec": ({"primitives": [], "sequence": {}}, ["validate"], None, 2, "error: "),
    "missing-file": (None, ["validate", "{tmp}/nope.json"], None, 2, "error: "),
    "non-utf8": (b"\xff\xfe{}", ["validate"], None, 2, "error: "),
    "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, ["validate"], None, 2, "error: "),
    # rejected at load, before two million points are built
    "underflowing-sequence": (battery_json(0.5, 0.5, count=2_000_000), ["validate"], None, 2, "error: "),
    "short-segment": (SHORT_SEGMENT_SPEC, ["bounds", "--z=0.35,0.1"], None, 2, "error: "),
    "short-slit": (None, ["slit-audit", "--deltas", "1e-300", "--out", "{tmp}/x.csv"], None, 2, "error: "),
    "bad-delta": (None, ["slit-audit", "--deltas", "0.3", "--out", "{tmp}/x.csv"], None, 2, "error: "),
    "z-nan": (battery_json(0.5, 0.5), ["bounds", "--z=nan,0"], None, 2, "error: "),
    "z-inf": (battery_json(0.5, 0.5), ["certify", "--z=0,-inf"], None, 2, "error: "),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", list(EXIT_CASES))
    def test_table_row(self, name, tmp_path, capsys, monkeypatch):
        obj, argv, patch, code, prefix = EXIT_CASES[name]
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if isinstance(obj, bytes):
            (tmp_path / "spec.json").write_bytes(obj)
            argv.insert(1, str(tmp_path / "spec.json"))
        elif obj is not None:
            argv.insert(1, write_spec(tmp_path, obj))
        if patch is not None:
            patch(monkeypatch)
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1

    def test_cases_cover_the_table(self):
        prefixes = {prefix for _, _, _, _, prefix in EXIT_CASES.values()}
        for _, prefix, code in EXIT_CODES:
            assert any(p.startswith(prefix + ":") for p in prefixes), prefix
        assert {code for _, _, code in EXIT_CODES} == {1, 2}

    @pytest.mark.parametrize("obj", MALFORMED_SPECS)
    def test_malformed_spec(self, obj, tmp_path, capsys):
        assert main(["validate", write_spec(tmp_path, obj)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("z", ["5e-324,0", "-5e-324,0", "0,5e-324", "1e-323,0"])
    @pytest.mark.parametrize("cmd", ["bounds", "certify"])
    def test_subnormal_z(self, cmd, z, capsys):
        # |z| / 4 underflows to 0 here; the DeepComparable branch must not
        # take the origin as both zeta and b
        assert main([cmd, str(SPECS / "demo.json"), f"--z={z}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("truncation: no resolved point in ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv", [
        ["sweep", "{spec}", "--n", "-3", "--out", "{tmp}/x.csv"],
        ["oracle-check", "--kind", "punctured", "--n", "-3"],
        ["oracle-check", "--kind", "punctured", "--n", "three"],
    ])
    def test_negative_count_rejected(self, argv, tmp_path, capsys):
        spec = write_spec(tmp_path, battery_json(0.5, 0.5))
        argv = [a.replace("{spec}", spec).replace("{tmp}", str(tmp_path)) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestStarvationRule:
    # acceptance is the area share pi (1 - r^2) / 4 of the sampling square
    # outside the guard radius r; the sampler stops only once acceptance is
    # below 1% after at least 100000 draws
    @staticmethod
    def guard(share):
        return math.sqrt(1.0 - 4.0 * share / math.pi)

    def test_stops_below_one_percent(self):
        spec = DomainSpec.bare(include_origin=True)
        got = []
        with pytest.raises(RejectionStarvation):
            for z in sample_domain_points(spec, 1, 3000, self.guard(0.005)):
                got.append(z)
        # the first check after 100000 draws fires, with about 500 accepted
        assert 300 <= len(got) <= 700

    def test_runs_past_the_threshold_above_one_percent(self):
        spec = DomainSpec.bare(include_origin=True)
        pts = list(sample_domain_points(spec, 1, 2500, self.guard(0.02)))
        assert len(pts) == 2500


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        spec_path = write_spec(tmp_path, battery_json(0.5, 0.5))
        proc = subprocess.run(
            [sys.executable, "-m", "hypbound", "validate", spec_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "halving check: ok" in proc.stdout
