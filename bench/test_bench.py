"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import make_specs
import run
from tracer import Tracer
from workloads import ROOT, WORKLOADS, import_hypbound

HB = import_hypbound()


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_specs_match_their_generator():
    assert make_specs.main(["--check"]) == 0


def test_demo_spec_is_the_readme_example():
    readme = ROOT / "README.md"
    if not readme.exists():
        pytest.skip("no README in this checkout")
    text = readme.read_text(encoding="utf-8")
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    assert (ROOT / "bench" / "specs" / "demo.json").read_text(encoding="utf-8") == block


def test_benchmark_json_declares_what_run_prints():
    b = bench_json()
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke(workload, trace):
    p = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench_json()[section]}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["demo_sweep", "dense_sweep"])
def test_traced_and_untraced_sweeps_write_identical_csv(workload):
    wl = WORKLOADS[workload](HB, smoke=True)
    op = next(wl.inputs(11))
    plain = wl.collect(op, wl.run(op))
    tracer = Tracer()
    with tracer.installed():
        traced = wl.collect(op, wl.run_traced(op))
    assert plain[0] == 0 and plain[1].count(b"\n") == wl.n + 1
    assert traced == plain
    assert tracer.calls()["cli.point_row"] == tracer.calls()["cli.SweepRow.csv"] == wl.n


def test_wrappers_reach_by_name_imports():
    spec = HB.load_domain(str(ROOT / "bench" / "specs" / "demo.json"))
    tracer = Tracer()
    with tracer.installed():
        for mod in (HB.bp, HB.halving):
            assert hasattr(mod.nearest_boundary, "__wrapped__")
        assert hasattr(HB.bp.distance_set, "__wrapped__")
        assert hasattr(HB.halving.first_boundary_hit, "__wrapped__")
        assert hasattr(HB.cli.SweepRow.csv, "__wrapped__")
        HB.bp_bounds(spec, 0.35 + 0.1j)
    assert tracer.per_function(1)["geometry.distance_set.calls_per_op"] > 0
    assert tracer.child_calls("geometry.distance_set", "bp.compute_L") > 0
    assert HB.bp.distance_set is HB.geometry.distance_set
    assert not hasattr(HB.halving.nearest_boundary, "__wrapped__")


@pytest.mark.parametrize("workload", ["demo_sweep", "deep_certify"])
def test_counters_repeat_for_a_seed(workload):
    wl = WORKLOADS[workload](HB, smoke=True)
    first = run.traced(wl, 9, smoke=True)[1]["counters"]
    again = run.traced(wl, 9, smoke=True)[1]["counters"]
    assert first == again
    assert first["traced_untraced_mismatches"] == 0


def test_row_check_rejects_a_changed_digit():
    wl = WORKLOADS["demo_sweep"](HB, smoke=True)
    op = next(wl.inputs(2))
    rc, data = wl.collect(op, wl.run(op))
    assert wl.check(op, (rc, data)).failed == 0
    lines = data.decode().split("\n")
    assert wl.check(op, (rc, "\n".join(lines[:-2] + [""]).encode())).failed == 1  # a row missing
    f = lines[1].split(",")
    f[6] = format(float(f[6]) * (1 + 1e-15), ".17g")  # bp_upper, a few ulps off
    lines[1] = ",".join(f)
    assert wl.check(op, (rc, "\n".join(lines).encode())).failed == 1


def test_deep_inputs_reach_both_deep_cases():
    wl = WORKLOADS["deep_certify"](HB, smoke=True)
    metrics, details, total = run.traced(wl, 4, smoke=True)
    assert total.failed == 0
    assert metrics["halving.case.DeepSmallGap.share"] >= 0.25
    assert metrics["halving.case.DeepComparable.share"] >= 0.25
    assert metrics["bp.bp_bounds.calls_per_op"] == 0


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    value, pct, beyond = run.tail([float(i) for i in range(1, 301)])
    assert (pct, beyond) == (96, 12) and value == 288.0


def test_throughput_reads_the_reference_mix():
    ties = [1, 1, 1, 50, 1, 1, 100, 1, 1, 1, 30, 1]
    times = [0.01 + 0.001 * w for w in ties]
    assert run.throughput(times, ties, 1, 10.0) == pytest.approx(1 / 0.02)
    # a slow spell over three of ten blocks leaves the upper quartile alone
    plain = [0.5, 0.5, 1.0, 0.5, 0.5, 0.5, 9.0, 0.5, 0.5, 0.75]
    assert run.throughput(plain, [0] * 10, 2, None) == pytest.approx(4.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("--workload", "demo_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

