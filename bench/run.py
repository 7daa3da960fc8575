"""hypbound benchmark: one closed-loop client, one process, `--jobs 1`.

    python3 bench/run.py --workload demo_sweep --seed 1 --seconds 10 --trace 0

`--trace 0` measures the end-to-end metrics for `--seconds` of timed work and
checks every output outside the timed region.  `--trace 1` runs a fixed,
seed-determined list of operations, each plain and then under the span
recorder of tracer.py, and reports the per-layer metrics, the tracing overhead and
counters that repeat exactly for a seed.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exit code 2: the program under test could not be imported.  bench/README.md
defines every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import NAMES, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OUT, ROOT, SRC, WORKLOADS, Checked, MissingProgram, SweepWorkload, import_hypbound,
)

CASE_TAGS = ("CircleNearest", "FarFromE", "MidRange", "DeepSmallGap", "DeepComparable")

SETUP_SHARE = 0.05
BLOCKS = 10
WARMUP_OPS = 3

END_TO_END = {
    "throughput_pts_per_s": "pts/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in NAMES:
        units[f"{fn}.calls_per_op"] = "calls/op"
        units[f"{fn}.us_per_call"] = "us"
        units[f"{fn}.self_us_per_op"] = "us/op"
    units["geometry.nearest_boundary.witnesses_per_call"] = "count"
    units["bp.compute_L.distance_sets_per_call"] = "count"
    units["cli.sweep.accept_ratio"] = "ratio"
    for tag in CASE_TAGS:
        units[f"halving.case.{tag}.share"] = "ratio"
    units["cli.import_ms"] = "ms"
    units["trace_overhead_frac"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile that
    leaves at least 10 samples above it, by nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(-(-pct * n // 100), 1)
    return xs[rank - 1], pct, n - rank


def throughput(times: list[float], ties: list[int], per_op: int, reference: float | None) -> float:
    """Points per second: the upper quartile of the rates of BLOCKS consecutive
    blocks of the run.

    Other tenants of a shared host slow it by up to 1.5x for seconds to tens
    of seconds at a time, and allocation-heavy operations suffer most.  The
    upper quartile of block rates follows the host's unloaded speed whenever
    a quarter of the run was unloaded, where the whole-run rate would follow
    how much of the run the slow spells happened to cover.

    Sweep cost grows with the number of tied nearest witnesses, and a short
    run draws few tie-heavy points, so its rate also swings with how many it
    drew.  With a reference (the mean tie count under the sweep's sampling
    law, bench/specs/reference.json), each block's mean operation time is
    moved to the reference mix along the least-squares slope of operation
    time on the operation's benchmark-side tie count.
    """
    beta = 0.0
    if reference is not None and len(times) >= 3:
        mean_t, mean_w = statistics.fmean(times), statistics.fmean(ties)
        sxx = sum((w - mean_w) ** 2 for w in ties)
        if sxx:
            beta = sum((w - mean_w) * (t - mean_t) for w, t in zip(ties, times)) / sxx
    n = len(times)
    blocks = min(BLOCKS, n)
    rates = []
    for j in range(blocks):
        lo, hi = j * n // blocks, (j + 1) * n // blocks
        t = statistics.fmean(times[lo:hi])
        if reference is not None:
            t_ref = t + beta * (per_op * reference - statistics.fmean(ties[lo:hi]))
            t = t_ref if t_ref > 0.0 else t
        rates.append(per_op / t)
    return statistics.quantiles(rates, n=4)[2] if len(rates) > 1 else rates[0]


# ---------------------------------------------------------------------------
# running operations


def run_one(wl, op, run):
    """Time one operation; returns (seconds, output).  A raised exception is the output."""
    t0 = time.perf_counter()
    try:
        raw = run(op)
    except (Exception, SystemExit) as e:  # a failed operation, counted by check_out
        return time.perf_counter() - t0, e
    dt = time.perf_counter() - t0
    return dt, wl.collect(op, raw)


def check_out(wl, op, out) -> Checked:
    if isinstance(out, BaseException):
        k = wl.points_per_op
        return Checked(k, k, cases=Counter({"error": k}))
    return wl.check(op, out)


def setup_rep(wl) -> float:
    t0 = time.perf_counter()
    wl.setup_once()
    return time.perf_counter() - t0


def untraced(wl, seed: int, seconds: float) -> tuple[dict, dict, Checked]:
    # set-up is repeated between operations, at most SETUP_SHARE of the timed
    # work, so its median spans the whole run rather than one moment of it
    setup = [setup_rep(wl) for _ in range(5)]
    times, ties = [], []
    total = Checked(0)
    wall_limit = time.perf_counter() + 4.0 * seconds + 30.0
    for op in wl.inputs(seed):
        dt, out = run_one(wl, op, wl.run)
        c = check_out(wl, op, out)
        times.append(dt)
        ties.append(c.ties)
        total.attempted += c.attempted
        total.failed += c.failed
        total.cases.update(c.cases)
        timed = sum(times)
        if sum(setup) < SETUP_SHARE * timed:
            setup.append(setup_rep(wl))
        if len(times) >= 2 and (timed >= seconds or time.perf_counter() > wall_limit):
            break
    per_op = wl.points_per_op
    who = resource.RUSAGE_CHILDREN if wl.subprocesses else resource.RUSAGE_SELF
    tail_ms, tail_pct, beyond = tail(times)
    metrics = {
        "throughput_pts_per_s": throughput(times, ties, per_op, wl.tie_reference),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    details = {
        "latency_unit": wl.latency_unit,
        "latency_tail_pct": tail_pct,
        "latency_samples": len(times),
        "latency_samples_beyond_tail": beyond,
        "throughput_raw_pts_per_s": total.attempted / sum(times),
        "timed_s": sum(times),
        "setup_reps": len(setup),
        "failed_ops_frac": total.failed / total.attempted,
        "cases": dict(sorted(total.cases.items())),
    }
    return metrics, details, total


def traced(wl, seed: int, smoke: bool) -> tuple[dict, dict, Checked]:
    ops = list(islice(wl.inputs(seed), wl.smoke_trace_ops if smoke else wl.trace_ops))
    import_ms = 0.0
    outs_direct = None
    if wl.subprocesses:
        # the one-shot calls as users make them, each beside a bare interpreter start
        t_call, t_bare, outs_direct = [], [], []
        for op in ops:
            dt, out = run_one(wl, op, wl.run)
            t_call.append(dt)
            outs_direct.append(out)
            t0 = time.perf_counter()
            wl.bare_python()
            t_bare.append(time.perf_counter() - t0)
        import_ms = (statistics.median(t_call) - statistics.median(t_bare)) * 1e3

    for op in ops[:WARMUP_OPS]:  # one-time costs would otherwise land on the first pass
        run_one(wl, op, wl.run_traced)
    # each operation runs plain and then traced, so a slow spell of the host
    # lands on both sides of the overhead ratio
    tracer = Tracer()
    t_plain, outs_plain, t_traced, outs_traced = [], [], [], []
    for i, op in enumerate(ops):
        dt, out = run_one(wl, op, wl.run_traced)
        t_plain.append(dt)
        outs_plain.append(out)
        tracer.op_id = i
        with tracer.installed():
            dt, out = run_one(wl, op, wl.run_traced)
        t_traced.append(dt)
        outs_traced.append(out)

    total = Checked(0)
    mismatched = 0
    for i, op in enumerate(ops):
        c = check_out(wl, op, outs_traced[i])
        same = outs_traced[i] == outs_plain[i] and (outs_direct is None or outs_direct[i] == outs_traced[i])
        if not same:
            mismatched += 1
            c.failed = c.attempted
        total.attempted += c.attempted
        total.failed += c.failed
        total.cases.update(c.cases)

    points = total.attempted
    calls = tracer.calls()
    metrics = tracer.per_function(points)
    witnesses = tracer.observed("geometry.nearest_boundary")
    sampled = tracer.child_calls("geometry.contains", "cli.sweep_rows")
    accepted = tracer.child_calls("cli.point_row", "cli.sweep_rows")
    dsets = tracer.child_calls("geometry.distance_set", "bp.compute_L")
    metrics["geometry.nearest_boundary.witnesses_per_call"] = statistics.fmean(witnesses) if witnesses else 0.0
    metrics["bp.compute_L.distance_sets_per_call"] = dsets / calls["bp.compute_L"] if calls["bp.compute_L"] else 0.0
    metrics["cli.sweep.accept_ratio"] = accepted / sampled if sampled else 0.0
    for tag in CASE_TAGS:
        metrics[f"halving.case.{tag}.share"] = total.cases[tag] / points
    metrics["cli.import_ms"] = import_ms
    metrics["trace_overhead_frac"] = sum(t_traced) / sum(t_plain) - 1.0

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write(spans_file)
    csv_sha = None
    if isinstance(wl, SweepWorkload):
        h = hashlib.sha256()
        for out in outs_traced:
            h.update(out[1] if isinstance(out, tuple) else repr(out).encode())
        csv_sha = h.hexdigest()
    counters = {
        "ops": len(ops),
        "points": points,
        "cases": dict(sorted(total.cases.items())),
        "witness_count_hist": {str(k): v for k, v in sorted(Counter(witnesses).items())},
        "calls": calls,
        "calls_per_op": {k: metrics[f"{k}.calls_per_op"] for k in NAMES},
        "accept": {"accepted": accepted, "contains_calls": sampled},
        "distance_sets_under_compute_L": dsets,
        "traced_untraced_mismatches": mismatched,
        "csv_sha256": csv_sha,
    }
    details = {
        "spans": len(tracer),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failed_ops_frac": total.failed / points,
        "counters": counters,
    }
    return metrics, details, total


# ---------------------------------------------------------------------------
# report


def environment() -> dict:
    sha = "unavailable (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for f in sorted((SRC / "hypbound").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "concurrency": "all workloads run --jobs 1 from one process, one closed-loop client",
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hypbound benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny operations, for self-tests")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        hb = import_hypbound()
    except MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](hb, args.smoke)

    if args.trace:
        metrics, details, total = traced(wl, args.seed, args.smoke)
        units = per_layer_units()
    else:
        metrics, details, total = untraced(wl, args.seed, args.seconds)
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:56s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"{'failed_ops_frac':56s} {details['failed_ops_frac']:.6g} ratio")
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "env": environment(), **details}
    print("details: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
