#!/usr/bin/env python3
"""Byte-for-byte CLI parity between a git ref and the working tree.

    python3 tools/parity.py REF

Exports `src` at REF with `git archive`, runs a fixed list of
`python -m hypbound` invocations against that tree and against the working
tree's `src`, and compares exit codes, stdout, stderr and every file an
invocation writes.  Each invocation runs in its own empty directory and
writes its output under a relative name, so the output path reads the same
on both sides.  Prints one line per difference and exits 0 only when there
is none; exit 2 means REF could not be exported.  Standard library only.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "bench" / "specs"

# fixture specs written next to the runs: name -> JSON object
FIXTURES = {
    "violating.json": {
        "primitives": [],
        "sequence": {"type": "explicit", "points": [[0.5, 0.0], [0.2, 0.0]]},
    },
    "touching.json": {
        "primitives": [
            # T-junction on the interior of an oblique segment
            {"type": "segment", "x1": 0.1, "y1": 0.1, "x2": 0.5, "y2": 0.3},
            {"type": "segment", "x1": 0.22, "y1": 0.16, "x2": 0.12, "y2": 0.36},
            # collinear overlap
            {"type": "segment", "x1": -0.1, "y1": -0.1, "x2": -0.3, "y2": -0.2},
            {"type": "segment", "x1": -0.2, "y1": -0.15, "x2": -0.4, "y2": -0.25},
        ],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
    },
    # a 24-point halving spiral; the disk and the segment cross the dyadic ring
    # |z| = 2^-7 that DeepSmallGap certificates near a_4 start from
    "ring.json": {
        "primitives": [
            {"type": "disk", "cx": 0.0021, "cy": -0.0075, "r": 0.002},
            {"type": "segment", "x1": -0.0038, "y1": 0.0028, "x2": -0.0069, "y2": 0.0095},
        ],
        "sequence": {
            "type": "explicit",
            "points": [[0.5**(k + 1) * math.cos(0.3 * k), -0.5**(k + 1) * math.sin(0.3 * k)] for k in range(24)],
        },
    },
    # a disk and a segment within 5e-7 of the unit circle, a disk 2e-6 away
    "rim.json": {
        "primitives": [
            {"type": "disk", "cx": 0.9, "cy": 0.0, "r": 0.0999995},
            {"type": "segment", "x1": -0.5, "y1": 0.0, "x2": -0.9999995, "y2": 0.0},
            {"type": "disk", "cx": 0.0, "cy": -0.9, "r": 0.099998},
        ],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60},
    },
    # a disk narrower than an ulp of 0.5: at nextafter(0.5, 1) the nearest
    # witness rounds onto z
    "ulp_disk.json": {
        "primitives": [{"type": "disk", "cx": 0.5, "cy": 0.0, "r": 1e-16}],
        "sequence": {"type": "geometric", "delta": 0.25, "ratio": 0.5, "count": 40},
    },
    # L = 0 from a segment or a disk interval and not the unit circle: at
    # 0.4 the segment interval from the point 0.5 ends exactly at d, at
    # 0.5-0.3i the disk interval holds d
    "intervals.json": {
        "primitives": [
            {"type": "segment", "x1": 0.55, "y1": 0.0, "x2": 0.6, "y2": 0.0},
            {"type": "disk", "cx": 0.5, "cy": 0.3, "r": 0.05},
        ],
        "sequence": {"type": "explicit", "points": [[0.5, 0.0]]},
    },
    # at 0.75 the point 0.5 (L = ln 2) and the unit circle (L = 0) tie as
    # witnesses, and only the second gives L = 0
    "tie.json": {"primitives": [], "sequence": {"type": "explicit", "points": [[0.5, 0.0]]}},
    # malformed specs, each rejected at load with exit 2
    "listed_origin.json": {
        "primitives": [{"type": "point", "x": 0.0, "y": 0.0}],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4},
    },
    "string_count.json": {
        "primitives": [],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": "4"},
    },
    "no_points.json": {"primitives": [], "sequence": {"type": "explicit", "points": []}},
    "extra_field.json": {
        "primitives": [{"type": "point", "x": 0.3, "y": 0.0, "extra": 1}],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4},
    },
    "blob.json": {
        "primitives": [{"type": "blob"}],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4},
    },
    # a 400-digit integer coordinate, beyond the float range
    "huge_coordinate.json": {
        "primitives": [{"type": "point", "x": 10**399, "y": 0.0}],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 4},
    },
}
MALFORMED = (
    "listed_origin.json", "string_count.json", "no_points.json", "extra_field.json", "blob.json",
    "huge_coordinate.json",
)


def invocations(fixtures: Path) -> list[list[str]]:
    demo, spiral, dense = (str(SPECS / name) for name in ("demo.json", "spiral.json", "dense.json"))
    return [
        *(["sweep", demo, "--n", "400", "--seed", seed, "--out", "out.csv"] for seed in ("1", "7", "42")),
        ["sweep", spiral, "--n", "300", "--seed", "3", "--out", "out.csv"],
        ["sweep", dense, "--n", "400", "--seed", "2", "--out", "out.csv"],
        ["bounds", demo, "--z=0.35,0.1"],
        ["bounds", demo, "--z=0.35,0.1", "--csv"],
        # with the two DeepComparable and the DeepSmallGap runs below, a
        # certificate of every case tag: MidRange, FarFromE, CircleNearest
        ["certify", demo, "--z=0.35,0.1"],
        ["certify", demo, "--z=0,-0.45"],
        ["certify", demo, "--z=-0.8,0.1"],
        ["certify", spiral, "--z=0.001,0.0005"],
        ["certify", spiral, "--z=-0.02,0.013"],
        # DeepSmallGap: the arc-plus-radial walk starts on a dyadic ring; on
        # ring.json the first of these reaches b on the disk
        *(["certify", spiral, f"--z={z}"] for z in ("-0.0328,-0.0121", "0.0024,-0.0124", "0.0045,0.0001")),
        ["certify", demo, "--z=0.0625,0.002"],
        *(["certify", str(fixtures / "ring.json"), f"--z={z}"] for z in ("0.0115,-0.0289", "0.0392,-0.0484", "0.0012,-0.0155")),
        # walks with an arc leg: on spiral.json DeepSmallGap from the ring,
        # with the hit on the arc and then on the radial run, and
        # DeepComparable from z, the same two ways; on dense.json both cases
        # with the hit on the arc
        *(["certify", spiral, f"--z={z}"] for z in (
            "4.665e-11,3.875e-12", "-0.01035,-0.01825", "5.594e-12,-1.917e-12", "0.0005236,0.0002292",
        )),
        *(["certify", dense, f"--z={z}"] for z in ("3.782e-08,-2.713e-10", "1.685e-10,-7.892e-10")),
        # dense.json through the point index: near-ties of the origin with
        # 169, 368 and 1252 sequence points within relative 1e-9 of d
        # (DeepComparable, FarFromE, FarFromE), which the exact witness rule
        # resolves to the origin alone; then DeepSmallGap, and DeepComparable
        # with a path hit
        ["bounds", dense, "--z=-0.2,0.1"],
        *([cmd, dense, f"--z={z}"] for z in ("-0.05,-0.3", "0,0.3") for cmd in ("bounds", "certify")),
        ["certify", dense, "--z=0.0031,0.0002"],
        ["certify", dense, "--z=-0.004,0.003"],
        # deep on dense.json through the boxes of the point index: the origin
        # nearest, then hugging the axis of the points
        *([cmd, dense, f"--z={z}"] for z in ("-0.0031,0.0002", "0.00031,-0.00002") for cmd in ("bounds", "certify")),
        # FarFromE on dense.json: the modulus band of each witness's window
        # holds every point, which the block boxes prune
        *(["bounds", dense, f"--z={z}"] for z in ("0.3,0.4", "0.3,-0.45")),
        # within about 1e-8 of the unit circle: the log ratio of the rounded
        # chord partner is about 1e-9, inside the CircleNearest cap ln 2
        ["certify", demo, "--z=0.94723317263975,-0.32054529899594186"],
        *([cmd, str(fixtures / "ulp_disk.json"), "--z=0.5000000000000001,0"] for cmd in ("bounds", "certify")),
        # subnormal |z|, where |z| / 4 underflows to 0: truncation, exit 1
        ["certify", demo, "--z=5e-324,0"],
        ["bounds", demo, "--z=1e-323,0"],
        # L = 0 from a curve interval other than the unit circle's: from the
        # user point 0.3+0.3i, the segment that ends there (the two tie as
        # witnesses), then from the origin, the disk
        ["bounds", demo, "--z=0.26208004800213525,0.2638751929357783"],
        ["bounds", demo, "--z=-0.11029902898747102,-0.3014301638464816", "--csv"],
        *(["bounds", str(fixtures / "intervals.json"), f"--z={z}"] for z in ("0.4,0", "0.5,-0.3")),
        *([cmd, str(fixtures / "tie.json"), "--z=0.75,0"] for cmd in ("bounds", "certify")),
        ["slit-audit", "--deltas", "0.2,0.1,0.01,0.001", "--out", "out.csv"],
        # deltas in (0, 1/4) whose slit, then whose sequence, underflows: exit 2
        *(["slit-audit", "--deltas", delta, "--out", "out.csv"] for delta in ("1e-170", "1e-310")),
        ["validate", demo],
        ["validate", spiral],
        ["validate", str(fixtures / "violating.json")],
        ["validate", str(fixtures / "touching.json")],
        ["validate", str(fixtures / "rim.json")],
        *(["validate", str(fixtures / name)] for name in MALFORMED),
        ["oracle-check", "--kind", "disk", "--n", "200", "--seed", "1"],
        ["oracle-check", "--kind", "punctured", "--n", "200", "--seed", "1"],
    ]


def export_src(ref: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run(src: Path, argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Exit code, stdout, stderr and the files written in cwd."""
    cwd.mkdir(parents=True)
    # refs before the certificate slack became a constant still read HYPBOUND_TOL
    env = {k: v for k, v in os.environ.items() if k != "HYPBOUND_TOL"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "hypbound", *argv], cwd=cwd, env=env, capture_output=True
    )
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def first_difference(x: bytes | None, y: bytes | None) -> str:
    if x is None or y is None:
        return "missing on one side"
    xs, ys = x.splitlines(keepends=True), y.splitlines(keepends=True)
    n = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
    line = [ls[n].decode(errors="replace") if n < len(ls) else "<end>" for ls in (xs, ys)]
    return f"line {n + 1}: {line[0]!r} vs {line[1]!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/parity.py REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory(prefix="hypbound-parity-") as tmp:
        tmp = Path(tmp)
        try:
            export_src(ref, tmp / "ref")
        except subprocess.CalledProcessError as e:
            print(f"cannot export src at {ref}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        fixtures = tmp / "fixtures"
        fixtures.mkdir()
        for name, obj in FIXTURES.items():
            (fixtures / name).write_text(json.dumps(obj), encoding="utf-8")
        cases = invocations(fixtures)
        diffs = 0
        for i, case in enumerate(cases):
            label = " ".join(Path(arg).name if os.sep in arg else arg for arg in case)
            a = run(tmp / "ref" / "src", case, tmp / "runs" / "ref" / str(i))
            b = run(ROOT / "src", case, tmp / "runs" / "work" / str(i))
            if a[0] != b[0]:
                print(f"{label}: exit code {a[0]} at {ref}, {b[0]} in the working tree")
                diffs += 1
            outputs = [("stdout", a[1], b[1]), ("stderr", a[2], b[2])] + [
                (f"file {name}", a[3].get(name), b[3].get(name)) for name in sorted(a[3].keys() | b[3].keys())
            ]
            for what, x, y in outputs:
                if x != y:
                    print(f"{label}: {what} differs at {first_difference(x, y)}")
                    diffs += 1
        print(f"{len(cases)} invocations, {diffs} differences", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
