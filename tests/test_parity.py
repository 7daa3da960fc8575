"""The output contract: a fixed list of CLI invocations against the committed
outputs in tests/parity_expected.json.

Each invocation runs in this process through `cli.main`, in its own empty
temporary directory, and writes its output under a relative name.  Its
entry records the exit code, stdout, stderr and the sha256 of every file it
writes, so `git diff A B -- tests/parity_expected.json` shows the output
change between two commits.  The same list runs once more under
`python -O`, where assert statements vanish.

    PYTHONPATH=src python3 tests/test_parity.py

rewrites the expected file from the working tree.  Regenerate it only for
an output change declared in CHANGES.md, in the same commit: regenerating it
to hide an undeclared change defeats the test.  The file assumes this
interpreter's libm (`math.log`, `math.hypot`, ...), whose last digits another
C library may round differently.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hypbound.cli import main

HERE = Path(__file__).resolve().parent
SPECS = HERE.parent / "bench" / "specs"
EXPECTED = HERE / "parity_expected.json"

# fixture specs, written to a directory of their own: name -> JSON object
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
    # one point above the cap, none of them underflowing
    "capped_count.json": {
        "primitives": [],
        "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.99999, "count": 10**6 + 1},
    },
}
MALFORMED = (
    "listed_origin.json", "string_count.json", "no_points.json", "extra_field.json", "blob.json",
    "huge_coordinate.json", "capped_count.json",
)

# argv lists; a name ending in .json is a fixture above or a spec in bench/specs
INVOCATIONS = [
    *(["sweep", "demo.json", "--n", "400", "--seed", seed, "--out", "out.csv"] for seed in ("1", "7", "42")),
    *(["sweep", "spiral.json", "--n", "300", "--seed", seed, "--out", "out.csv"] for seed in ("3", "8")),
    *(["sweep", "dense.json", "--n", "400", "--seed", seed, "--out", "out.csv"] for seed in ("2", "5")),
    ["bounds", "demo.json", "--z=0.35,0.1"],
    ["bounds", "demo.json", "--z=0.35,0.1", "--csv"],
    # with the two DeepComparable and the DeepSmallGap runs below, a
    # certificate of every case tag: MidRange, FarFromE, CircleNearest
    ["certify", "demo.json", "--z=0.35,0.1"],
    ["certify", "demo.json", "--z=0,-0.45"],
    ["certify", "demo.json", "--z=-0.8,0.1"],
    ["certify", "spiral.json", "--z=0.001,0.0005"],
    ["certify", "spiral.json", "--z=-0.02,0.013"],
    # DeepSmallGap: the arc-plus-radial walk starts on a dyadic ring; on
    # ring.json the first of these reaches b on the disk
    *(["certify", "spiral.json", f"--z={z}"] for z in ("-0.0328,-0.0121", "0.0024,-0.0124", "0.0045,0.0001")),
    ["certify", "demo.json", "--z=0.0625,0.002"],
    *(["certify", "ring.json", f"--z={z}"] for z in ("0.0115,-0.0289", "0.0392,-0.0484", "0.0012,-0.0155")),
    # walks with an arc leg: on spiral.json DeepSmallGap from the ring,
    # with the hit on the arc and then on the radial run, and
    # DeepComparable from z, the same two ways; on dense.json both cases
    # with the hit on the arc
    *(["certify", "spiral.json", f"--z={z}"] for z in (
        "4.665e-11,3.875e-12", "-0.01035,-0.01825", "5.594e-12,-1.917e-12", "0.0005236,0.0002292",
    )),
    *(["certify", "dense.json", f"--z={z}"] for z in ("3.782e-08,-2.713e-10", "1.685e-10,-7.892e-10")),
    # dense.json through the point index: near-ties of the origin with
    # 169, 368 and 1252 sequence points within relative 1e-9 of d
    # (DeepComparable, FarFromE, FarFromE), which the exact witness rule
    # resolves to the origin alone; then DeepSmallGap, and DeepComparable
    # with a path hit
    ["bounds", "dense.json", "--z=-0.2,0.1"],
    *([cmd, "dense.json", f"--z={z}"] for z in ("-0.05,-0.3", "0,0.3") for cmd in ("bounds", "certify")),
    ["certify", "dense.json", "--z=0.0031,0.0002"],
    ["certify", "dense.json", "--z=-0.004,0.003"],
    # deep on dense.json through the boxes of the point index: the origin
    # nearest, then hugging the axis of the points
    *([cmd, "dense.json", f"--z={z}"] for z in ("-0.0031,0.0002", "0.00031,-0.00002") for cmd in ("bounds", "certify")),
    # FarFromE on dense.json: the modulus band of each witness's window
    # holds every point, which the block boxes prune
    *(["bounds", "dense.json", f"--z={z}"] for z in ("0.3,0.4", "0.3,-0.45")),
    # within about 1e-8 of the unit circle: the log ratio of the rounded
    # chord partner is about 1e-9, inside the CircleNearest cap ln 2
    ["certify", "demo.json", "--z=0.94723317263975,-0.32054529899594186"],
    *([cmd, "ulp_disk.json", "--z=0.5000000000000001,0"] for cmd in ("bounds", "certify")),
    # subnormal |z|, where |z| / 4 underflows to 0: truncation, exit 1
    ["certify", "demo.json", "--z=5e-324,0"],
    ["bounds", "demo.json", "--z=1e-323,0"],
    # L = 0 from a curve interval other than the unit circle's: from the
    # user point 0.3+0.3i, the segment that ends there (the two tie as
    # witnesses), then from the origin, the disk
    ["bounds", "demo.json", "--z=0.26208004800213525,0.2638751929357783"],
    ["bounds", "demo.json", "--z=-0.11029902898747102,-0.3014301638464816", "--csv"],
    *(["bounds", "intervals.json", f"--z={z}"] for z in ("0.4,0", "0.5,-0.3")),
    *([cmd, "tie.json", "--z=0.75,0"] for cmd in ("bounds", "certify")),
    ["slit-audit", "--deltas", "0.2,0.1,0.01,0.001", "--out", "out.csv"],
    # deltas in (0, 1/4) whose slit, then whose sequence, underflows: exit 2
    *(["slit-audit", "--deltas", delta, "--out", "out.csv"] for delta in ("1e-170", "1e-310")),
    *(["validate", name] for name in ("demo.json", "spiral.json", "violating.json", "touching.json", "rim.json")),
    *(["validate", name] for name in MALFORMED),
    ["oracle-check", "--kind", "disk", "--n", "200", "--seed", "1"],
    ["oracle-check", "--kind", "punctured", "--n", "200", "--seed", "1"],
]


def run(argv: list[str], fixtures: Path) -> dict:
    """The exit code, stdout, stderr and the sha256 of each written file of
    main(argv), run in an empty directory."""
    argv = [str(fixtures / a) if a in FIXTURES else str(SPECS / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(cwd).iterdir())}
        finally:
            os.chdir(home)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def write_fixtures(where: Path) -> Path:
    for name, obj in FIXTURES.items():
        (where / name).write_text(json.dumps(obj), encoding="utf-8")
    return where


def outputs() -> dict:
    """run(argv) of every invocation, by its argv joined with spaces."""
    with tempfile.TemporaryDirectory() as where:
        fixtures = write_fixtures(Path(where))
        return {" ".join(argv): run(argv, fixtures) for argv in INVOCATIONS}


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    return write_fixtures(tmp_path_factory.mktemp("fixtures"))


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output(argv, fixtures, expected):
    assert run(argv, fixtures) == expected.get(" ".join(argv))


def test_outputs_under_optimize(expected):
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from test_parity import outputs; "
        "print(json.dumps([sys.flags.optimize, outputs()]))"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(HERE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, expected]


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(outputs(), indent=1) + "\n", encoding="utf-8")
