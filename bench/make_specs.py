"""Write the benchmark's domain specs and their tie-count reference.

    python3 bench/make_specs.py            # rewrite bench/specs/*.json
    python3 bench/make_specs.py --check    # exit 1 if a committed spec differs

The parameters below are the whole definition of each spec:

- demo.json is the README example byte for byte, so `demo_sweep` stays the
  documented case.
- dense.json has no user primitives and the ROADMAP long sequence
  (delta 0.5, ratio 0.99, 2300 points); tied nearest witnesses make the
  per-point cost grow with the sequence length.
- spiral.json is an off-axis explicit spiral a_n = 0.45 * 0.6^n * e^{0.7 i n},
  n < 60, plus one segment and one disk far from the spiral, so deep queries
  reach the DeepSmallGap and DeepComparable certificate cases.

reference.json holds, for each sweep spec, the mean tie count of points drawn
uniformly from G (the sweep's sampling law) by the benchmark's own brute
force.  run.py uses it as the fixed reference mix when it adjusts sweep
throughput for the tie mix a run happened to draw.  Computing it takes about
a minute, so `--check` does not recompute it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"

DEMO_TEXT = """{
  "primitives": [
    {"type": "point",   "x": 0.3,  "y": 0.3},
    {"type": "segment", "x1": 0.3, "y1": 0.3, "x2": 0.5, "y2": 0.2},
    {"type": "disk",    "cx": -0.4, "cy": 0.1, "r": 0.12}
  ],
  "sequence": {"type": "geometric", "delta": 0.5, "ratio": 0.5, "count": 60}
}
"""

DENSE = {"delta": 0.5, "ratio": 0.99, "count": 2300}

SPIRAL = {
    "scale": 0.45,
    "ratio": 0.6,
    "turn": 0.7,
    "count": 60,
    "segment": [-0.55, -0.35, -0.25, -0.6],
    "disk": [0.1, -0.55, 0.12],
}

REFERENCE_SEED = 20230314
REFERENCE_POINTS = 40_000


def dense_text() -> str:
    obj = {"primitives": [], "sequence": {"type": "geometric", **DENSE}}
    return json.dumps(obj) + "\n"


def spiral_text() -> str:
    p = SPIRAL
    pts = [
        cmath.rect(p["scale"] * p["ratio"] ** n, p["turn"] * n) for n in range(p["count"])
    ]
    x1, y1, x2, y2 = p["segment"]
    cx, cy, r = p["disk"]
    obj = {
        "primitives": [
            {"type": "segment", "x1": x1, "y1": y1, "x2": x2, "y2": y2},
            {"type": "disk", "cx": cx, "cy": cy, "r": r},
        ],
        "sequence": {"type": "explicit", "points": [[z.real, z.imag] for z in pts]},
    }
    return json.dumps(obj, indent=1) + "\n"


SPEC_TEXTS = {"demo.json": lambda: DEMO_TEXT, "dense.json": dense_text, "spiral.json": spiral_text}


def reference_tie_mean(spec_file: str) -> float:
    """Mean benchmark-side tie count over uniform points of G, |z| >= 10 * floor."""
    from workloads import import_hypbound, sample_in_domain, sweep_floor, tie_count

    hb = import_hypbound()
    spec = hb.load_domain(str(SPECS / spec_file))
    r_min = 10.0 * sweep_floor(spec)
    rng = random.Random(f"{REFERENCE_SEED}:{spec_file}")
    total = sum(tie_count(spec, sample_in_domain(spec, rng, r_min))[1] for _ in range(REFERENCE_POINTS))
    return total / REFERENCE_POINTS


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args(argv)
    if args.check:
        stale = [n for n, make in SPEC_TEXTS.items() if (SPECS / n).read_text() != make()]
        for n in stale:
            print(f"stale: bench/specs/{n}", file=sys.stderr)
        return 1 if stale else 0
    SPECS.mkdir(exist_ok=True)
    for name, make in SPEC_TEXTS.items():
        (SPECS / name).write_text(make(), encoding="utf-8")
    ref = {
        "seed": REFERENCE_SEED,
        "points": REFERENCE_POINTS,
        "tie_mean": {n: reference_tie_mean(n) for n in ("demo.json", "dense.json")},
    }
    (SPECS / "reference.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
