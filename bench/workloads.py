"""The four benchmark workloads, their seeded inputs and their correctness checks.

Each workload turns a seed into an endless stream of operations.  `run` is
the only part that is timed.  `collect` turns what `run` returned into a
self-contained output value (read outside the timed region), and `check`
re-derives that output independently and counts failed operations.

Every workload runs from one process and one thread; the sweeps pass
`--jobs 1`.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"
OUT = ROOT / ".bench_out"

CSV_HEADER = "z_re,z_im,abs_z,d,L,bp_lower,bp_upper,thm1_bound,oracle,case,chain_ok"
TIE_REL = 1e-9  # the benchmark's own tie rule, same definition as the program's


class MissingProgram(RuntimeError):
    """The checkout holds no importable hypbound sources."""


def import_hypbound():
    """Import hypbound from this checkout's src/, never from an installed copy."""
    if not (SRC / "hypbound" / "__init__.py").is_file():
        raise MissingProgram(f"no hypbound sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypbound
    import hypbound.cli

    if Path(hypbound.__file__).resolve().parent != (SRC / "hypbound").resolve():
        raise MissingProgram(f"hypbound imported from {hypbound.__file__}, not {SRC}")
    return hypbound


def fmt(x: float) -> str:
    return format(x, ".17g")


def in_domain(spec, z: complex) -> bool:
    """Membership in G by brute force over the obstacles."""
    return abs(z) < 1.0 and all(p.set_distance(z) > 0.0 for p in spec.obstacles)


def tie_count(spec, z: complex) -> tuple[float, int]:
    """(d, w): brute-force boundary distance and the number of primitives tying it."""
    dists = [p.boundary_distance(z) for p in spec.primitives]
    d = min(dists)
    cutoff = d * (1.0 + TIE_REL)
    return d, sum(1 for x in dists if x <= cutoff)


def sweep_floor(spec) -> float:
    return min(abs(p) for p in spec.sequence.resolved_points)


def sample_in_domain(spec, rng: random.Random, r_min: float) -> complex:
    """Uniform point of G with |z| >= r_min, the law `hypbound sweep` samples from."""
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(z) >= r_min and in_domain(spec, z):
            return z


@dataclass
class Checked:
    """Outcome of checking one operation."""

    attempted: int
    failed: int = 0
    ties: int = 0  # benchmark-side tie count, summed over the operation's points
    cases: Counter = field(default_factory=Counter)


class Workload:
    name = ""
    spec_file = ""
    trace_ops = 0  # operations in a traced run; fixed so counters repeat exactly
    smoke_trace_ops = 2
    tie_reference: float | None = None  # per-point tie mean for the throughput adjustment
    subprocesses = False  # the work runs in child processes
    points_per_op = 1  # all of them fail when `run` raises
    latency_unit = "one operation"

    def __init__(self, hb, smoke: bool):
        self.hb = hb
        self.spec_path = SPECS / self.spec_file
        self.spec = hb.load_domain(str(self.spec_path))
        self.consts = hb.constants(self.spec.sequence)
        self.r_min = 10.0 * sweep_floor(self.spec)

    def setup_once(self) -> None:
        """What a user pays before the first query: parse the spec, derive constants."""
        spec = self.hb.geometry.load_domain(str(self.spec_path))
        self.hb.halving.constants(spec.sequence)

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def run_traced(self, op):
        """The in-process form of `run`, which the tracing wrappers can see."""
        return self.run(op)

    def collect(self, op, raw):
        return raw

    def check(self, op, out) -> Checked:
        raise NotImplementedError

    def _rederive(self, z: complex) -> tuple:
        """(bounds, thm1, case) at z, recomputed through the public API."""
        hb = self.hb
        b = hb.bp_bounds(self.spec, z)
        thm1 = hb.lower_bound(self.consts, z)
        case = hb.build_certificate(self.spec, self.consts, z).case_tag.value
        return b, thm1, case


# ---------------------------------------------------------------------------
# sweeps


class SweepWorkload(Workload):
    """`hypbound sweep` run in-process through cli.main, `rows` points per call,
    each call with its own sweep seed."""

    rows = 0
    smoke_rows = 0

    def __init__(self, hb, smoke: bool):
        super().__init__(hb, smoke)
        self.n = self.points_per_op = self.smoke_rows if smoke else self.rows
        self.latency_unit = f"one sweep call of {self.n} rows"
        OUT.mkdir(exist_ok=True)
        self.out_path = OUT / f"{self.name}.csv"
        ref = json.loads((SPECS / "reference.json").read_text(encoding="utf-8"))
        self.tie_reference = ref["tie_mean"][self.spec_file]

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.randrange(1, 2**31)

    def run(self, sweep_seed: int):
        argv = [
            "sweep", str(self.spec_path), "--n", str(self.n), "--seed", str(sweep_seed),
            "--out", str(self.out_path), "--jobs", "1",
        ]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return self.hb.cli.main(argv)

    def collect(self, op, raw):
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        self.out_path.unlink(missing_ok=True)
        return (raw, data)

    def check(self, op, out) -> Checked:
        rc, data = out
        res = Checked(self.n)
        if rc != 0:
            res.failed = self.n
            return res
        lines = data.decode("utf-8").split("\n")
        rows = [line for line in lines[1:] if line]
        if lines[0] != CSV_HEADER:
            res.failed = self.n
            return res
        res.failed += abs(self.n - len(rows))
        for line in rows:
            ok, w, case = self._check_row(line)
            res.failed += 0 if ok else 1
            res.ties += w
            res.cases[case] += 1
        return res

    def _check_row(self, line: str) -> tuple[bool, int, str]:
        f = line.split(",")
        if len(f) != 11:
            return False, 0, "malformed"
        try:
            z = complex(float(f[0]), float(f[1]))
            d_bf, w = tie_count(self.spec, z)
            b, thm1, case = self._rederive(z)
        except (ValueError, LookupError, RuntimeError, ArithmeticError):
            return False, 0, "error"
        expect = [fmt(abs(z)), fmt(b.d), fmt(b.L), fmt(b.lower), fmt(b.upper), fmt(thm1), "", case, "true"]
        ok = (
            f[2:] == expect
            and math.isclose(float(f[3]), d_bf, rel_tol=1e-12, abs_tol=1e-15)
            and b.lower >= thm1
        )
        return ok, w, f[9]


class DemoSweep(SweepWorkload):
    name = "demo_sweep"
    spec_file = "demo.json"
    rows = 250
    smoke_rows = 20
    trace_ops = 8


class DenseSweep(SweepWorkload):
    """One sweep row per call through cli.sweep_rows and SweepRow.csv, on a
    spec the program loaded once.

    One row per call keeps enough calls in a run for latency percentiles.
    `hypbound sweep` parses the spec once per call, so going through cli.main
    here would charge that parse (and any index built at load) to every row
    instead of to `setup_s`.
    """

    name = "dense_sweep"
    spec_file = "dense.json"
    rows = 1
    smoke_rows = 1
    trace_ops = 60

    def __init__(self, hb, smoke: bool):
        super().__init__(hb, smoke)
        self.run_spec = hb.load_domain(str(self.spec_path))
        self.run_consts = hb.constants(self.run_spec.sequence)

    def run(self, sweep_seed: int):
        rows = self.hb.cli.sweep_rows(self.run_spec, self.run_consts, self.n, sweep_seed)
        return "".join(row.csv() + "\n" for row in rows)

    def collect(self, op, raw):
        return 0, (CSV_HEADER + "\n" + raw).encode()


# ---------------------------------------------------------------------------
# deep certificates


class DeepCertify(Workload):
    """halving.build_certificate + verify_certificate at deep query points."""

    name = "deep_certify"
    spec_file = "spiral.json"
    trace_ops = 1000
    smoke_trace_ops = 20

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        pts = [p for p in self.spec.sequence.resolved_points if abs(p) >= self.r_min]
        lo, hi = math.log(self.r_min), math.log(self.consts.delta / 2.0)
        hug_lo, hug_hi = math.log(1e-3), math.log(1.0 / 8.0)
        kind = 0
        while True:
            if kind == 0:
                # log-uniform modulus across the deep scales, any direction
                z = cmath.rect(math.exp(rng.uniform(lo, hi)), rng.uniform(0.0, math.tau))
            else:
                # hugging one sequence point at a log-uniform relative gap
                a = rng.choice(pts)
                gap = abs(a) * math.exp(rng.uniform(hug_lo, hug_hi))
                z = a + cmath.rect(gap, rng.uniform(0.0, math.tau))
            if in_domain(self.spec, z):
                yield z
                kind ^= 1

    def run(self, z: complex):
        cert = self.hb.halving.build_certificate(self.spec, self.consts, z)
        return cert, self.hb.halving.verify_certificate(self.spec, self.consts, cert)

    def check(self, z, out) -> Checked:
        res = Checked(1)
        cert, ok = out
        res.cases[cert.case_tag.value] += 1
        good = (
            ok
            and cert.z == z
            and cert.implied_lower >= self.consts.c / abs(z) - 1e-12
            and self.hb.verify_certificate(self.spec, self.consts, cert)
        )
        res.failed = 0 if good else 1
        return res


# ---------------------------------------------------------------------------
# one-shot CLI calls


class CliOneshot(Workload):
    """`python -m hypbound bounds|certify <demo spec> --z RE,IM` as a subprocess."""

    name = "cli_oneshot"
    spec_file = "demo.json"
    subprocesses = True
    trace_ops = 24

    def __init__(self, hb, smoke: bool):
        super().__init__(hb, smoke)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        i = 0
        while True:
            z = sample_in_domain(self.spec, rng, self.r_min)
            yield ("bounds", "certify")[i % 2], f"{z.real!r},{z.imag!r}"
            i += 1

    def argv(self, op) -> list[str]:
        cmd, zarg = op
        # the `=` form, because argparse reads "-0.3,0.1" as an option
        return [cmd, str(self.spec_path), f"--z={zarg}"]

    def run(self, op):
        p = subprocess.run(
            [sys.executable, "-m", "hypbound", *self.argv(op)],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=60,
        )
        return p.returncode, p.stdout

    def run_traced(self, op):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            rc = self.hb.cli.main(self.argv(op))
        return rc, buf.getvalue()

    def bare_python(self) -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, timeout=60, check=True)

    def check(self, op, out) -> Checked:
        res = Checked(1)
        rc, stdout = out
        cmd, zarg = op
        re_s, im_s = zarg.split(",")
        z = complex(float(re_s), float(im_s))
        try:
            b, thm1, case = self._rederive(z)
            if cmd == "bounds":
                got = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
                ok = got.get("case") == case and all(
                    got.get(k) == v
                    for k, v in (
                        ("d", fmt(b.d)), ("L", fmt(b.L)), ("bp_lower", fmt(b.lower)),
                        ("bp_upper", fmt(b.upper)), ("thm1_bound", fmt(thm1)), ("chain_ok", "true"),
                    )
                )
            else:
                cert, c = self.hb.certificate_from_dict(json.loads(stdout))
                ok = (
                    cert.case_tag.value == case
                    and c == self.consts.c
                    and cert.z == z
                    and self.hb.verify_certificate(self.spec, self.consts, cert)
                )
        except (ValueError, KeyError, LookupError, RuntimeError, ArithmeticError):
            ok, case = False, "error"
        res.cases[case] += 1
        res.failed = 0 if rc == 0 and ok else 1
        return res


WORKLOADS = {w.name: w for w in (DemoSweep, DenseSweep, DeepCertify, CliOneshot)}
