"""Command line front end: validate, bounds, certify, sweep, slit-audit, oracle-check.

Exit codes: 0 success, 1 property or hypothesis failure, 2 I/O, spec or
argument error; `main` maps each expected exception to its code through one
table (EXIT_CODES), never to a traceback.  Write `--z=RE,IM` when RE < 0, as
argparse reads `--z -0.3,0.1` as an option.  `sweep --jobs` has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections.abc import Iterator
from dataclasses import astuple, dataclass, fields
from itertools import combinations

from . import bp, geometry, halving, oracles

CSV_HEADER = "z_re,z_im,abs_z,d,L,bp_lower,bp_upper,thm1_bound,oracle,case,chain_ok"


class RejectionStarvation(RuntimeError):
    """Sampling kept rejecting; the domain spec is degenerate."""


class BadDelta(ValueError):
    """Slit audit needs 0 < delta < 1/4 so the probe point stays interior."""


class UsageError(ValueError):
    """A malformed command line argument."""


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# rows


@dataclass(frozen=True)
class SweepRow:
    z: complex
    abs_z: float
    d: float
    L: float
    bp_lower: float
    bp_upper: float
    thm1_bound: float
    case_tag: halving.CaseTag
    chain_ok: bool

    def csv(self) -> str:
        return ",".join(
            [
                _fmt(self.z.real),
                _fmt(self.z.imag),
                _fmt(self.abs_z),
                _fmt(self.d),
                _fmt(self.L),
                _fmt(self.bp_lower),
                _fmt(self.bp_upper),
                _fmt(self.thm1_bound),
                "",  # oracle: no sweep row has a closed form; kept for the schema
                self.case_tag.value,
                "true" if self.chain_ok else "false",
            ]
        )


def point_row(spec: geometry.DomainSpec, consts: halving.HalvingConstants, z: complex) -> SweepRow:
    """One sweep row; bounds and certificate share one nearest-boundary pass,
    and the verifier makes its own."""
    nb = geometry.nearest_boundary(spec, z)
    bounds = bp.compute_L(spec, nb)
    thm1 = halving.lower_bound(consts, z)
    cert = halving.build_certificate(spec, consts, z, nb=nb)
    if not halving.verify_certificate(spec, consts, cert):
        raise halving.CertificateError(f"certificate failed verification at z = {z}")
    return SweepRow(
        z,
        abs(z),
        bounds.d,
        bounds.L,
        bounds.lower,
        bounds.upper,
        thm1,
        cert.case_tag,
        bounds.lower >= thm1,
    )


# ---------------------------------------------------------------------------
# sampling


def sample_domain_points(
    spec: geometry.DomainSpec, seed: int, n: int, r_min: float = 0.0
) -> Iterator[complex]:
    """n uniform points of G with |z| >= r_min, by rejection.

    Point i draws from its own stream random.Random(f"{seed}/{i}"), so
    the streams of different seeds never overlap (a str seed is hashed
    with SHA-512, the same on every run).  Sampling stops with
    RejectionStarvation once acceptance is below 1% after at least 100000
    draws.
    """
    trials = 0
    for i in range(n):
        rng = random.Random(f"{seed}/{i}")
        while True:
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            trials += 1
            if abs(z) >= r_min and geometry.contains(spec, z) is geometry.Membership.IN_G:
                break
            if trials >= 100_000 and i < 0.01 * trials:
                raise RejectionStarvation(
                    "acceptance rate below 1% over 100000 trials; degenerate domain spec"
                )
        yield z


def sweep_rows(
    spec: geometry.DomainSpec, consts: halving.HalvingConstants, n: int, seed: int
) -> list[SweepRow]:
    """Rows at n sampled points; |z| stays at least 10x the resolved sequence
    floor, so dyadic witnesses exist at every sampled scale."""
    floor = spec.sequence.floor if spec.sequence else 0.0
    return [point_row(spec, consts, z) for z in sample_domain_points(spec, seed, n, 10.0 * floor)]


# ---------------------------------------------------------------------------
# slit audit


@dataclass(frozen=True)
class SlitAuditRow:
    delta: float
    d: float
    L_paper: float
    L_literal: float
    bp_upper_paper: float
    bp_upper_literal: float
    c_ceiling_paper: float

    def csv(self) -> str:
        return ",".join(_fmt(v) for v in astuple(self))


SLIT_HEADER = ",".join(f.name for f in fields(SlitAuditRow))


def _c_ceiling(delta: float, L: float) -> float:
    """Ceiling on any admissible c from the upper bound at z = 1/2: |z| * upper."""
    return (bp.KAPPA + math.pi / 4.0) / ((1.0 - 2.0 * delta) * (bp.KAPPA + L))


def slit_audit_row(delta: float) -> SlitAuditRow:
    """Audit row for the radial-slit domain probed at z = 1/2.

    L_paper keeps only the gap back to the slit tip; L_literal is the full
    minimized quantity, which can instead be realized on the unit circle.
    Both upper bounds and the ceiling c <= |z| * upper are reported side by
    side without judgment.
    """
    if not 0.0 < delta < 0.25:
        raise BadDelta(f"delta = {delta} outside (0, 1/4)")
    try:
        seq = geometry.SequenceSpec.geometric(delta, 0.5, 60)
        spec = geometry.DomainSpec.build([geometry.Segment(0j, complex(delta, 0.0))], seq)
    except geometry.SpecError as e:
        raise BadDelta(f"delta = {delta}: {e}") from e
    z = complex(0.5, 0.0)
    r = bp.bp_bounds(spec, z)
    d_paper = 0.5 - delta
    L_paper = math.log((0.5 - delta) / delta)
    upper_paper = (bp.KAPPA + math.pi / 4.0) / (d_paper * (bp.KAPPA + L_paper))
    ceiling_paper = _c_ceiling(delta, L_paper)
    return SlitAuditRow(delta, d_paper, L_paper, r.L, upper_paper, r.upper, ceiling_paper)


# ---------------------------------------------------------------------------
# shared command plumbing


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError as e:
        raise UsageError(e) from e


def _parse_z(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected RE,IM, got {raw!r}")
    z = complex(_float(parts[0]), _float(parts[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError(f"query point {raw!r} is not finite")
    return z


def _count(raw: str) -> int:
    """argparse type of --n: a non-negative integer."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return int(raw)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")


def _validation_warnings(spec: geometry.DomainSpec):
    seq = spec.sequence
    if seq is not None and seq.floor > 1e-10:
        yield (
            "sequence truncated above 1e-10; deep queries near the origin may "
            "exhaust the resolved dyadic annuli"
        )
    fat = [
        (i, p)
        for i, p in enumerate(spec.primitives)
        if isinstance(p, (geometry.Segment, geometry.ObstacleDisk))
    ]
    for (i, p), (j, q) in combinations(fat, 2):
        if geometry.primitive_clearance(p, q) < 1e-6:
            yield f"primitives {i} and {j} nearly touch; G may be disconnected"
    for i, p in fat:
        if 1.0 - p.distance_interval(0j)[1] < 1e-6:
            yield f"primitive {i} nearly touches the unit circle; G may be disconnected"
    for i, p in enumerate(spec.primitives):
        if isinstance(p, geometry.ObstacleDisk) and abs(p.center) < p.radius - 1e-12:
            yield (
                f"primitive {i} contains the origin in its interior; the origin "
                "is then not a boundary point of G"
            )


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    spec = geometry.load_domain(args.spec)
    try:
        consts = halving.constants(spec.sequence)
    except halving.HypothesisViolated as e:
        print(f"halving check: FAIL {e}")
        return 1
    print("halving check: ok")
    print(f"points resolved = {len(spec.sequence.resolved_points)}")
    print(f"delta = {_fmt(consts.delta)}")
    print(f"c = {_fmt(consts.c)}")
    print(f"branch log(4/delta) = {_fmt(consts.branch_log4delta)}")
    print(f"branch 5 log 2      = {_fmt(consts.branch_5log2)}")
    binding = "log(4/delta)" if consts.branch_log4delta <= consts.branch_5log2 else "5 log 2"
    print(f"binding branch = {binding}")
    for msg in _validation_warnings(spec):
        print(f"warning: {msg}")
    return 0


def cmd_bounds(args) -> int:
    spec = geometry.load_domain(args.spec)
    consts = halving.constants(spec.sequence)
    row = point_row(spec, consts, _parse_z(args.z))
    if args.csv:
        print(CSV_HEADER)
        print(row.csv())
    else:
        print(f"z = {_fmt(row.z.real)} + {_fmt(row.z.imag)}i")
        print(f"|z| = {_fmt(row.abs_z)}")
        print(f"d = {_fmt(row.d)}")
        print(f"L = {_fmt(row.L)}")
        print(f"bp_lower = {_fmt(row.bp_lower)}")
        print(f"bp_upper = {_fmt(row.bp_upper)}")
        print(f"thm1_bound = {_fmt(row.thm1_bound)}")
        print(f"case = {row.case_tag.value}")
        print(f"chain_ok = {'true' if row.chain_ok else 'false'}")
    return 0


def cmd_certify(args) -> int:
    spec = geometry.load_domain(args.spec)
    consts = halving.constants(spec.sequence)
    cert = halving.build_certificate(spec, consts, _parse_z(args.z))
    print(json.dumps(halving.certificate_to_dict(cert, consts)))
    return 0 if halving.verify_certificate(spec, consts, cert) else 1


def cmd_sweep(args) -> int:
    spec = geometry.load_domain(args.spec)
    rows = sweep_rows(spec, halving.constants(spec.sequence), args.n, args.seed)
    _write_csv(args.out, CSV_HEADER, rows)
    bad = next((row for row in rows if not row.chain_ok), None)
    if bad is not None:
        print(f"chain violation: {bad.csv()}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_slit_audit(args) -> int:
    deltas = [_float(s) for s in args.deltas.split(",") if s]
    if not deltas:
        raise UsageError("empty delta list")
    rows = [slit_audit_row(d) for d in deltas]
    _write_csv(args.out, SLIT_HEADER, rows)
    prod_paper = max(r.c_ceiling_paper * math.log(1.0 / r.delta) for r in rows)
    prod_literal = max(_c_ceiling(r.delta, r.L_literal) * math.log(1.0 / r.delta) for r in rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(f"sup over grid of c_ceiling_paper * log(1/delta)   = {_fmt(prod_paper)}")
    print(f"sup over grid of c_ceiling_literal * log(1/delta) = {_fmt(prod_literal)}")
    for r in rows:
        tag = "equal" if abs(r.L_paper - r.L_literal) <= 1e-12 else "differ"
        print(f"delta = {_fmt(r.delta)}: L_paper and L_literal {tag} "
              f"({_fmt(r.L_paper)} vs {_fmt(r.L_literal)})")
    return 0


def cmd_oracle_check(args) -> int:
    kind = oracles.OracleDomain(args.kind)
    spec = oracles.oracle_fixture(kind)
    for z in sample_domain_points(spec, args.seed, args.n):
        bounds = bp.bp_bounds(spec, z)
        lam = oracles.oracle_density(kind, z)
        if not bounds.lower <= lam <= bounds.upper:
            print(
                f"sandwich violation at z = {z}: lower {_fmt(bounds.lower)}, "
                f"oracle {_fmt(lam)}, upper {_fmt(bounds.upper)}",
                file=sys.stderr,
            )
            return 1
    print(f"{args.n} points: oracle stays inside the two-sided bounds")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypbound",
        description="Certified two-sided hyperbolic density estimates on unit-disk domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the halving hypothesis and report constants")
    p.add_argument("spec", help="domain spec JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", help="two-sided bounds at one point")
    p.add_argument("spec")
    p.add_argument("--z", required=True, help="query point as RE,IM; a negative RE needs --z=RE,IM")
    p.add_argument("--csv", action="store_true", help="emit a CSV row instead of text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("certify", help="build and verify a certificate at one point")
    p.add_argument("spec")
    p.add_argument("--z", required=True, help="query point as RE,IM; a negative RE needs --z=RE,IM")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="random audit sweep to CSV")
    p.add_argument("spec")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("slit-audit", help="radial-slit domain audit at z = 1/2")
    p.add_argument("--deltas", required=True, help="comma-separated slit lengths in (0, 1/4)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slit_audit)

    p = sub.add_parser("oracle-check", help="closed-form density against the two-sided bounds")
    p.add_argument("--kind", required=True, choices=[k.value for k in oracles.OracleDomain])
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    return parser


# exception types -> (stderr prefix, exit code); the first matching entry wins
EXIT_CODES = (
    ((geometry.NotInDomain, halving.ZeroArgument), "not in domain", 1),
    ((halving.HypothesisViolated,), "hypothesis failure", 1),
    ((halving.TruncationExceeded,), "truncation", 1),
    ((RejectionStarvation,), "sampling failure", 1),
    ((halving.CertificateError,), "certificate failure", 1),
    ((geometry.SpecError, OSError, BadDelta, UsageError), "error", 2),
)
_MAPPED = tuple(t for types, _, _ in EXIT_CODES for t in types)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _MAPPED as e:
        prefix, code = next((p, c) for types, p, c in EXIT_CODES if isinstance(e, types))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
