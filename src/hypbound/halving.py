"""Halving-sequence domains and the certified 1/|z| density lower bound.

A domain qualifies when its obstacle sequence a_0, a_1, ... satisfies the
halving condition |a_{n+1}| >= |a_n| / 2, the points are distinct, nonzero,
and head toward the origin.  For such domains the hyperbolic density obeys

    density(z) >= c / |z|

with the fully explicit constant

    c = min( 1 / (2*sqrt(2) * (kappa + ln(4/delta))),
             1 / (2*sqrt(2) * (kappa + 5 ln 2)) ),     delta = max |a_n|.

Each query point gets a Certificate replaying the case split behind the
bound: the nearest boundary point zeta, a second boundary point b whose gap
|zeta - b| is controlled, the resulting log ratio with its per-case cap,
and the density lower bound that follows.  Certificates can be re-verified
from scratch without trusting the builder.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from enum import Enum

from .bp import KAPPA, TWO_ROOT_TWO
from .geometry import (
    GEOM_TOL,
    HIT_TOL,
    TIE_REL,
    DomainSpec,
    SequenceSpec,
    UnitCircle,
    arc_then_radial,
    boundary_gap,
    first_boundary_hit,
    nearest_boundary,
)

DEFAULT_CERT_TOL = 1e-9


class HypothesisViolated(ValueError):
    """The obstacle sequence fails the halving hypothesis."""


class TruncationExceeded(LookupError):
    """The requested dyadic annulus lies below the resolved sequence."""


class ZeroArgument(ValueError):
    """The bound c/|z| is undefined at z = 0 (a boundary point)."""


class CertificateError(RuntimeError):
    """A certificate cannot be built, breaks its own inequalities or fails verification."""


class ToleranceError(ValueError):
    """HYPBOUND_TOL is set but is not a positive finite number."""


def certificate_tolerance() -> float:
    """Slack for certificate inequality checks.

    Defaults to 1e-9; the HYPBOUND_TOL environment variable overrides it.
    """
    raw = os.environ.get("HYPBOUND_TOL")
    if raw is None:
        return DEFAULT_CERT_TOL
    try:
        tol = float(raw)
    except ValueError as e:
        raise ToleranceError(f"HYPBOUND_TOL must be a number, got {raw!r}") from e
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ToleranceError("HYPBOUND_TOL must be a positive finite number")
    return tol


# ---------------------------------------------------------------------------
# hypothesis checks and constants


def check_halving(seq: SequenceSpec) -> None:
    """Gate for the halving hypothesis on the resolved points.

    Raises HypothesisViolated("at index i: reason") at the first violation.
    """
    pts = seq.resolved_points
    for i, p in enumerate(pts):
        if p == 0:
            raise HypothesisViolated(f"at index {i}: point {i} is zero")
    mags = [abs(p) for p in pts]
    for i in range(len(pts) - 1):
        if mags[i + 1] < 0.5 * mags[i]:
            raise HypothesisViolated(f"at index {i}: |a_{i + 1}| = {mags[i + 1]} drops below |a_{i}|/2")
    seen: dict[complex, int] = {}
    for i, p in enumerate(pts):
        if p in seen:
            raise HypothesisViolated(f"at index {i}: point {i} duplicates point {seen[p]}")
        seen[p] = i
    if len(pts) > 1 and mags[-1] >= mags[0]:
        raise HypothesisViolated(f"at index {len(pts) - 1}: magnitudes do not decrease overall")


@dataclass(frozen=True)
class HalvingConstants:
    delta: float
    c: float
    branch_log4delta: float
    branch_5log2: float
    c_circle: float
    c_deep_cap: float


def constants(seq: SequenceSpec) -> HalvingConstants:
    check_halving(seq)
    delta = max(abs(p) for p in seq.resolved_points)
    branch_log4delta = 1.0 / (TWO_ROOT_TWO * (KAPPA + math.log(4.0 / delta)))
    branch_5log2 = 1.0 / (TWO_ROOT_TWO * (KAPPA + 5.0 * math.log(2.0)))
    c = min(branch_log4delta, branch_5log2)
    c_circle = 1.0 / (TWO_ROOT_TWO * KAPPA)
    c_deep_cap = TWO_ROOT_TWO / (KAPPA + 2.0 * math.log(6.0))
    if not (c <= c_circle and c <= c_deep_cap):
        raise RuntimeError(f"c = {c} exceeds the circle or deep-case ceiling")
    return HalvingConstants(delta, c, branch_log4delta, branch_5log2, c_circle, c_deep_cap)


def dyadic_witness(seq: SequenceSpec, n: int) -> int:
    """Smallest index k with 2^{-(n+1)} delta < |a_k| <= 2^{-n} delta.

    The halving hypothesis guarantees such a point exists for every n until
    the resolved sequence runs out of depth; past that, TruncationExceeded.
    """
    if n < 0:
        raise ValueError("annulus index must be >= 0")
    delta = max(abs(p) for p in seq.resolved_points)
    hi = delta * 2.0 ** (-n)
    lo = delta * 2.0 ** (-(n + 1))
    for k, p in enumerate(seq.resolved_points):
        if lo < abs(p) <= hi:
            return k
    raise TruncationExceeded(
        f"no resolved point in ({lo}, {hi}]; the sequence is truncated above this scale"
    )


def lower_bound(consts: HalvingConstants, z: complex) -> float:
    """The certified density lower bound c/|z|."""
    if z == 0:
        raise ZeroArgument("z = 0 lies on the boundary, not in the domain")
    return consts.c / abs(z)


# ---------------------------------------------------------------------------
# certificates


class CaseTag(Enum):
    CIRCLE_NEAREST = "CircleNearest"
    FAR_FROM_E = "FarFromE"
    MID_RANGE = "MidRange"
    DEEP_SMALL_GAP = "DeepSmallGap"
    DEEP_COMPARABLE = "DeepComparable"


@dataclass(frozen=True)
class Certificate:
    case_tag: CaseTag
    z: complex
    zeta: complex
    b: complex
    log_ratio: float
    case_log_cap: float
    implied_lower: float


def _case_cap(tag: CaseTag, z: complex, zeta: complex, delta: float) -> float:
    if tag is CaseTag.CIRCLE_NEAREST:
        return 0.0
    if tag is CaseTag.FAR_FROM_E:
        return math.log(4.0 / delta)
    if tag is CaseTag.MID_RANGE:
        return math.log(2.0) - math.log(abs(z - zeta))
    if tag is CaseTag.DEEP_SMALL_GAP:
        return math.log(4.5) + math.log(abs(z) / abs(z - zeta))
    return math.log(32.0)


def _annulus_index(delta: float, r: float) -> int:
    """Unique n >= 0 with 2^{-(n+1)} delta < r <= 2^{-n} delta."""
    if not 0.0 < r <= delta:
        raise ValueError("radius outside (0, delta]")
    n = max(int(math.floor(math.log2(delta / r))), 0)
    while delta * 2.0 ** (-(n + 1)) >= r:
        n += 1
    while n > 0 and delta * 2.0 ** (-n) < r:
        n -= 1
    return n


def _interior_circle_point(spec: DomainSpec, radius: float) -> complex:
    """A point of G on S(0, radius): best of 64 directions by obstacle clearance."""
    best_gap = -1.0
    best_w = 0j
    for j in range(64):
        w = cmath.rect(radius, (2.0 * math.pi) * j / 64.0)
        gap = min(prim.set_distance(w) for prim in spec.obstacles)
        if gap > best_gap:
            best_gap, best_w = gap, w
    # the ring lies inside D, so best_w is in G exactly when it clears every obstacle
    if best_gap <= 0.0:
        raise CertificateError(
            f"no interior point found on the circle of radius {radius}; domain too degenerate"
        )
    return best_w


def _second_point_default(seq: SequenceSpec, zeta: complex, delta: float) -> complex:
    """A boundary point b with |zeta - b| >= delta/2.

    Either the origin, or the largest sequence point, whose modulus is delta,
    putting it at gap > delta/2 from any zeta with |zeta| < delta/2.
    """
    if abs(zeta) >= delta / 2.0:
        return 0j
    return max(seq.resolved_points, key=abs)


def build_certificate(spec: DomainSpec, consts: HalvingConstants, z: complex) -> Certificate:
    """Certificate for the bound density(z) >= c/|z| at a concrete z in G."""
    seq = spec.sequence
    if seq is None:
        raise HypothesisViolated("domain carries no obstacle sequence")
    nb = nearest_boundary(spec, z)
    delta = consts.delta
    prims = spec.primitives
    circle_witness = next(
        (w for i, w in nb.witnesses if isinstance(prims[i], UnitCircle)), None
    )

    if circle_witness is not None:
        # nearest boundary on the unit circle: a chord partner kills the log term
        tag = CaseTag.CIRCLE_NEAREST
        zeta = circle_witness
        gap = abs(z - zeta)
        phi = 2.0 * math.asin(min(gap / 2.0, 1.0))
        b = zeta * cmath.rect(1.0, phi)
    else:
        zeta = min(
            (w for _, w in nb.witnesses),
            key=lambda w: (abs(w), math.atan2(w.imag, w.real)),
        )
        gap = abs(z - zeta)
        if gap >= delta / 2.0:
            # z is at least half the outer scale away from its nearest point:
            # both |z - zeta| and |zeta - b| land in [delta/2, 2)
            tag = CaseTag.FAR_FROM_E
            b = _second_point_default(seq, zeta, delta)
        elif abs(z) >= delta / 2.0:
            # close to the obstacle but |z| itself is large
            tag = CaseTag.MID_RANGE
            b = _second_point_default(seq, zeta, delta)
        elif gap <= abs(z) / 8.0:
            # deep and hugging the obstacle: work at the dyadic scale of zeta,
            # two annuli down, reaching b along an arc plus a radial run
            tag = CaseTag.DEEP_SMALL_GAP
            n = _annulus_index(delta, abs(zeta))
            k1 = dyadic_witness(seq, n + 2)
            target = seq.resolved_points[k1]
            ring = delta * 2.0 ** (-(n + 2))
            w = _interior_circle_point(spec, ring)
            b = first_boundary_hit(spec, arc_then_radial(w, target))
        else:
            # deep with gap comparable to |z|
            tag = CaseTag.DEEP_COMPARABLE
            if abs(zeta) >= abs(z) / 4.0:
                b = 0j
            else:
                n = _annulus_index(delta, abs(z))
                k = dyadic_witness(seq, n)
                target = seq.resolved_points[k]
                b = first_boundary_hit(spec, arc_then_radial(z, target))

    log_ratio = abs(math.log(gap / abs(zeta - b)))
    cap = _case_cap(tag, z, zeta, delta)
    implied = 1.0 / (TWO_ROOT_TWO * gap * (KAPPA + log_ratio))
    if not log_ratio <= cap + certificate_tolerance():
        raise CertificateError(f"log ratio {log_ratio} exceeds cap {cap} ({tag.value}) at z = {z}")
    if not implied >= consts.c / abs(z) - 1e-12:
        raise CertificateError(f"implied bound {implied} falls below c/|z| at z = {z}")
    return Certificate(tag, z, zeta, b, log_ratio, cap, implied)


def verify_certificate(spec: DomainSpec, consts: HalvingConstants, cert: Certificate) -> bool:
    """Re-check every certificate invariant from scratch.

    Recomputes membership, the boundary distance, the log ratio, the case
    cap and the implied bound; returns False instead of raising, so
    tampered certificates are rejected rather than exploding.
    """
    tol = certificate_tolerance()
    z, zeta, b = cert.z, cert.zeta, cert.b
    try:
        nb = nearest_boundary(spec, z)
    except ValueError:
        return False
    gap = abs(z - zeta)
    if gap <= 0.0 or b == zeta:
        return False
    if not nb.d * (1.0 - TIE_REL) <= gap <= nb.d * (1.0 + TIE_REL):
        return False
    if boundary_gap(spec, zeta) > GEOM_TOL:
        return False
    if boundary_gap(spec, b) > HIT_TOL:
        return False
    log_ratio = abs(math.log(gap / abs(zeta - b)))
    cap = _case_cap(cert.case_tag, z, zeta, consts.delta)
    implied = 1.0 / (TWO_ROOT_TWO * gap * (KAPPA + log_ratio))
    return (
        abs(log_ratio - cert.log_ratio) <= tol
        and abs(cap - cert.case_log_cap) <= tol
        and log_ratio <= cap + tol
        and abs(implied - cert.implied_lower) <= tol * max(1.0, implied)
        and cert.implied_lower >= consts.c / abs(z) - 1e-12
        and TWO_ROOT_TWO * consts.c * (KAPPA + log_ratio) <= abs(z) / gap + tol
    )


# ---------------------------------------------------------------------------
# serialization


def certificate_to_dict(cert: Certificate, consts: HalvingConstants) -> dict:
    return {
        "case": cert.case_tag.value,
        "z": [cert.z.real, cert.z.imag],
        "zeta": [cert.zeta.real, cert.zeta.imag],
        "b": [cert.b.real, cert.b.imag],
        "log_ratio": cert.log_ratio,
        "case_log_cap": cert.case_log_cap,
        "implied_lower": cert.implied_lower,
        "c": consts.c,
    }


def certificate_from_dict(obj: dict) -> tuple[Certificate, float]:
    """Parse a serialized certificate; returns (certificate, c)."""

    def _point(key: str) -> complex:
        v = obj[key]
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError(f"field {key!r} must be [x, y]")
        return complex(float(v[0]), float(v[1]))

    cert = Certificate(
        CaseTag(obj["case"]),
        _point("z"),
        _point("zeta"),
        _point("b"),
        float(obj["log_ratio"]),
        float(obj["case_log_cap"]),
        float(obj["implied_lower"]),
    )
    return cert, float(obj["c"])
