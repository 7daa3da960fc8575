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
from dataclasses import dataclass
from enum import Enum

from .bp import KAPPA, TWO_ROOT_TWO
from .geometry import (
    HIT_TOL,
    DomainSpec,
    NearestBoundary,
    SequenceSpec,
    UnitCircle,
    _reused_nearest,
    arc_then_radial,
    boundary_gap,
    first_boundary_hit,
    nearest_boundary,
    obstacle_gap,
)

# slack of the certificate inequality checks, in builder and verifier alike
CERT_TOL = 1e-9
# absolute slack of implied_lower >= c/|z|, in builder and verifier alike
FLOOR_TOL = 1e-12


class HypothesisViolated(ValueError):
    """The obstacle sequence fails the halving hypothesis."""


class TruncationExceeded(LookupError):
    """The requested dyadic annulus lies below the resolved sequence."""


class ZeroArgument(ValueError):
    """The bound c/|z| is undefined at z = 0 (a boundary point)."""


class CertificateError(RuntimeError):
    """A certificate cannot be built, breaks its own inequalities or fails verification."""


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


def constants(seq: SequenceSpec) -> HalvingConstants:
    check_halving(seq)
    delta = abs(seq.largest)
    if math.isinf(4.0 / delta):
        k = seq.resolved_points.index(seq.largest)
        raise HypothesisViolated(f"at index {k}: delta = |a_{k}| = {delta} is too small; 4/delta overflows")
    branch_log4delta = 1.0 / (TWO_ROOT_TWO * (KAPPA + math.log(4.0 / delta)))
    branch_5log2 = 1.0 / (TWO_ROOT_TWO * (KAPPA + 5.0 * math.log(2.0)))
    return HalvingConstants(delta, min(branch_log4delta, branch_5log2), branch_log4delta, branch_5log2)


def dyadic_witness(seq: SequenceSpec, n: int) -> int:
    """Smallest index k with 2^{-(n+1)} delta < |a_k| <= 2^{-n} delta.

    The halving hypothesis guarantees such a point exists for every n until
    the resolved sequence runs out of depth; past that, TruncationExceeded.
    """
    if n < 0:
        raise ValueError("annulus index must be >= 0")
    delta = abs(seq.largest)
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
    """Largest log ratio each case admits.

    CircleNearest: 0 lies on the boundary of G, so gap <= |z|, and c <=
    1/(2 sqrt 2 (kappa + 5 ln 2)); any cap <= 5 ln 2 keeps 2 sqrt 2 c (kappa +
    cap) <= 1 <= |z|/gap.  The chord partner b makes the log ratio 0 only in
    exact arithmetic, and ln 2 leaves room for its rounding.
    """
    if tag is CaseTag.CIRCLE_NEAREST:
        return math.log(2.0)
    if tag is CaseTag.FAR_FROM_E:
        return math.log(4.0 / delta)
    if tag is CaseTag.MID_RANGE:
        return math.log(2.0) - math.log(abs(z - zeta))
    if tag is CaseTag.DEEP_SMALL_GAP:
        return math.log(4.5) + math.log(abs(z) / abs(z - zeta))
    return math.log(32.0)


def _chain(tag: CaseTag, z: complex, zeta: complex, b: complex, delta: float) -> tuple[float, float, float]:
    """(log_ratio, case_log_cap, implied_lower) for the partner point b:
    |zeta - b| is one achievable distance from zeta, so log_ratio bounds L
    above and implied_lower stays below the Beardon-Pommerenke (1978) bound."""
    gap = abs(z - zeta)
    log_ratio = abs(math.log(gap / abs(zeta - b)))
    return log_ratio, _case_cap(tag, z, zeta, delta), 1.0 / (TWO_ROOT_TWO * gap * (KAPPA + log_ratio))


def _circle_witness(spec: DomainSpec, nb: NearestBoundary) -> complex | None:
    """The first nearest witness on the unit circle, if any."""
    return next((w for i, w in nb.witnesses if isinstance(spec.primitives[i], UnitCircle)), None)


def _case_tag(circle: complex | None, z: complex, gap: float, delta: float) -> CaseTag:
    """The case split behind the bound; circle is the unit-circle witness or None."""
    if circle is not None:
        return CaseTag.CIRCLE_NEAREST
    if gap >= delta / 2.0:
        # z is at least half the outer scale away from its nearest point:
        # both |z - zeta| and |zeta - b| land in [delta/2, 2)
        return CaseTag.FAR_FROM_E
    if abs(z) >= delta / 2.0:
        # close to the obstacle but |z| itself is large
        return CaseTag.MID_RANGE
    if gap <= abs(z) / 8.0:
        # deep and hugging the obstacle
        return CaseTag.DEEP_SMALL_GAP
    # deep with gap comparable to |z|
    return CaseTag.DEEP_COMPARABLE


def _annulus_index(delta: float, r: float) -> int:
    """Unique n >= 0 with 2^{-(n+1)} delta < r <= 2^{-n} delta."""
    if not 0.0 < r <= delta:
        raise ValueError("radius outside (0, delta]")
    n = max(int(math.floor(math.log2(delta) - math.log2(r))), 0)
    while delta * 2.0 ** (-(n + 1)) >= r:
        n += 1
    while n > 0 and delta * 2.0 ** (-n) < r:
        n -= 1
    return n


def _interior_circle_point(spec: DomainSpec, radius: float) -> complex:
    """A point of G on S(0, radius): the first of 64 directions with the
    largest obstacle clearance obstacle_gap."""
    best_gap = -1.0
    best_w = 0j
    for j in range(64):
        w = cmath.rect(radius, (2.0 * math.pi) * j / 64.0)
        gap = obstacle_gap(spec, w)
        if gap > best_gap:
            best_gap, best_w = gap, w
    # the ring lies inside D, so best_w is in G exactly when it clears every obstacle
    if best_gap <= 0.0:
        raise CertificateError(
            f"no interior point found on the circle of radius {radius}; domain too degenerate"
        )
    return best_w


def build_certificate(
    spec: DomainSpec, consts: HalvingConstants, z: complex, nb: NearestBoundary | None = None
) -> Certificate:
    """Certificate for the bound density(z) >= c/|z| at a concrete z in G;
    nb as in bp.bp_bounds."""
    seq = spec.sequence
    if seq is None:
        raise HypothesisViolated("domain carries no obstacle sequence")
    nb = _reused_nearest(nb, z) or nearest_boundary(spec, z)
    delta = consts.delta
    circle = _circle_witness(spec, nb)
    zeta = circle if circle is not None else min(
        (w for _, w in nb.witnesses), key=lambda w: (abs(w), math.atan2(w.imag, w.real))
    )
    gap = abs(z - zeta)
    tag = _case_tag(circle, z, gap, delta)

    if tag is CaseTag.CIRCLE_NEAREST:
        # a chord partner kills the log term
        phi = 2.0 * math.asin(min(gap / 2.0, 1.0))
        b = zeta * cmath.rect(1.0, phi)
    elif tag in (CaseTag.FAR_FROM_E, CaseTag.MID_RANGE):
        # |zeta - b| >= delta/2: the largest sequence point has modulus delta
        b = 0j if abs(zeta) >= delta / 2.0 else seq.largest
    elif tag is CaseTag.DEEP_SMALL_GAP:
        # work at the dyadic scale of zeta, two annuli down, reaching b
        # along an arc plus a radial run
        n = _annulus_index(delta, abs(zeta))
        k1 = dyadic_witness(seq, n + 2)
        target = seq.resolved_points[k1]
        ring = delta * 2.0 ** (-(n + 2))
        w = _interior_circle_point(spec, ring)
        b = first_boundary_hit(spec, arc_then_radial(w, target))
    elif 4.0 * abs(zeta) >= abs(z):
        # DeepComparable: the origin, or the dyadic witness at the scale of z;
        # |z| / 4 would underflow to 0 at the smallest subnormals and let
        # zeta = 0 pass with b = zeta
        b = 0j
    else:
        n = _annulus_index(delta, abs(z))
        k = dyadic_witness(seq, n)
        target = seq.resolved_points[k]
        b = first_boundary_hit(spec, arc_then_radial(z, target))

    log_ratio, cap, implied = _chain(tag, z, zeta, b, delta)
    if not log_ratio <= cap + CERT_TOL:
        raise CertificateError(f"log ratio {log_ratio} exceeds cap {cap} ({tag.value}) at z = {z}")
    if not implied >= consts.c / abs(z) - FLOOR_TOL:
        raise CertificateError(f"implied bound {implied} falls below c/|z| at z = {z}")
    return Certificate(tag, z, zeta, b, log_ratio, cap, implied)


def verify_certificate(spec: DomainSpec, consts: HalvingConstants, cert: Certificate) -> bool:
    """Re-check every certificate invariant from scratch.

    Recomputes membership and the nearest boundary of z, and accepts zeta
    only if that pass lists it, as the exact float, among the nearest
    witnesses; then recomputes the case tag, the log ratio, the case cap and
    the implied bound.  Returns False instead of raising, so tampered
    certificates are rejected rather than exploding.
    """
    z, zeta, b = cert.z, cert.zeta, cert.b
    try:
        nb = nearest_boundary(spec, z)
    except ValueError:
        return False
    if b == zeta or zeta not in [w for _, w in nb.witnesses]:
        return False
    gap = abs(z - zeta)
    if _case_tag(_circle_witness(spec, nb), z, gap, consts.delta) is not cert.case_tag:
        return False
    if boundary_gap(spec, b) > HIT_TOL:
        return False
    log_ratio, cap, implied = _chain(cert.case_tag, z, zeta, b, consts.delta)
    return (
        abs(log_ratio - cert.log_ratio) <= CERT_TOL
        and abs(cap - cert.case_log_cap) <= CERT_TOL
        and log_ratio <= cap + CERT_TOL
        and abs(implied - cert.implied_lower) <= CERT_TOL * max(1.0, implied)
        and cert.implied_lower >= consts.c / abs(z) - FLOOR_TOL
        and TWO_ROOT_TWO * consts.c * (KAPPA + log_ratio) <= abs(z) / gap + CERT_TOL
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
