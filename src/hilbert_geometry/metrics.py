"""The four distances on the interior of a convex polygon.

For interior points p, q with chord endpoints rear (behind p) and front
(beyond q):

    forward Funk    F(p, q) = ln(|p - front| / |q - front|)
    reverse Funk   rF(p, q) = F(q, p)
    Hilbert         H(p, q) = (F(p, q) + F(q, p)) / 2   (half the log cross-ratio)
    Thompson        T(p, q) = max(F(p, q), F(q, p))

On a polygon no chord is built: the ray p -> q leaves through the edge j
that maximizes s_j(p) / s_j(q), where s_j(y) = cross(e_j, y - a_j) is the
slack of edge a_j -> a_j + e_j, so F(p, q) = ln max_j s_j(p) / s_j(q) (de
la Harpe 1993, "On Hilbert's metric for simplices"; Papadopoulos &
Troyanov 2014, "From Funk to Hilbert geometry").

All four vanish at p = q; coincidence is decided by an EPS_GEOM-relative
Euclidean threshold because the formulas are singular there.
"""

from __future__ import annotations

import enum
import math

from .errors import Unreachable
from .geometry import (
    ConvexPolygon,
    Point2,
    _coincident,
    _ray,
    _require_direction,
    _require_interior,
)

EPS_DIST = 1e-7


class MetricKind(enum.Enum):
    FUNK = "funk"
    REVERSE_FUNK = "reverse_funk"
    HILBERT = "hilbert"
    THOMPSON = "thompson"

    @property
    def is_symmetric(self) -> bool:
        return self in (MetricKind.HILBERT, MetricKind.THOMPSON)

    @property
    def reversed_kind(self) -> "MetricKind":
        if self is MetricKind.FUNK:
            return MetricKind.REVERSE_FUNK
        if self is MetricKind.REVERSE_FUNK:
            return MetricKind.FUNK
        return self


def _funk_pair(omega: ConvexPolygon, p: Point2, q: Point2) -> tuple[float, float]:
    """(F(p, q), F(q, p)) from the edge slacks of p and q.

    A slack of q <= 0 puts q out of reach of p (F(p, q) = inf); a slack of
    p <= 0 only drops that edge from F(p, q)'s max.
    """
    px, py = p[0], p[1]
    qx, qy = q[0], q[1]
    fwd = back = 0.0  # max over edges of s(p)/s(q) and of s(q)/s(p)
    for ax, ay, ex, ey, _ in omega.edge_rows:
        sp = ex * (py - ay) - ey * (px - ax)
        sq = ex * (qy - ay) - ey * (qx - ax)
        if sq <= 0.0:
            fwd = math.inf
        elif sp / sq > fwd:
            fwd = sp / sq
        if sp <= 0.0:
            back = math.inf
        elif sq / sp > back:
            back = sq / sp
    return math.log(fwd), math.log(back)


def distance(omega: ConvexPolygon, kind: MetricKind, p: Point2, q: Point2) -> float:
    """The kind-distance from p to q; both must be interior points."""
    return _distance(omega, kind, _require_interior(omega, p), _require_interior(omega, q))


def _distance(omega: ConvexPolygon, kind: MetricKind, p: Point2, q: Point2) -> float:
    """distance for points already known to be interior."""
    if _coincident(omega, p, q):
        return 0.0
    fwd, back = _funk_pair(omega, p, q)
    if kind is MetricKind.FUNK:
        return fwd
    if kind is MetricKind.REVERSE_FUNK:
        return back
    if kind is MetricKind.HILBERT:
        return 0.5 * (fwd + back)
    return max(fwd, back)


def _check_radius(r: float) -> None:
    if r < 0.0 or not math.isfinite(r):
        raise ValueError(f"radius must be finite and >= 0, got {r}")


def _exp_minus_one(r: float) -> float:
    """e^r - 1, or inf once e^r overflows (r > 709.78)."""
    try:
        return math.exp(r) - 1.0
    except OverflowError:
        return math.inf


def offset_at_distance(kind: MetricKind, d_fwd: float, d_back: float, r: float) -> float:
    """Euclidean offset u with distance(kind, p, p + u*unit) == r.

    d_fwd / d_back are the boundary distances from p along +unit / -unit.
    Closed forms per metric; raises Unreachable when the reverse-Funk sphere
    leaves the domain in this direction (u would reach the boundary).
    """
    _check_radius(r)
    if r == 0.0:
        return 0.0
    if kind is MetricKind.FUNK:
        return d_fwd * (1.0 - math.exp(-r))
    if kind is MetricKind.REVERSE_FUNK:
        u = d_back * _exp_minus_one(r)
        if u >= d_fwd:
            raise Unreachable(
                f"no interior point at reverse-Funk distance {r} in this direction"
            )
        return u
    if kind is MetricKind.HILBERT:
        t = math.exp(-2.0 * r)  # e^(2r) would overflow past r = 354
        return (1.0 - t) * d_back * d_fwd / (d_fwd * t + d_back)
    # Thompson: max(F, rF) == r at the smaller of the two single-metric offsets.
    u_funk = d_fwd * (1.0 - math.exp(-r))
    u_rev = d_back * _exp_minus_one(r)
    return min(u_funk, u_rev)


def point_at_distance(
    omega: ConvexPolygon,
    kind: MetricKind,
    p: Point2,
    direction: Point2 | tuple[float, float],
    r: float,
) -> Point2:
    """The unique point q on the ray p + t*direction with distance(p, q) = r."""
    p = _require_interior(omega, p)
    dx, dy = _require_direction(direction)
    if r == 0.0:
        return p
    norm = math.hypot(dx, dy)
    ux, uy = dx / norm, dy / norm
    d_fwd = _ray(omega, p, ux, uy).distance
    d_back = _ray(omega, p, -ux, -uy).distance
    u = offset_at_distance(kind, d_fwd, d_back, r)
    return Point2(p.x + u * ux, p.y + u * uy)
