"""Polygonal realizations of closed metric balls.

Construction recipes:

* forward-Funk ball: homothet of the domain about the center with ratio
  1 - e^(-r); always inside the domain.
* reverse-Funk ball: homothet of the point-reflected domain with ratio
  e^r - 1, clipped to the domain; once the homothet covers the domain, the
  ball is the domain itself.
* Hilbert ball: convex hull of the points at distance r from the center in
  both directions along every spoke (chord through the center and a domain
  vertex).
* Thompson ball: intersection of the forward and reverse Funk balls.

A ball of radius 0, or one whose shape rounds onto its center or to area
<= 0, is the single point {center}; it is stored with ``shape=None`` so
downstream clipping never sees a zero-area polygon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Degenerate
from .geometry import (
    ConvexPolygon,
    Point2,
    PointLocation,
    _ray,
    _require_interior,
    clip_convex,
    convex_hull,
    point_location,
)
from .metrics import MetricKind, _check_radius, distance

@dataclass(frozen=True)
class MetricBall:
    """A realized closed ball; shape is None for a ball collapsed to its center."""

    kind: MetricKind
    center: Point2
    radius: float
    domain: ConvexPolygon
    shape: ConvexPolygon | None

    def shape_points(self) -> tuple[Point2, ...]:
        if self.shape is None:
            return (self.center,)
        return self.shape.vertices


def half_spokes(omega: ConvexPolygon, p: Point2) -> list[tuple[float, float, float, float]]:
    """Directed half-spokes (ux, uy, d_fwd, d_back) sorted by angle around p.

    Each spoke contributes two opposite directions; coincident directions
    (p collinear with two domain vertices) are deduplicated.  The boundary
    distances depend only on p, so callers can cache the result and evaluate
    balls of many radii cheaply.
    """
    return _half_spokes(omega, _require_interior(omega, p))


def _half_spokes(omega: ConvexPolygon, p: Point2) -> list[tuple[float, float, float, float]]:
    """half_spokes for an interior p."""
    px, py = p.x, p.y
    entries: list[tuple[float, float, float, float, float]] = []
    for v in omega.vertices:
        d_fwd = math.hypot(v.x - px, v.y - py)
        ux, uy = (v.x - px) / d_fwd, (v.y - py) / d_fwd
        d_back = _ray(omega, p, -ux, -uy).distance
        entries.append((math.atan2(uy, ux), ux, uy, d_fwd, d_back))
        entries.append((math.atan2(-uy, -ux), -ux, -uy, d_back, d_fwd))
    entries.sort()
    out: list[tuple[float, float, float, float]] = []
    first_angle = last_angle = None
    for angle, ux, uy, d_fwd, d_back in entries:
        if last_angle is not None and angle - last_angle <= 1e-12:
            continue
        out.append((ux, uy, d_fwd, d_back))
        if first_angle is None:
            first_angle = angle
        last_angle = angle
    # Wrap-around duplicate: angles near -pi and pi are the same direction.
    if len(out) >= 2 and (last_angle - first_angle) >= 2.0 * math.pi - 1e-12:
        out.pop()
    return out


def hilbert_ball_points(
    spoke_frames: list[tuple[float, float, float, float]], p: Point2, r: float
) -> list[Point2]:
    """Hilbert-sphere points on every half-spoke, in CCW angular order.

    All points lie on the ball boundary, so the returned cycle is a (weakly)
    convex polygon even before collinear vertices are merged; solver hot
    paths clip against it directly without hulling.
    """
    t = math.exp(-2.0 * r)  # offset_at_distance's Hilbert form, inlined
    px, py = p.x, p.y
    pts = []
    for ux, uy, d_fwd, d_back in spoke_frames:
        u = (1.0 - t) * d_back * d_fwd / (d_fwd * t + d_back)
        pts.append(Point2(px + u * ux, py + u * uy))
    return pts


def funk_ball_points(omega: ConvexPolygon, p: Point2, r: float) -> list[Point2]:
    ratio = 1.0 - math.exp(-r)
    px, py = p[0], p[1]
    return [Point2(px + ratio * (v.x - px), py + ratio * (v.y - py)) for v in omega.vertices]


def reverse_funk_ball_points(omega: ConvexPolygon, p: Point2, r: float) -> list[Point2]:
    return _reflected(omega, p, math.exp(r) - 1.0)


def _reflected(omega: ConvexPolygon, p: Point2, ratio: float) -> list[Point2]:
    # Point reflection is a half-turn, so the vertex order stays CCW.
    px, py = p[0], p[1]
    return [Point2(px + ratio * (px - v.x), py + ratio * (py - v.y)) for v in omega.vertices]


def _homothet(pts: list[Point2], p: Point2) -> ConvexPolygon | None:
    """The homothet on pts, or None once its ratio rounds every vertex onto p."""
    return None if all(v == p for v in pts) else ConvexPolygon(tuple(pts))


def _funk_shape(omega: ConvexPolygon, p: Point2, r: float) -> ConvexPolygon | None:
    return _homothet(funk_ball_points(omega, p, r), p)


def _reverse_funk_shape(omega: ConvexPolygon, p: Point2, r: float) -> ConvexPolygon | None:
    # The homothet covers omega exactly when its inverse, ratio 1 / (e^r - 1),
    # lies inside omega; testing that first keeps large r from overflowing.
    inverse = _reflected(omega, p, math.exp(-r) / -math.expm1(-r))
    if all(point_location(omega, v) is PointLocation.INTERIOR for v in inverse):
        return omega
    # Clip omega, not the homothet: its vertices and edges are the short ones.
    homothet = _homothet(reverse_funk_ball_points(omega, p, r), p)
    return None if homothet is None else clip_convex(omega, homothet).polygon


def _hilbert_shape(omega: ConvexPolygon, p: Point2, r: float) -> ConvexPolygon | None:
    pts = hilbert_ball_points(_half_spokes(omega, p), p, r)
    try:
        return convex_hull(pts)
    except Degenerate:
        return None  # radius tiny relative to the domain scale


def _thompson_shape(omega: ConvexPolygon, p: Point2, r: float) -> ConvexPolygon | None:
    rev, fwd = _reverse_funk_shape(omega, p, r), _funk_shape(omega, p, r)
    return None if rev is None or fwd is None else clip_convex(fwd, rev).polygon


_SHAPES = {
    MetricKind.FUNK: _funk_shape,
    MetricKind.REVERSE_FUNK: _reverse_funk_shape,
    MetricKind.HILBERT: _hilbert_shape,
    MetricKind.THOMPSON: _thompson_shape,
}


def ball(omega: ConvexPolygon, kind: MetricKind, p: Point2, r: float) -> MetricBall:
    """The closed kind-ball of radius r about the interior point p."""
    p = _require_interior(omega, p)
    _check_radius(r)
    if r == 0.0:
        return MetricBall(kind, p, 0.0, omega, None)
    shape = _SHAPES[kind](omega, p, r)
    if shape is not None and not shape.area > 0.0:
        shape = None  # rounded flat; area's sign is exact even a few ulps wide
    return MetricBall(kind, p, r, omega, shape)


def contains(b: MetricBall, x: Point2, slack: float) -> bool:
    """Distance-based membership test: d(center, x) <= radius + slack.

    Deliberately not shape-based, so membership and the polygonal
    realization can never disagree.
    """
    return distance(b.domain, b.kind, b.center, x) <= b.radius + slack

