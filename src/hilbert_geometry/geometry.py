"""Tolerance-aware planar primitives.

Everything downstream (distances, balls, solvers) is built on the
predicates in this module, which all share a single relative tolerance
``EPS_GEOM``, measured in an extent that translation does not change:
``ConvexPolygon.scale`` (the larger side of the vertex bounding box), or in
:func:`orientation` the triangle's own.  A polygon and its translate give
the same answers up to coordinate rounding, measured to offsets of 1e5
times the extent; at 1e6, rounding outgrows the solvers' clip band.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import CoincidentPoints, Degenerate, EmptyRegion, NotConvex, NotInterior

EPS_GEOM = 1e-9


class Point2(NamedTuple):
    """A point in the plane.  Tuple order gives lexicographic comparison."""

    x: float
    y: float


def _require_finite(p: Point2) -> Point2:
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ValueError(f"non-finite coordinate: {p}")
    return p


def _extent(pts: Iterable[Point2]) -> float:
    """Larger side of the bounding box of pts."""
    xs, ys = zip(*pts)
    return max(max(xs) - min(xs), max(ys) - min(ys))


def orientation(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the signed twice-area of triangle abc (+1 CCW, -1 CW, 0 flat).

    Returns 0 when |area| <= EPS_GEOM * size**2, size being the largest
    coordinate difference within the triangle, so the answer depends on
    the triangle's shape, not on where it sits.
    """
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = c[0] - a[0], c[1] - a[1]
    cross = ux * vy - uy * vx
    size = max(abs(ux), abs(uy), abs(vx), abs(vy), abs(vx - ux), abs(vy - uy))
    if abs(cross) <= EPS_GEOM * size * size:
        return 0
    return 1 if cross > 0.0 else -1


@dataclass(frozen=True)
class ConvexPolygon:
    """A strictly convex polygon with counterclockwise vertex order.

    Instances are produced by :func:`normalize_polygon` / :func:`convex_hull`
    for untrusted input; internal constructions (homothets, realized balls)
    build directly from vertex tuples they already know to be valid.
    """

    vertices: tuple[Point2, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterable[tuple[Point2, Point2]]:
        verts = self.vertices
        for i, a in enumerate(verts):
            yield a, verts[(i + 1) % len(verts)]

    @cached_property
    def scale(self) -> float:
        """Larger side of the vertex bounding box; the tolerance unit."""
        return _extent(self.vertices)

    @cached_property
    def edge_rows(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """Rows (a_x, a_y, e_x, e_y, band) per edge a -> a + e: the slack
        s(y) = e_x*(y_y - a_y) - e_y*(y_x - a_x) is positive inside, and
        band = EPS_GEOM * scale * |e| is point_location's boundary band."""
        unit = EPS_GEOM * self.scale
        return tuple(
            (a.x, a.y, b.x - a.x, b.y - a.y, unit * math.hypot(b.x - a.x, b.y - a.y))
            for a, b in self.edges()
        )

    @cached_property
    def area(self) -> float:
        """Shoelace area, measured about the first vertex: differences stay
        exact on a polygon a few ulps wide, where absolute products cancel."""
        ox, oy = self.vertices[0]
        acc = 0.0
        for a, b in self.edges():
            acc += (a.x - ox) * (b.y - oy) - (b.x - ox) * (a.y - oy)
        return 0.5 * acc


@dataclass(frozen=True)
class Segment2:
    """A segment with canonical (lexicographic) endpoint order.

    a == b encodes a single point.
    """

    a: Point2
    b: Point2

    def __post_init__(self) -> None:
        if self.b < self.a:
            first, second = self.b, self.a
            object.__setattr__(self, "a", first)
            object.__setattr__(self, "b", second)


class RegionKind(enum.Enum):
    EMPTY = "empty"
    POINT = "point"
    SEGMENT = "segment"
    POLYGON = "polygon"


@dataclass(frozen=True)
class ClipResult:
    """A convex region classified by dimension."""

    kind: RegionKind
    point: Point2 | None = None
    segment: Segment2 | None = None
    polygon: ConvexPolygon | None = None

    @classmethod
    def empty(cls) -> "ClipResult":
        return cls(RegionKind.EMPTY)

    @classmethod
    def of_point(cls, p: Point2) -> "ClipResult":
        return cls(RegionKind.POINT, point=p)

    @classmethod
    def of_segment(cls, a: Point2, b: Point2) -> "ClipResult":
        return cls(RegionKind.SEGMENT, segment=Segment2(a, b))

    @classmethod
    def of_polygon(cls, poly: ConvexPolygon) -> "ClipResult":
        return cls(RegionKind.POLYGON, polygon=poly)

    @property
    def is_empty(self) -> bool:
        return self.kind is RegionKind.EMPTY

    def corner_points(self) -> tuple[Point2, ...]:
        """Extreme points of the region (vertices / endpoints / the point)."""
        if self.kind is RegionKind.POINT:
            return (self.point,)
        if self.kind is RegionKind.SEGMENT:
            return (self.segment.a, self.segment.b)
        if self.kind is RegionKind.POLYGON:
            return self.polygon.vertices
        return ()


class PointLocation(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def _merge_close(pts: Iterable[Point2], sep_tol: float) -> list[Point2]:
    """pts without each point within sep_tol of the one kept before it,
    cyclically (the last is also merged into the first)."""
    merged: list[Point2] = []
    for p in pts:
        if not merged or math.hypot(p.x - merged[-1].x, p.y - merged[-1].y) > sep_tol:
            merged.append(p)
    while len(merged) >= 2 and math.hypot(
        merged[0].x - merged[-1].x, merged[0].y - merged[-1].y
    ) <= sep_tol:
        merged.pop()
    return merged


def normalize_polygon(raw: Sequence[Point2 | tuple[float, float]]) -> ConvexPolygon:
    """Canonicalize a vertex list into a ConvexPolygon.

    Reorders counterclockwise starting at the lexicographic minimum, merges
    duplicate and collinear vertices, and rejects anything that is not
    strictly convex afterwards.
    """
    pts = [_require_finite(Point2(float(p[0]), float(p[1]))) for p in raw]
    if len(pts) < 3:
        raise Degenerate(f"need at least 3 vertices, got {len(pts)}")

    # Counterclockwise orientation from the signed area of the cycle.
    area2 = 0.0
    for i, a in enumerate(pts):
        b = pts[(i + 1) % len(pts)]
        area2 += a.x * b.y - b.x * a.y
    if area2 < 0.0:
        pts.reverse()

    merged = _merge_close(pts, EPS_GEOM * _extent(pts))

    # Drop collinear vertices until stable.
    changed = True
    while changed and len(merged) >= 3:
        changed = False
        kept: list[Point2] = []
        n = len(merged)
        for i in range(n):
            prev = merged[(i - 1) % n]
            nxt = merged[(i + 1) % n]
            if orientation(prev, merged[i], nxt) == 0:
                changed = True
            else:
                kept.append(merged[i])
        merged = kept

    if len(merged) < 3:
        raise Degenerate("fewer than 3 vertices survive merging")

    n = len(merged)
    for i in range(n):
        if orientation(merged[i], merged[(i + 1) % n], merged[(i + 2) % n]) <= 0:
            raise NotConvex("vertex triple with non-positive orientation")

    start = min(range(n), key=lambda i: merged[i])
    return ConvexPolygon(tuple(merged[start:] + merged[:start]))


def convex_hull(points: Sequence[Point2 | tuple[float, float]]) -> ConvexPolygon:
    """Strict convex hull (monotone chain); collinear points are dropped."""
    pts = sorted({Point2(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 3:
        raise Degenerate("need at least 3 distinct points")
    for p in pts:
        _require_finite(p)

    def build(seq: Iterable[Point2]) -> list[Point2]:
        chain: list[Point2] = []
        for p in seq:
            while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise Degenerate("all points collinear")
    return ConvexPolygon(tuple(hull))


def point_location(omega: ConvexPolygon, p: Point2) -> PointLocation:
    """Classify p against the polygon, with an EPS_GEOM boundary band.

    Non-finite points are EXTERIOR, so this one test gates every entry point.
    """
    px, py = float(p[0]), float(p[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        return PointLocation.EXTERIOR
    on_edge = False
    for ax, ay, ex, ey, band in omega.edge_rows:
        cross = ex * (py - ay) - ey * (px - ax)
        if cross < -band:
            return PointLocation.EXTERIOR
        if cross <= band:
            on_edge = True
    return PointLocation.BOUNDARY if on_edge else PointLocation.INTERIOR


def _require_interior(omega: ConvexPolygon, p: Point2) -> Point2:
    p = Point2(float(p[0]), float(p[1]))
    if point_location(omega, p) is not PointLocation.INTERIOR:
        raise NotInterior(f"point {tuple(p)} is not interior")
    return p


def _require_direction(direction: Point2 | tuple[float, float]) -> tuple[float, float]:
    """The direction, checked and scaled by a power of two to a largest
    component in [0.5, 1), so no product in a ray kernel under- or overflows."""
    dx, dy = float(direction[0]), float(direction[1])
    if not (math.isfinite(dx) and math.isfinite(dy)) or (dx == 0.0 and dy == 0.0):
        raise ValueError(f"direction must be finite and nonzero, got {(dx, dy)}")
    k = -math.frexp(max(abs(dx), abs(dy)))[1]
    return math.ldexp(dx, k), math.ldexp(dy, k)


def _coincident(omega: ConvexPolygon, p: Point2, q: Point2) -> bool:
    return math.hypot(p[0] - q[0], p[1] - q[1]) <= EPS_GEOM * omega.scale


class RayHit(NamedTuple):
    point: Point2
    edge_index: int
    distance: float


def ray_boundary_intersection(
    omega: ConvexPolygon, p: Point2, direction: Point2 | tuple[float, float]
) -> RayHit:
    """Where the ray from interior point p leaves the polygon.

    The exit is the least slack ratio over the edges the ray heads out of;
    a ray through a vertex exits by the edge starting at that vertex, which
    makes chord construction deterministic.  Raises only for a p that is not
    interior or a direction that is not finite and nonzero.
    """
    p = _require_interior(omega, p)
    dx, dy = _require_direction(direction)
    return _ray(omega, p, dx, dy)


def _ray(omega: ConvexPolygon, p: Point2, dx: float, dy: float) -> RayHit:
    """ray_boundary_intersection for an interior p and a nonzero direction.

    Along the ray, edge j's slack falls as s_j(p) + t*c_j with
    c_j = e_x*dy - e_y*dx, so a ray with c_j < 0 reaches edge j's line at
    t_j = s_j(p) / -c_j, and it leaves the polygon at the least t_j.  An
    exact tie is a vertex: it goes to the later of two consecutive edges
    (edge 0 over edge m-1), the one starting at that vertex.
    """
    px, py = p[0], p[1]
    t, idx = math.inf, -1
    for j, (ax, ay, ex, ey, _) in enumerate(omega.edge_rows):
        c = ex * dy - ey * dx
        if c < 0.0:
            t_j = (ex * (py - ay) - ey * (px - ax)) / -c
            if t_j < t or (t_j == t and j == idx + 1):
                t, idx = t_j, j
    return RayHit(Point2(px + t * dx, py + t * dy), idx, t * math.hypot(dx, dy))


@dataclass(frozen=True)
class ChordFrame:
    """The chord through two interior points p, q.

    ``rear`` is the boundary endpoint behind p and ``front`` the endpoint
    beyond q, so the four points appear in order rear, p, q, front along the
    chord.  The stored lengths satisfy d_p_rear < d_q_rear and
    d_q_front < d_p_front.
    """

    rear: Point2
    front: Point2
    d_p_rear: float
    d_q_rear: float
    d_p_front: float
    d_q_front: float


def chord_frame(omega: ConvexPolygon, p: Point2, q: Point2) -> ChordFrame:
    """Chord endpoints and the four endpoint distances for interior p != q."""
    p = _require_interior(omega, p)
    q = _require_interior(omega, q)
    if _coincident(omega, p, q):
        raise CoincidentPoints(f"points {tuple(p)} and {tuple(q)} coincide")
    return _chord(omega, p, q)


def _chord(omega: ConvexPolygon, p: Point2, q: Point2) -> ChordFrame:
    """chord_frame for interior, non-coincident p and q."""
    px, py = p[0], p[1]
    qx, qy = q[0], q[1]
    front = _ray(omega, p, qx - px, qy - py).point
    rear = _ray(omega, p, px - qx, py - qy).point
    return ChordFrame(
        rear=rear,
        front=front,
        d_p_rear=math.hypot(px - rear.x, py - rear.y),
        d_q_rear=math.hypot(qx - rear.x, qy - rear.y),
        d_p_front=math.hypot(px - front.x, py - front.y),
        d_q_front=math.hypot(qx - front.x, qy - front.y),
    )


def clip_halfplane(
    pts: list[Point2], a: Point2, b: Point2, tol: float
) -> list[Point2]:
    """Keep the part of a convex chain on the left of directed line a->b.

    tol is a distance: points at most tol outside the line count as inside,
    so tangential intersections survive as degenerate chains.  An edge is
    cut where it crosses the line itself; one that only reaches into the
    band is not cut, since its crossing would lie beyond its ends.
    """
    if not pts:
        return pts
    ax, ay = a[0], a[1]
    ex, ey = b[0] - ax, b[1] - ay
    tol *= math.hypot(ex, ey)  # the cross product below is |e| * distance
    out: list[Point2] = []
    prev = pts[-1]
    d_prev = ex * (prev[1] - ay) - ey * (prev[0] - ax)
    for cur in pts:
        d_cur = ex * (cur[1] - ay) - ey * (cur[0] - ax)
        if d_cur >= -tol:
            if d_prev < -tol and d_cur >= 0.0:
                t = d_prev / (d_prev - d_cur)
                out.append(
                    Point2(prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            out.append(cur)
        elif d_prev >= 0.0:
            t = d_prev / (d_prev - d_cur)
            out.append(
                Point2(prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
            )
        prev = cur
        d_prev = d_cur
    return out


def clip_by_polygon(
    pts: list[Point2], clip: Sequence[Point2], tol: float
) -> list[Point2]:
    """Sutherland-Hodgman clip of a convex chain by a convex CCW polygon.

    Equal, element by element, to chaining clip_halfplane over the clip
    edges in order and stopping at the first empty result; but edges that
    cannot cut the chain are skipped.  Each edge is tested against a box
    that holds every vertex of the chain so far.
    For an edge a->b with e = b - a, clip_halfplane keeps a vertex when
    ex*(y - ay) - ey*(x - ax) >= -tol*|e|.  Every rounded operation in that
    expression is monotone in x and in y, so its value at the box corner
    (x_hi if ey >= 0 else x_lo, y_lo if ex >= 0 else y_hi) is at most its
    value at every vertex.  When the corner passes, every vertex is kept,
    no edge is cut, and clip_halfplane would return a list equal to its
    input.

    Why the box still holds after a cut.  The box starts as the input's
    bounding box.  A clip keeps some vertices and adds cut vertices
    prev + t*(cur - prev), where prev and cur are vertices of the chain and
    the rounded t lies in [0, 1] (its numerator never exceeds its
    denominator in size).  Exactly, such a point lies between prev and cur,
    so in the box; the three rounded operations move it by at most
    2.5 * 2**-52 * M in x, M being the largest |x| in the box, and likewise
    in y.  So the box grown by 8 * 2**-52 * (max|x| + max|y|) of the entry
    box after each clip holds the new chain, for any number of clips short
    of about 10**14, and for coordinates above the subnormal range.
    """
    if not pts:
        return pts
    n = len(clip)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    grow = 8.0 * 2.0**-52 * (max(-x_lo, x_hi) + max(-y_lo, y_hi))
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        ax, ay = a[0], a[1]
        ex, ey = b[0] - ax, b[1] - ay
        x = x_hi if ey >= 0.0 else x_lo
        y = y_lo if ex >= 0.0 else y_hi
        if ex * (y - ay) - ey * (x - ax) >= -(tol * math.hypot(ex, ey)):
            continue
        pts = clip_halfplane(pts, a, b, tol)
        if not pts:
            break
        x_lo, x_hi, y_lo, y_hi = x_lo - grow, x_hi + grow, y_lo - grow, y_hi + grow
    return pts


def classify_region(pts: Sequence[Point2], scale: float) -> ClipResult:
    """Classify a clipped convex chain by dimension."""
    sep_tol = EPS_GEOM * scale
    deduped = _merge_close(pts, sep_tol)

    if not deduped:
        return ClipResult.empty()
    if len(deduped) == 1:
        return ClipResult.of_point(deduped[0])
    if len(deduped) >= 3:
        try:
            return ClipResult.of_polygon(normalize_polygon(deduped))
        except (Degenerate, NotConvex):
            pass  # sliver: fall through to segment classification
    # Segment or point: take the two points of largest separation.
    best = (0.0, deduped[0], deduped[0])
    for i, u in enumerate(deduped):
        for v in deduped[i + 1:]:
            d = math.hypot(u.x - v.x, u.y - v.y)
            if d > best[0]:
                best = (d, u, v)
    if best[0] <= sep_tol:
        return ClipResult.of_point(min(deduped))
    return ClipResult.of_segment(best[1], best[2])


def clip_convex(a: ConvexPolygon, b: ConvexPolygon) -> ClipResult:
    """Intersection of two convex polygons, classified by dimension.

    The intersection lies in both, so the smaller one sets the unit: a
    polygon far larger than the other must not widen the band.
    """
    scale = min(a.scale, b.scale)
    pts = clip_by_polygon(list(a.vertices), b.vertices, EPS_GEOM * scale)
    return classify_region(pts, scale)


def lexicographic_min(region: ClipResult) -> Point2:
    """The (x, then y)-smallest point of a nonempty convex region; x values
    within EPS_GEOM of its extent tie, so a vertical edge gives its lower end."""
    pts = region.corner_points()
    if not pts:
        raise EmptyRegion("lexicographic_min of empty region")
    left = min(p.x for p in pts) + EPS_GEOM * _extent(pts)
    return min((p for p in pts if p.x <= left), key=lambda p: (p.y, p.x))
