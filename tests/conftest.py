import math
import random
from fractions import Fraction

import pytest

from hilbert_geometry import (
    EPS_GEOM,
    ConvexPolygon,
    MetricBall,
    MetricKind,
    Point2,
    PointLocation,
    make_instance,
    normalize_polygon,
    point_location,
)
from hilbert_geometry import meb
from hilbert_geometry.balls import hilbert_ball_points
from hilbert_geometry.errors import NoFeasibleBasis, NotInterior
from hilbert_geometry.geometry import RayHit, classify_region, clip_by_polygon, lexicographic_min
from hilbert_geometry.meb import ObjectiveValue, SolveStats, _move_to_front
from hilbert_geometry.metrics import EPS_DIST, _distance
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.fixture
def unit_square():
    return normalize_polygon(UNIT_SQUARE)


def seeded(seed: int) -> random.Random:
    return random.Random(seed)


def over_metrics(values):
    """Parameters (value, kind) for every metric.  A Hilbert case keeps its
    bare value as id, the id it had when these tests ran Hilbert only."""
    return [
        pytest.param(v, kind, id=str(v) if kind is MetricKind.HILBERT else f"{v}-{kind.value}")
        for kind in MetricKind
        for v in values
    ]


def unfiltered_scan(instance):
    """The move-to-front core over every instance index, in the seed order
    lp_type_solve shuffles them into: the solver without its hull filter."""
    order = list(range(len(instance.points)))
    random.Random(instance.seed).shuffle(order)
    stats = SolveStats()
    return _move_to_front(instance, order, stats), stats


def near_boundary_instance(seed: int, kind: MetricKind):
    """Seed's instance of the near-boundary recipe: a random (3 + seed % 8)-gon
    and 2-5 points, each interior or 0.5-4 boundary bands inside an edge."""
    rng = seeded(seed)
    m = 3 + seed % 8
    omega = random_convex_polygon(m, rng)
    pts = []
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            pts.append(random_interior_point(omega, rng))
            continue
        k = rng.randrange(m)
        a, b = omega.vertices[k], omega.vertices[(k + 1) % m]
        t = rng.uniform(0.05, 0.95)
        dx, dy, length = b.x - a.x, b.y - a.y, math.hypot(b.x - a.x, b.y - a.y)
        d = rng.uniform(0.5, 4) * EPS_GEOM * omega.scale
        pts.append(Point2(a.x + t * dx - d * dy / length, a.y + t * dy + d * dx / length))
    return make_instance(omega, pts, kind)


def full_ball_pair_value(instance, p: Point2, q: Point2) -> ObjectiveValue:
    """meb._pair_value of a Hilbert pair, clipping the whole two balls
    rather than their facing windows: the construction they must match."""
    omega = instance.omega
    r_star = _distance(omega, MetricKind.HILBERT, p, q) / 2.0
    if r_star <= EPS_DIST:
        return ObjectiveValue(r_star, Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y)))
    frames_p = meb._cached_half_spokes(instance, p)[0]
    frames_q = meb._cached_half_spokes(instance, q)[0]
    tol = meb.SOLVER_CLIP_EPS * omega.scale
    chain = meb._tangent_chain(
        r_star,
        lambda r: clip_by_polygon(
            hilbert_ball_points(frames_p, p, r), hilbert_ball_points(frames_q, q, r), tol
        ),
    )
    if not chain:
        raise NoFeasibleBasis("two-point balls failed to intersect at r = d/2")
    return ObjectiveValue(r_star, lexicographic_min(classify_region(chain, omega.scale)))


def random_projective_map(omega, rng):
    """A projective map with positive denominator over omega (bounded image)."""
    while True:
        a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)
        d, e, f = rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
        g, h = rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)
        if abs(a * e - b * d) < 0.1:
            continue
        if all(g * v.x + h * v.y + 1.0 > 0.2 for v in omega.vertices):
            return ((a, b, c), (d, e, f), (g, h, 1.0))


def apply_projective(mat, p) -> Point2:
    (a, b, c), (d, e, f), (g, h, i) = mat
    w = g * p.x + h * p.y + i
    return Point2((a * p.x + b * p.y + c) / w, (d * p.x + e * p.y + f) / w)


def reference_point_location(omega: ConvexPolygon, p) -> PointLocation:
    """point_location written out from the vertices: each edge vector and
    its band are recomputed per call rather than read from
    ``omega.edge_rows``.  The two must agree on every point, bit for bit."""
    px, py = float(p[0]), float(p[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        return PointLocation.EXTERIOR
    verts = omega.vertices
    n = len(verts)
    on_edge = False
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        cross = ex * (py - a.y) - ey * (px - a.x)
        tol = EPS_GEOM * omega.scale * math.hypot(ex, ey)
        if cross < -tol:
            return PointLocation.EXTERIOR
        if cross <= tol:
            on_edge = True
    return PointLocation.BOUNDARY if on_edge else PointLocation.INTERIOR


def reference_ray(omega: ConvexPolygon, p: Point2, dx: float, dy: float) -> RayHit:
    """geometry._ray written the way it was before the slack-ratio pass: a
    candidate list of line crossings whose edge parameter s lies in
    [-EPS_GEOM, 1 + EPS_GEOM], then the smallest |s| among the candidates
    within a 1e-9 relative window of the least t.  Outside those windows,
    which only a ray within ~1e-9 of a vertex meets, the two agree bit for
    bit: t is computed from the same products."""
    norm = math.hypot(dx, dy)
    px, py = p[0], p[1]
    verts = omega.vertices
    n = len(verts)
    candidates: list[tuple[float, float, int]] = []  # (t, s, edge index)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        ex, ey = b.x - a.x, b.y - a.y
        det = ex * dy - ey * dx
        if det == 0.0:
            continue
        rx, ry = a.x - px, a.y - py
        t = (ex * ry - ey * rx) / det
        s = (dx * ry - dy * rx) / det
        if t > 0.0 and -EPS_GEOM <= s <= 1.0 + EPS_GEOM:
            candidates.append((t, s, i))
    if not candidates:
        raise NotInterior("ray found no boundary crossing (origin too close to boundary)")
    t_min = min(t for t, _, _ in candidates)
    window = t_min * (1.0 + 1e-9) + 1e-15
    t, s, idx = min(
        (c for c in candidates if c[0] <= window), key=lambda c: abs(c[1])
    )
    hit = Point2(px + t * dx, py + t * dy)
    return RayHit(hit, idx, t * norm)


def boundary_samples(ball: MetricBall, per_edge: int = 16) -> list[Point2]:
    """Midpoint samples along every shape edge, excluding the domain boundary."""
    assert ball.shape is not None
    out = []
    for a, b in ball.shape.edges():
        for i in range(per_edge):
            t = (i + 0.5) / per_edge
            pt = Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
            if point_location(ball.domain, pt) is PointLocation.INTERIOR:
                out.append(pt)
    return out


def exact_thompson_sides(omega: ConvexPolygon, p: Point2, r: float) -> int:
    """Side count of the Thompson ball B_T(p, r), recounted exactly.

    The ball is the intersection of the forward-Funk homothet of omega
    (ratio 1 - e^-r) and the reflected reverse-Funk homothet (ratio
    e^r - 1).  Both are rebuilt from the same float vertices, center and
    ratios that ``ball`` uses for a Thompson ball, then intersected in
    ``Fraction`` arithmetic with no tolerance: two vertices merge only if
    they are equal and a vertex counts only if its turn is nonzero.
    """
    cx, cy = Fraction(p.x), Fraction(p.y)
    fwd, rev = Fraction(1.0 - math.exp(-r)), Fraction(math.exp(r) - 1.0)
    verts = [(Fraction(v.x) - cx, Fraction(v.y) - cy) for v in omega.vertices]
    forward = [(cx + fwd * x, cy + fwd * y) for x, y in verts]
    # Each vertex carries the line of the edge leaving it.
    shape = [(a, _line(a, b)) for a, b in _edges(forward)]
    for a, b in _edges([(cx - rev * x, cy - rev * y) for x, y in verts]):
        shape = _exact_clip(shape, _line(a, b))
    pts = [v for i, (v, _) in enumerate(shape) if v != shape[i - 1][0]]
    return sum(
        _cross(pts[i - 1], v, pts[(i + 1) % len(pts)]) > 0 for i, v in enumerate(pts)
    )


def _edges(pts):
    return zip(pts, pts[1:] + pts[:1])


def _cross(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _line(a, b):
    """(u, v, w) with u*x + v*y + w >= 0 exactly on the left of a -> b."""
    u, v = a[1] - b[1], b[0] - a[0]
    return u, v, -(u * a[0] + v * a[1])


def _exact_clip(shape, line):
    """Sutherland-Hodgman clip of a (vertex, leaving line) cycle by a half-plane.

    New vertices are computed from two input lines, never from earlier
    intersection points, so the rationals stay small.
    """

    def side(pt):
        return line[0] * pt[0] + line[1] * pt[1] + line[2]

    def meet(edge):
        (u1, v1, w1), (u2, v2, w2) = edge, line
        det = u1 * v2 - u2 * v1
        return (v1 * w2 - v2 * w1) / det, (w1 * u2 - w2 * u1) / det

    out = []
    for i, (a, edge) in enumerate(shape):
        sa, sb = side(a), side(shape[(i + 1) % len(shape)][0])
        if sa > 0 or (sa == 0 and sb >= 0):
            out.append((a, edge))
        elif sa == 0:
            out.append((a, line))  # the boundary leaves a along the clip line
        if sa > 0 > sb:
            out.append((meet(edge), line))
        elif sa < 0 < sb:
            out.append((meet(edge), edge))
    return out
