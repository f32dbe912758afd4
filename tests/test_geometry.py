import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_geometry import (
    EPS_GEOM,
    ClipResult,
    Degenerate,
    EmptyRegion,
    MetricKind,
    NotConvex,
    NotInterior,
    Point2,
    PointLocation,
    RegionKind,
    Segment2,
    chord_frame,
    clip_convex,
    convex_hull,
    lexicographic_min,
    normalize_polygon,
    orientation,
    point_at_distance,
    point_location,
    ray_boundary_intersection,
)
from hilbert_geometry import balls, geometry
from hilbert_geometry.geometry import ConvexPolygon, clip_by_polygon, clip_halfplane
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point

from conftest import UNIT_SQUARE, reference_point_location, reference_ray, seeded


def P(x, y):
    return Point2(x, y)


def _bits(value):
    """value with every float written exactly, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _magnitude(poly):
    """Largest absolute vertex coordinate: the rounding unit of a result."""
    return max(max(abs(v.x), abs(v.y)) for v in poly.vertices)


class TestOrientation:
    def test_counterclockwise(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) == 0

    def test_clockwise(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) == -1

    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(6)]),
    )
    def test_swap_flips_sign(self, coords):
        a, b, c = P(coords[0], coords[1]), P(coords[2], coords[3]), P(coords[4], coords[5])
        assert orientation(a, b, c) == -orientation(a, c, b)


class TestNormalizePolygon:
    def test_already_canonical(self):
        poly = normalize_polygon(UNIT_SQUARE)
        assert poly.vertices == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_clockwise_input_reversed(self):
        poly = normalize_polygon([(0, 1), (1, 1), (1, 0), (0, 0)])
        assert poly.vertices == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_collinear_vertex_merged(self):
        poly = normalize_polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert poly.vertices == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_duplicate_vertex_merged(self):
        poly = normalize_polygon([(0, 0), (0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(poly) == 4

    def test_not_convex_rejected(self):
        with pytest.raises(NotConvex):
            normalize_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            normalize_polygon([(0, 0), (1, 1), (2, 2), (3, 3)])

    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent(self, seed):
        rng = seeded(seed)
        poly = random_convex_polygon(3 + seed % 10, rng)
        again = normalize_polygon(poly.vertices)
        assert again.vertices == poly.vertices


class TestPointLocation:
    @pytest.mark.parametrize(
        "pt,expected",
        [
            ((0.5, 0.5), PointLocation.INTERIOR),
            ((1.0, 0.5), PointLocation.BOUNDARY),
            ((2.0, 2.0), PointLocation.EXTERIOR),
            ((0.0, 0.0), PointLocation.BOUNDARY),
            ((-1e-3, 0.5), PointLocation.EXTERIOR),
        ],
    )
    def test_unit_square(self, unit_square, pt, expected):
        assert point_location(unit_square, P(*pt)) is expected

    @pytest.mark.parametrize("shift", [0.0, 1e3, 1e5])
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_per_edge_reference(self, seed, shift):
        # m = 3-32; points inside, within +-1.5 bands of an edge or a
        # vertex, and outside, on a polygon moved by shift * scale.
        rng = seeded(7000 + seed)
        base = random_convex_polygon(3 + seed, rng)
        off = shift * base.scale
        omega = normalize_polygon([(v.x + off, v.y + off) for v in base.vertices])
        band = EPS_GEOM * omega.scale
        verts = omega.vertices
        pts = list(verts)
        for k in range(len(verts)):
            a, b = verts[k], verts[(k + 1) % len(verts)]
            length = math.hypot(b.x - a.x, b.y - a.y)
            nx, ny = (a.y - b.y) / length, (b.x - a.x) / length  # inward
            for _ in range(4):
                t, d = rng.random(), rng.uniform(-1.5, 1.5) * band
                pts.append(P(a.x + t * (b.x - a.x) + d * nx, a.y + t * (b.y - a.y) + d * ny))
            d = rng.uniform(2.0, 1e6) * band
            pts.append(P(a.x - d * nx, a.y - d * ny))
            pts.append(random_interior_point(omega, rng))
        seen = set()
        for p in pts:
            loc = point_location(omega, p)
            assert loc is reference_point_location(omega, p), p
            seen.add(loc)
        assert seen == set(PointLocation)


class TestRayBoundaryIntersection:
    def test_axis_aligned(self, unit_square):
        hit = ray_boundary_intersection(unit_square, P(0.5, 0.5), (1, 0))
        assert hit.point == pytest.approx((1.0, 0.5))
        assert hit.distance == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "direction, corner, edge",
        [
            pytest.param((1, 1), (1, 1), 2, id="upper_right"),
            pytest.param((-1, 1), (0, 1), 3, id="upper_left"),
            pytest.param((-1, -1), (0, 0), 0, id="lower_left"),
            pytest.param((1, -1), (1, 0), 1, id="lower_right"),
        ],
    )
    def test_through_corner(self, unit_square, direction, corner, edge):
        hit = ray_boundary_intersection(unit_square, P(0.5, 0.5), direction)
        assert hit.point == pytest.approx(corner)
        assert hit.distance == pytest.approx(math.sqrt(2) / 2)
        # Vertex hits belong to the edge starting at that vertex; at (0, 0)
        # that is edge 0, over edge 3 (the tie that wraps around).
        assert hit.edge_index == edge

    @pytest.mark.parametrize("eps", [1e-11, 1e-10, 9e-10])
    def test_near_vertex_ray_exits_through_its_edge(self, unit_square, eps):
        # Aimed just below the corner (1, 1): the ray leaves through the
        # right edge x = 1, not through the top edge beyond x = 1.
        p, d = P(0.5, 0.5), (0.5, 0.5 - 0.5 * eps)
        hit = ray_boundary_intersection(unit_square, p, d)
        assert hit.edge_index == 1
        assert hit.point.x <= 1.0
        assert abs(d[0] * (hit.point.y - p.y) - d[1] * (hit.point.x - p.x)) <= 1e-15

    @pytest.mark.parametrize(
        "direction, k",
        [((1e-320, 0.0), 1063), ((1e-310, 1e-310), 1029), ((1.5e308, 1.5e308), -1024)],
    )
    def test_extreme_direction_magnitudes(self, unit_square, direction, k):
        # Only the direction's angle matters: the same direction scaled by
        # 2**k to order 1 gives the same hit, and the same point at distance r.
        p = P(0.5, 0.5)
        scaled = (math.ldexp(direction[0], k), math.ldexp(direction[1], k))
        assert 0.5 <= max(map(abs, scaled)) < 1.0
        hit = ray_boundary_intersection(unit_square, p, direction)
        assert hit == ray_boundary_intersection(unit_square, p, scaled)
        assert math.isfinite(hit.distance)
        kind = MetricKind.HILBERT
        assert point_at_distance(unit_square, kind, p, direction, 0.3) == point_at_distance(
            unit_square, kind, p, scaled, 0.3
        )

    def test_backward(self, unit_square):
        hit = ray_boundary_intersection(unit_square, P(0.25, 0.5), (-1, 0))
        assert hit.point == pytest.approx((0.0, 0.5))
        assert hit.distance == pytest.approx(0.25)

    def test_exterior_origin_rejected(self, unit_square):
        with pytest.raises(NotInterior):
            ray_boundary_intersection(unit_square, P(2, 2), (1, 0))

    @pytest.mark.parametrize("seed", range(25))
    def test_hit_is_on_boundary_and_on_ray(self, seed):
        rng = seeded(1000 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        angle = rng.uniform(0, 2 * math.pi)
        d = (math.cos(angle), math.sin(angle))
        hit = ray_boundary_intersection(omega, p, d)
        assert point_location(omega, hit.point) is PointLocation.BOUNDARY
        cross = d[0] * (hit.point.y - p.y) - d[1] * (hit.point.x - p.x)
        assert abs(cross) <= 1e-9 * max(_magnitude(omega), 1.0)
        assert hit.distance > 0

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
    def test_equals_reference_ray(self, offset):
        # The slack-ratio pass against the candidate-window reference, and
        # half-spokes built on each, bit for bit.  These seeded draws meet no
        # ray within the reference's 1e-9 window about a vertex, where it
        # may pick another edge.
        for m in range(3, 33):
            rng = seeded(9000 + m)
            base = random_convex_polygon(m, rng)
            shift = offset * base.scale
            omega = ConvexPolygon(tuple(P(v.x + shift, v.y + shift) for v in base.vertices))
            for _ in range(3):
                q = random_interior_point(base, rng)
                p = P(q.x + shift, q.y + shift)
                if point_location(omega, p) is not PointLocation.INTERIOR:
                    continue
                angle = rng.uniform(0, 2 * math.pi)
                d = (math.cos(angle), math.sin(angle))
                assert _bits(geometry._ray(omega, p, *d)) == _bits(reference_ray(omega, p, *d))
                spokes = balls._half_spokes(omega, p)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(balls, "_ray", reference_ray)
                    assert _bits(spokes) == _bits(balls._half_spokes(omega, p))


class TestChordFrame:
    def test_horizontal(self, unit_square):
        frame = chord_frame(unit_square, P(0.5, 0.5), P(0.75, 0.5))
        assert frame.rear == pytest.approx((0.0, 0.5))
        assert frame.front == pytest.approx((1.0, 0.5))

    def test_diagonal(self, unit_square):
        frame = chord_frame(unit_square, P(0.25, 0.25), P(0.75, 0.75))
        assert frame.rear == pytest.approx((0.0, 0.0))
        assert frame.front == pytest.approx((1.0, 1.0))

    def test_oblique_hand_computed(self, unit_square):
        # Line through (0.5,0.5) and (0.75,0.6) has slope 0.4 and meets
        # x=0 at y=0.3 and x=1 at y=0.7.
        frame = chord_frame(unit_square, P(0.5, 0.5), P(0.75, 0.6))
        assert frame.rear == pytest.approx((0.0, 0.3))
        assert frame.front == pytest.approx((1.0, 0.7))

    @pytest.mark.parametrize("seed", range(15))
    def test_ordering_invariant(self, seed):
        rng = seeded(2000 + seed)
        omega = random_convex_polygon(3 + seed % 8, rng)
        p = random_interior_point(omega, rng)
        q = random_interior_point(omega, rng)
        if math.hypot(p.x - q.x, p.y - q.y) < 1e-6:
            pytest.skip("degenerate draw")
        frame = chord_frame(omega, p, q)
        assert frame.d_p_rear < frame.d_q_rear
        assert frame.d_q_front < frame.d_p_front


def _region_points(result: ClipResult):
    return sorted(result.corner_points())


def _assert_same_region(a: ClipResult, b: ClipResult, tol=1e-9):
    assert a.kind == b.kind
    pa, pb = _region_points(a), _region_points(b)
    assert len(pa) == len(pb)
    for u, v in zip(pa, pb):
        assert math.hypot(u.x - v.x, u.y - v.y) <= tol


class TestClipHalfplane:
    def test_edge_reaching_only_into_the_band_is_not_extended(self):
        # The bottom edge runs from below the band into it, never crossing
        # y = 0; its crossing with that line lies at x = 1.5, outside the
        # chain, and must not be added.
        chain = [P(0, -0.0015), P(1, -0.0005), P(1, 1), P(0, 1)]
        out = clip_halfplane(chain, P(0, 0), P(1, 0), 1e-3)
        assert out == [P(0, 0), P(1, -0.0005), P(1, 1), P(0, 1)]


def _halfplane_chain(pts, clip, tol):
    """clip_by_polygon without its skip: every edge in order, stopping at the
    first empty result."""
    n = len(clip)
    for i in range(n):
        pts = clip_halfplane(pts, clip[i], clip[(i + 1) % n], tol)
        if not pts:
            break
    return pts


def _hex(pts):
    return [(p[0].hex(), p[1].hex()) for p in pts]


def _clip_case(seed, m_chain, m_clip, mode):
    """A convex CCW chain and a convex CCW clip polygon placed by mode."""
    rng = seeded(seed)
    chain = random_convex_polygon(m_chain, rng)
    if mode == "random":
        dx, dy = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
        clip = [P(v.x + dx, v.y + dy) for v in random_convex_polygon(m_clip, rng).vertices]
    elif mode == "contains":
        # An octagon around the chain's bounding box: no edge can cut.
        xs = [v.x for v in chain.vertices]
        ys = [v.y for v in chain.vertices]
        cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
        rad = 2.0 * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        clip = [
            P(cx + rad * math.cos(k * math.pi / 4), cy + rad * math.sin(k * math.pi / 4))
            for k in range(8)
        ]
    elif mode in ("graze", "box"):
        # The chain, moved by a few clip bands: vertices land inside, in and
        # just past the band of the edges they sat on.  A box chain is its
        # own bounding box, so the skip test there sits on the band too.
        if mode == "box":
            xs = [v.x for v in chain.vertices]
            ys = [v.y for v in chain.vertices]
            x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
            chain = normalize_polygon([(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)])
        step = chain.scale * rng.choice([1e-13, 3e-12, 2e-11, 3e-9, 2e-8])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = step * math.cos(angle), step * math.sin(angle)
        clip = [P(v.x + dx, v.y + dy) for v in chain.vertices]
    elif mode == "sliver":
        # The chain mirrored across the line of its edge a->b and moved a
        # few clip bands back in.  The first clip edge, b->a moved, leaves a
        # sliver along a->b in the entry box; its neighbours cut the ends.
        k = rng.randrange(m_chain)
        a, b = chain.vertices[k], chain.vertices[(k + 1) % m_chain]
        length = math.hypot(b.x - a.x, b.y - a.y)
        nx, ny = (a.y - b.y) / length, (b.x - a.x) / length  # into the chain
        step = chain.scale * rng.choice([1e-13, 3e-12, 2e-11, 3e-9, 2e-8])
        mirrored = []
        for v in reversed(chain.vertices):  # a mirror turns CCW into CW
            s = step - 2.0 * ((v.x - a.x) * nx + (v.y - a.y) * ny)
            mirrored.append(P(v.x + s * nx, v.y + s * ny))
        start = m_chain - 1 - (k + 1) % m_chain  # b's image, then a's
        clip = mirrored[start:] + mirrored[:start]
    else:  # "tangent": a triangle on the far side of one chain edge a->b
        k = rng.randrange(m_chain)
        a, b = chain.vertices[k], chain.vertices[(k + 1) % m_chain]
        apex = P(0.5 * (a.x + b.x) + (b.y - a.y), 0.5 * (a.y + b.y) - (b.x - a.x))
        clip = [b, a, apex]
    return list(chain.vertices), clip, chain.scale


class TestClipByPolygon:
    """The skip of edges that cannot cut leaves every output bit as it is."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m_chain=st.integers(3, 12),
        m_clip=st.integers(3, 12),
        mode=st.sampled_from(["random", "contains", "tangent", "graze", "box", "sliver"]),
        shift=st.sampled_from([0.0, 1e4, 1e5]),
        rel_tol=st.sampled_from([0.0, 1e-12, 1e-9]),
    )
    def test_equals_plain_halfplane_chain(self, seed, m_chain, m_clip, mode, shift, rel_tol):
        chain, clip, scale = _clip_case(seed, m_chain, m_clip, mode)
        t = shift * scale
        chain = [P(v.x + t, v.y + t) for v in chain]
        clip = [P(v.x + t, v.y + t) for v in clip]
        tol = rel_tol * scale
        assert _hex(clip_by_polygon(chain, clip, tol)) == _hex(_halfplane_chain(chain, clip, tol))

    def test_containing_clip_skips_every_edge(self, monkeypatch):
        chain, clip, scale = _clip_case(7, 6, 0, "contains")
        calls = []
        monkeypatch.setattr(geometry, "clip_halfplane", lambda *args: calls.append(args))
        assert clip_by_polygon(chain, clip, 1e-12 * scale) == chain
        assert calls == []

    def test_edges_the_grown_box_clears_after_a_cut_are_skipped(self, monkeypatch, unit_square):
        # The first edge, x = 0.5 upward, halves the square; the other three
        # lie a full unit outside it.
        clip = [P(0.5, -1.0), P(0.5, 2.0), P(-1.0, 2.0), P(-1.0, -1.0)]
        calls = []

        def counted(*args):
            calls.append(args[1:3])
            return clip_halfplane(*args)

        monkeypatch.setattr(geometry, "clip_halfplane", counted)
        chain = list(unit_square.vertices)
        assert clip_by_polygon(chain, clip, 0.0) == _halfplane_chain(chain, clip, 0.0)
        assert calls == [(clip[0], clip[1])]

    def test_cut_vertex_that_rounds_past_the_box(self):
        # The top edge cuts (-0.7, -1) -> (0.3, 1) at t = 1, which rounds the
        # cut vertex to x = 0.3 + 2**-54 = 0.30000000000000004, right of the
        # entry box.  The last edge, x = 0.3 upward, clips it: only a box
        # grown after the cut fails its corner test.
        chain = [P(-0.7, -1.0), P(0.3, 1.0), P(-0.9, 0.5)]
        top = 1.0 - 2.0**-53
        clip = [P(0.3, top), P(-5.0, top), P(-5.0, -5.0), P(0.3, -5.0)]
        cut = clip_halfplane(chain, clip[0], clip[1], 0.0)
        assert max(v.x for v in cut) > 0.3
        want = _halfplane_chain(chain, clip, 0.0)
        assert want != cut
        assert _hex(clip_by_polygon(chain, clip, 0.0)) == _hex(want)

    def test_empty_chain(self, unit_square):
        assert clip_by_polygon([], unit_square.vertices, 1e-9) == []


class TestClipConvex:
    def test_overlapping_squares(self, unit_square):
        shifted = normalize_polygon([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
        result = clip_convex(unit_square, shifted)
        assert result.kind is RegionKind.POLYGON
        assert result.polygon.vertices == (
            P(0.5, 0),
            P(1, 0),
            P(1, 1),
            P(0.5, 1),
        )

    def test_shared_edge_is_segment(self, unit_square):
        shifted = normalize_polygon([(1, 0), (2, 0), (2, 1), (1, 1)])
        result = clip_convex(unit_square, shifted)
        assert result.kind is RegionKind.SEGMENT
        assert result.segment == Segment2(P(1, 0), P(1, 1))

    def test_disjoint_is_empty(self, unit_square):
        shifted = normalize_polygon([(2, 0), (3, 0), (3, 1), (2, 1)])
        assert clip_convex(unit_square, shifted).is_empty

    def test_self_intersection(self, unit_square):
        result = clip_convex(unit_square, unit_square)
        assert result.kind is RegionKind.POLYGON
        assert result.polygon.vertices == unit_square.vertices

    @pytest.mark.parametrize("seed", range(20))
    def test_symmetry_and_containment(self, seed):
        rng = seeded(3000 + seed)
        a = random_convex_polygon(3 + seed % 7, rng)
        b = random_convex_polygon(3 + (seed + 3) % 7, rng)
        ab, ba = clip_convex(a, b), clip_convex(b, a)
        _assert_same_region(ab, ba, tol=1e-9 * max(_magnitude(a), _magnitude(b), 1.0))
        for pt in ab.corner_points():
            assert point_location(a, pt) is not PointLocation.EXTERIOR
            assert point_location(b, pt) is not PointLocation.EXTERIOR


class TestConvexHull:
    def test_square_with_center(self):
        hull = convex_hull(UNIT_SQUARE + [(0.5, 0.5)])
        assert hull.vertices == (P(0, 0), P(1, 0), P(1, 1), P(0, 1))

    def test_triangle(self):
        hull = convex_hull([(0, 0), (1, 0), (0.5, 1)])
        assert len(hull) == 3

    def test_collinear_point_dropped(self):
        hull = convex_hull(
            [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.5, 0.25)]
        )
        assert len(hull) == 4

    def test_all_collinear_rejected(self):
        with pytest.raises(Degenerate):
            convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])

    @pytest.mark.parametrize("seed", range(10))
    def test_contains_every_input(self, seed):
        rng = seeded(4000 + seed)
        pts = [P(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(30)]
        hull = convex_hull(pts)
        for p in pts:
            assert point_location(hull, p) is not PointLocation.EXTERIOR


class TestLexicographicMin:
    def test_polygon(self, unit_square):
        assert lexicographic_min(ClipResult.of_polygon(unit_square)) == P(0, 0)

    def test_segment(self):
        region = ClipResult.of_segment(P(1, 1), P(1, 0))
        assert lexicographic_min(region) == P(1, 0)

    def test_point(self):
        assert lexicographic_min(ClipResult.of_point(P(0.3, 0.7))) == P(0.3, 0.7)

    def test_vertical_segment_ends_differing_by_rounding(self):
        # Both ends have x = 0.45163197005819375 up to rounding; the lower
        # end is the pick whichever one the rounding makes smaller.
        low = P(0.4516319700581938, 0.4442642656266876)
        high = P(0.4516319700581937, 0.6246276616667079)
        assert lexicographic_min(ClipResult.of_segment(low, high)) == low
        low, high = P(high.x, low.y), P(low.x, high.y)
        assert lexicographic_min(ClipResult.of_segment(low, high)) == low

    def test_empty_raises(self):
        with pytest.raises(EmptyRegion):
            lexicographic_min(ClipResult.empty())


class TestSegment2:
    def test_canonical_order(self):
        seg = Segment2(P(1, 1), P(0, 0))
        assert seg.a == P(0, 0)
        assert seg.b == P(1, 1)

    def test_single_point(self):
        seg = Segment2(P(0.5, 0.5), P(0.5, 0.5))
        assert seg.a == seg.b
