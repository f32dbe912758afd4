import math

import pytest

from hilbert_geometry import (
    EPS_GEOM,
    MetricKind,
    NotInterior,
    Point2,
    PointLocation,
    ball,
    contains,
    distance,
    half_spokes,
    normalize_polygon,
    point_location,
)
from hilbert_geometry.metrics import EPS_DIST
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point

from conftest import UNIT_SQUARE, boundary_samples, exact_thompson_sides, seeded

P = Point2
CENTER = P(0.5, 0.5)
ALL_KINDS = list(MetricKind)


def _assert_vertices_close(poly, expected, tol=1e-12):
    assert len(poly.vertices) == len(expected)
    got = sorted(poly.vertices)
    want = sorted(P(*e) for e in expected)
    for g, w in zip(got, want):
        assert math.hypot(g.x - w.x, g.y - w.y) <= tol


class TestFunkBall:
    def test_homothety_fixture(self, unit_square):
        b = ball(unit_square, MetricKind.FUNK, CENTER, math.log(2))
        _assert_vertices_close(
            b.shape, [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        )

    def test_zero_radius_degenerate(self, unit_square):
        b = ball(unit_square, MetricKind.FUNK, CENTER, 0.0)
        assert b.shape is None
        assert b.shape_points() == (CENTER,)

    @pytest.mark.parametrize("r", [1.0, 5.0, 20.0, 40.0])
    def test_never_leaves_domain(self, unit_square, r):
        # Ratio 1 - e^(-r) < 1: vertices approach but never pass the domain's.
        b = ball(unit_square, MetricKind.FUNK, P(0.3, 0.7), r)
        for v in b.shape.vertices:
            assert point_location(unit_square, v) is not PointLocation.EXTERIOR

    @pytest.mark.parametrize("seed", range(8))
    def test_vertexwise_homothety_identity(self, seed):
        rng = seeded(100 + seed)
        omega = random_convex_polygon(3 + seed % 8, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        ratio = 1.0 - math.exp(-r)
        b = ball(omega, MetricKind.FUNK, p, r)
        expected = [
            P(p.x + ratio * (v.x - p.x), p.y + ratio * (v.y - p.y))
            for v in omega.vertices
        ]
        assert sorted(b.shape.vertices) == sorted(expected)

    def test_area_scaling_law(self, unit_square):
        r = 0.8
        b = ball(unit_square, MetricKind.FUNK, P(0.4, 0.6), r)
        ratio = 1.0 - math.exp(-r)
        assert b.shape.area == pytest.approx(ratio**2 * unit_square.area, rel=1e-12)


class TestReverseFunkBall:
    def test_fills_square_at_ln2(self, unit_square):
        # Ratio e^r - 1 = 1: the reflected square about the center is the
        # square itself, so the clipped shape is all of the domain.
        b = ball(unit_square, MetricKind.REVERSE_FUNK, CENTER, math.log(2))
        _assert_vertices_close(b.shape, [(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_zero_radius_degenerate(self, unit_square):
        assert ball(unit_square, MetricKind.REVERSE_FUNK, CENTER, 0.0).shape is None

    @pytest.mark.parametrize("seed", range(8))
    def test_membership_oracle(self, seed):
        rng = seeded(200 + seed)
        omega = random_convex_polygon(3 + seed % 8, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.1, 1.5)
        b = ball(omega, MetricKind.REVERSE_FUNK, p, r)
        inside = 0
        for _ in range(100):
            q = random_interior_point(omega, rng)
            if point_location(b.shape, q) is PointLocation.INTERIOR:
                inside += 1
                assert distance(omega, MetricKind.REVERSE_FUNK, p, q) <= r + EPS_DIST
        assert inside > 0


class TestHilbertBall:
    def test_square_center_fixture(self, unit_square):
        b = ball(unit_square, MetricKind.HILBERT, CENTER, 0.5 * math.log(3))
        _assert_vertices_close(
            b.shape, [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        )

    def test_zero_radius_degenerate(self, unit_square):
        assert ball(unit_square, MetricKind.HILBERT, CENTER, 0.0).shape is None

    @pytest.mark.parametrize("seed", range(25))
    def test_side_count_in_m_2m(self, seed):
        rng = seeded(300 + seed)
        m = 3 + seed % 10
        omega = random_convex_polygon(m, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        b = ball(omega, MetricKind.HILBERT, p, r)
        assert m <= len(b.shape) <= 2 * m

    @pytest.mark.parametrize("p", [P(0.3, 0.6), CENTER], ids=["off_diagonal", "center"])
    def test_half_spokes_end_on_boundary_and_vertices(self, unit_square, p):
        frames = half_spokes(unit_square, p)
        ends = [P(p.x + d_fwd * ux, p.y + d_fwd * uy) for ux, uy, d_fwd, _ in frames]
        for end in ends:
            assert point_location(unit_square, end) is PointLocation.BOUNDARY
        for v in unit_square.vertices:
            assert any(math.hypot(v.x - e.x, v.y - e.y) <= 1e-12 for e in ends)
        # At the center, p is collinear with opposite vertices, so each
        # direction is kept once from either vertex: equal up to rounding.
        for ux, uy, d_fwd, d_back in frames:
            opposite = [f for f in frames if f[:2] == pytest.approx((-ux, -uy), abs=1e-15)]
            assert len(opposite) == 1
            assert opposite[0][2:] == pytest.approx((d_back, d_fwd), rel=1e-15)


class TestThompsonBall:
    def test_intersection_fixture(self, unit_square):
        b = ball(unit_square, MetricKind.THOMPSON, CENTER, math.log(2))
        _assert_vertices_close(
            b.shape, [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        )

    def test_zero_radius_degenerate(self, unit_square):
        assert ball(unit_square, MetricKind.THOMPSON, CENTER, 0.0).shape is None

    @pytest.mark.parametrize("seed", range(25))
    def test_side_count_upper_bound(self, seed):
        # Only the upper bound 2m is universally true; see the side-count
        # counterexample below for the lower bound.
        rng = seeded(400 + seed)
        m = 3 + seed % 10
        omega = random_convex_polygon(m, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        b = ball(omega, MetricKind.THOMPSON, p, r)
        assert 3 <= len(b.shape) <= 2 * m

    def test_side_count_can_drop_below_m(self):
        # Pinned counterexample: a decagon whose Thompson ball is a 9-gon.
        # The realized boundary is exactly the distance-r level set, so the
        # count is a property of the metric, not of the clipping code.
        rng = seeded(407)
        omega = random_convex_polygon(10, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        b = ball(omega, MetricKind.THOMPSON, p, r)
        assert len(b.shape) == 9
        # The exact-rational intersection agrees: no tolerance merge made 9.
        assert exact_thompson_sides(omega, p, r) == 9
        for a, c in b.shape.edges():
            for t in (0.0, 0.5):
                pt = P(a.x + t * (c.x - a.x), a.y + t * (c.y - a.y))
                d = distance(omega, MetricKind.THOMPSON, p, pt)
                assert d == pytest.approx(r, abs=1e-12)


class TestBallDispatchAndContains:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_radius_is_center(self, unit_square, kind):
        b = ball(unit_square, kind, CENTER, 0.0)
        assert b.shape_points() == (CENTER,)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exterior_center_rejected(self, unit_square, kind):
        with pytest.raises(NotInterior):
            ball(unit_square, kind, P(3, 3), 1.0)

    def test_contains_center(self, unit_square):
        b = ball(unit_square, MetricKind.HILBERT, CENTER, 0.5)
        assert contains(b, CENTER, 0.0)

    def test_contains_boundary_point(self, unit_square):
        b = ball(unit_square, MetricKind.HILBERT, CENTER, 0.5 * math.log(3))
        assert contains(b, P(0.75, 0.5), EPS_DIST)

    def test_rejects_outside_point(self, unit_square):
        # H(center, (0.9, 0.5)) = 0.5 ln((0.9/0.5)(0.5/0.1)) = ln 3 > r.
        b = ball(unit_square, MetricKind.HILBERT, CENTER, 0.5 * math.log(3))
        assert not contains(b, P(0.9, 0.5), EPS_DIST)
        assert distance(unit_square, MetricKind.HILBERT, CENTER, P(0.9, 0.5)) == (
            pytest.approx(math.log(3), abs=1e-12)
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_tiny_radius_stays_at_the_center(self, kind, shift):
        # e^r - 1 and 1 - e^-r round to 0 (or to a few ulps of p) here.  A
        # homothet that collapses onto p is the point ball, not a zero-area
        # polygon; the collapsed reverse-Funk homothet once clipped nothing
        # away and gave the whole domain.
        omega = normalize_polygon([(x + shift, y + shift) for x, y in UNIT_SQUARE])
        p = P(0.3 + shift, 0.6 + shift)
        for r in (1e-300, 1e-17):
            assert ball(omega, kind, p, r).shape is None
        for r in (1e-16, 2e-16):
            b = ball(omega, kind, p, r)
            for v in b.shape_points():
                assert math.hypot(v.x - p.x, v.y - p.y) <= EPS_GEOM * omega.scale
            # Funk at 1e-16 and Hilbert at 2e-16 once kept ulps-wide shapes
            # of shoelace area <= 0 here.
            assert b.shape is None or b.shape.area > 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("r", [20.5, 25.0, 352.0, 356.0, 800.0])
    def test_large_radius_fills_the_domain(self, unit_square, kind, r):
        # Every ball is the whole square here, up to the Funk inset
        # e^-r * |v - p| <= 1.3e-9.  These radii once gave an escaped
        # reverse-Funk homothet, a one-point Thompson ball, a 5-gon Hilbert
        # ball, and OverflowError from e^(2r) or e^r.
        shape = ball(unit_square, kind, P(0.3, 0.6), r).shape.vertices
        corners = unit_square.vertices

        def gap(u, pts):
            return min(math.hypot(u.x - w.x, u.y - w.y) for w in pts)

        assert len(shape) == 4
        assert all(gap(v, corners) <= 2e-9 for v in shape)
        assert all(gap(w, shape) <= 2e-9 for w in corners)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_membership_matches_distance(self, kind, seed):
        rng = seeded(500 + seed)
        omega = random_convex_polygon(3 + seed % 7, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.1, 1.2)
        b = ball(omega, kind, p, r)
        assert b.shape is not None
        for _ in range(60):
            q = random_interior_point(omega, rng)
            d = distance(omega, kind, p, q)
            loc = point_location(b.shape, q)
            if d <= r - EPS_DIST:
                assert loc is not PointLocation.EXTERIOR
            elif d > r + EPS_DIST:
                assert loc is PointLocation.EXTERIOR


class TestBoundaryConsistency:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_boundary_distance(self, kind, seed):
        rng = seeded(600 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.1, 1.5)
        b = ball(omega, kind, p, r)
        for pt in boundary_samples(b):
            assert distance(omega, kind, p, pt) == pytest.approx(r, abs=EPS_DIST)


class TestNestingAndMonotonicity:
    @pytest.mark.parametrize("seed", range(15))
    def test_thompson_between_hilbert_halves(self, seed):
        rng = seeded(700 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.1, 2.0)
        inner = ball(omega, MetricKind.HILBERT, p, r / 2).shape
        middle = ball(omega, MetricKind.THOMPSON, p, r).shape
        outer = ball(omega, MetricKind.HILBERT, p, r).shape
        for v in inner.vertices:
            assert point_location(middle, v) is not PointLocation.EXTERIOR
        for v in middle.vertices:
            assert point_location(outer, v) is not PointLocation.EXTERIOR

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_radius(self, kind, seed):
        rng = seeded(800 + seed)
        omega = random_convex_polygon(3 + seed % 6, rng)
        p = random_interior_point(omega, rng)
        r1 = rng.uniform(0.05, 0.8)
        r2 = r1 + rng.uniform(0.05, 1.0)
        small = ball(omega, kind, p, r1).shape
        big = ball(omega, kind, p, r2).shape
        for v in small.vertices:
            assert point_location(big, v) is not PointLocation.EXTERIOR
