import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_geometry import (
    MetricKind,
    NotInterior,
    Point2,
    Unreachable,
    distance,
    normalize_polygon,
    point_at_distance,
    ray_boundary_intersection,
)
from hilbert_geometry.metrics import EPS_DIST, _distance
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point

from conftest import apply_projective, random_projective_map, reference_ray, seeded

ALL_KINDS = list(MetricKind)
P = Point2
CENTER = P(0.5, 0.5)
RIGHT = P(0.75, 0.5)
SQUARE = normalize_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

interior_coord = st.floats(0.05, 0.95)
interior_point = st.builds(P, interior_coord, interior_coord)


class TestFixtures:
    """Hand-computed values on the unit square (chord [0,1] x {0.5})."""

    def test_funk(self, unit_square):
        assert distance(unit_square, MetricKind.FUNK, CENTER, RIGHT) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_funk_reversed_arguments(self, unit_square):
        assert distance(unit_square, MetricKind.FUNK, RIGHT, CENTER) == pytest.approx(
            math.log(1.5), abs=1e-15
        )

    def test_reverse_funk(self, unit_square):
        assert distance(unit_square, MetricKind.REVERSE_FUNK, CENTER, RIGHT) == pytest.approx(
            math.log(1.5), abs=1e-15
        )

    def test_hilbert(self, unit_square):
        assert distance(unit_square, MetricKind.HILBERT, CENTER, RIGHT) == pytest.approx(
            0.5 * math.log(3), abs=1e-15
        )

    def test_hilbert_symmetric_pair(self, unit_square):
        d = distance(unit_square, MetricKind.HILBERT, P(0.25, 0.5), P(0.75, 0.5))
        assert d == pytest.approx(math.log(3), abs=1e-15)

    def test_thompson(self, unit_square):
        assert distance(unit_square, MetricKind.THOMPSON, CENTER, RIGHT) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_thompson_symmetric_pair(self, unit_square):
        d = distance(unit_square, MetricKind.THOMPSON, P(0.25, 0.5), P(0.75, 0.5))
        assert d == pytest.approx(math.log(3), abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity(self, unit_square, kind):
        assert distance(unit_square, kind, CENTER, CENTER) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exterior_rejected(self, unit_square, kind):
        with pytest.raises(NotInterior):
            distance(unit_square, kind, CENTER, P(2, 2))


class TestCompositionIdentities:
    @given(p=interior_point, q=interior_point)
    @settings(max_examples=60, deadline=None)
    def test_on_unit_square(self, p, q):
        f = distance(SQUARE, MetricKind.FUNK, p, q)
        rf = distance(SQUARE, MetricKind.REVERSE_FUNK, p, q)
        h = distance(SQUARE, MetricKind.HILBERT, p, q)
        t = distance(SQUARE, MetricKind.THOMPSON, p, q)
        assert rf == distance(SQUARE, MetricKind.FUNK, q, p)
        assert h == pytest.approx((f + rf) / 2, abs=EPS_DIST)
        assert t == pytest.approx(max(f, rf), abs=EPS_DIST)

    @pytest.mark.parametrize("seed", range(15))
    def test_on_random_polygons(self, seed):
        rng = seeded(5000 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        q = random_interior_point(omega, rng)
        f = distance(omega, MetricKind.FUNK, p, q)
        rf = distance(omega, MetricKind.REVERSE_FUNK, p, q)
        h = distance(omega, MetricKind.HILBERT, p, q)
        t = distance(omega, MetricKind.THOMPSON, p, q)
        assert h == pytest.approx((f + rf) / 2, abs=EPS_DIST)
        assert t == pytest.approx(max(f, rf), abs=EPS_DIST)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_of_symmetric_kinds(self, seed):
        rng = seeded(6000 + seed)
        omega = random_convex_polygon(3 + seed % 7, rng)
        p = random_interior_point(omega, rng)
        q = random_interior_point(omega, rng)
        for kind in (MetricKind.HILBERT, MetricKind.THOMPSON):
            assert kind.is_symmetric
            assert distance(omega, kind, p, q) == pytest.approx(
                distance(omega, kind, q, p), abs=EPS_DIST
            )
        assert not MetricKind.FUNK.is_symmetric
        assert not MetricKind.REVERSE_FUNK.is_symmetric


class TestSlackKernel:
    """Distances come from edge slacks; the chord formula built from the
    candidate-window reference_ray's hits is the independent reference
    (chord_frame reads the same edge table as the distances)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_chord_formula(self, seed):
        rng = seeded(8000 + seed)
        omega = random_convex_polygon(3 + seed, rng)
        for _ in range(10):
            p, q = random_interior_point(omega, rng), random_interior_point(omega, rng)
            front = reference_ray(omega, p, q.x - p.x, q.y - p.y).point
            rear = reference_ray(omega, p, p.x - q.x, p.y - q.y).point
            d_p_front = math.hypot(p.x - front.x, p.y - front.y)
            d_q_front = math.hypot(q.x - front.x, q.y - front.y)
            d_p_rear = math.hypot(p.x - rear.x, p.y - rear.y)
            d_q_rear = math.hypot(q.x - rear.x, q.y - rear.y)
            fwd = math.log(d_p_front / d_q_front)
            back = math.log(d_q_rear / d_p_rear)
            expected = {
                MetricKind.FUNK: fwd,
                MetricKind.REVERSE_FUNK: back,
                MetricKind.HILBERT: 0.5 * math.log((d_q_rear / d_p_rear) * (d_p_front / d_q_front)),
                MetricKind.THOMPSON: max(fwd, back),
            }
            for kind, value in expected.items():
                assert distance(omega, kind, p, q) == pytest.approx(value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [P(0.5, 0.0), P(0.5, -1e-12)])
    def test_boundary_center_follows_the_slack_signs(self, c):
        # c's slack on the bottom edge is 0 or negative.  As a source it only
        # drops that edge from the max: the chord c -> x leaves through the
        # top edge at (0.3, 1), twice as far from c as from x.  As a target
        # it is out of reach.
        x = P(0.4, 0.5)
        funk, rev = MetricKind.FUNK, MetricKind.REVERSE_FUNK
        assert _distance(SQUARE, funk, c, x) == pytest.approx(math.log(2.0), rel=1e-11)
        assert _distance(SQUARE, rev, x, c) == _distance(SQUARE, funk, c, x)
        assert _distance(SQUARE, funk, x, c) == math.inf
        assert _distance(SQUARE, rev, c, x) == math.inf
        for kind in (MetricKind.HILBERT, MetricKind.THOMPSON):
            assert _distance(SQUARE, kind, c, x) == _distance(SQUARE, kind, x, c) == math.inf


class TestTriangleInequality:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_sampled(self, kind, seed):
        rng = seeded(7000 + seed)
        omega = random_convex_polygon(3 + seed % 8, rng)
        a = random_interior_point(omega, rng)
        b = random_interior_point(omega, rng)
        c = random_interior_point(omega, rng)
        dac = distance(omega, kind, a, c)
        dab = distance(omega, kind, a, b)
        dbc = distance(omega, kind, b, c)
        assert dac <= dab + dbc + EPS_DIST


class TestPointAtDistance:
    def test_hilbert_round_trips_fixture(self, unit_square):
        q = point_at_distance(
            unit_square, MetricKind.HILBERT, CENTER, (1, 0), 0.5 * math.log(3)
        )
        assert q == pytest.approx((0.75, 0.5), abs=1e-12)

    def test_funk_closed_form(self, unit_square):
        q = point_at_distance(unit_square, MetricKind.FUNK, CENTER, (1, 0), math.log(2))
        assert q == pytest.approx((0.75, 0.5), abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_radius(self, unit_square, kind):
        assert point_at_distance(unit_square, kind, CENTER, (1, 1), 0.0) == CENTER

    def test_reverse_funk_unreachable(self, unit_square):
        # u = 0.5 (e^r - 1) reaches the boundary at r = ln 2.
        with pytest.raises(Unreachable):
            point_at_distance(unit_square, MetricKind.REVERSE_FUNK, CENTER, (1, 0), 1.0)
        q = point_at_distance(
            unit_square, MetricKind.REVERSE_FUNK, CENTER, (1, 0), 0.5
        )
        assert q.x == pytest.approx(0.5 + 0.5 * (math.exp(0.5) - 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_radius_past_exp_overflow(self, unit_square, kind):
        # e^800 overflows a float: reverse Funk cannot reach r, and the
        # other three offsets round to the whole boundary distance.
        if kind is MetricKind.REVERSE_FUNK:
            with pytest.raises(Unreachable):
                point_at_distance(unit_square, kind, CENTER, (1, 0), 800.0)
        else:
            assert point_at_distance(unit_square, kind, CENTER, (1, 0), 800.0) == (1.0, 0.5)

    def test_thompson_takes_smaller_offset(self, unit_square):
        # Thompson = max of the two metrics, so its sphere is the nearer one.
        r = 0.3
        u_funk = point_at_distance(unit_square, MetricKind.FUNK, CENTER, (1, 0), r).x
        u_rev = point_at_distance(
            unit_square, MetricKind.REVERSE_FUNK, CENTER, (1, 0), r
        ).x
        u_thm = point_at_distance(unit_square, MetricKind.THOMPSON, CENTER, (1, 0), r).x
        assert u_thm == pytest.approx(min(u_funk, u_rev), abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip(self, kind, seed):
        rng = seeded(8000 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        angle = rng.uniform(0, 2 * math.pi)
        d = (math.cos(angle), math.sin(angle))
        r = rng.uniform(0.05, 1.5)
        try:
            q = point_at_distance(omega, kind, p, d, r)
        except Unreachable:
            assert kind is MetricKind.REVERSE_FUNK
            return
        assert distance(omega, kind, p, q) == pytest.approx(r, abs=EPS_DIST)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_along_ray(self, unit_square, kind):
        radii = [0.05, 0.1, 0.2, 0.4, 0.6]
        offsets = []
        for r in radii:
            q = point_at_distance(unit_square, kind, P(0.4, 0.45), (2, 1), r)
            offsets.append(math.hypot(q.x - 0.4, q.y - 0.45))
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)

    @pytest.mark.parametrize(
        "kind", [MetricKind.FUNK, MetricKind.HILBERT, MetricKind.THOMPSON]
    )
    @pytest.mark.parametrize("direction", [(1, 0), (0, 1), (-1, 0), (2, 1)])
    def test_divergence_near_boundary(self, unit_square, kind, direction):
        # Directions hitting edge interiors: a corner hit would put the
        # offset point inside the boundary rejection band.
        hit = ray_boundary_intersection(unit_square, CENTER, direction)
        norm = math.hypot(*direction)
        u = hit.distance - 1e-9 * math.sqrt(2.0)  # 1e-9 * the square's diagonal
        q = P(
            CENTER.x + u * direction[0] / norm,
            CENTER.y + u * direction[1] / norm,
        )
        assert distance(unit_square, kind, CENTER, q) > 10.0


class TestProjectiveInvariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_hilbert_invariant(self, seed):
        rng = seeded(9000 + seed)
        omega = random_convex_polygon(3 + seed % 9, rng)
        p = random_interior_point(omega, rng)
        q = random_interior_point(omega, rng)
        if math.hypot(p.x - q.x, p.y - q.y) < 1e-6:
            pytest.skip("degenerate draw")
        h = distance(omega, MetricKind.HILBERT, p, q)
        mat = random_projective_map(omega, rng)
        image = normalize_polygon([apply_projective(mat, v) for v in omega.vertices])
        image_p, image_q = apply_projective(mat, p), apply_projective(mat, q)
        h_image = distance(image, MetricKind.HILBERT, image_p, image_q)
        assert abs(h - h_image) <= 1e-9 * (1 + h)
