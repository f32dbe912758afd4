"""Invariance under translation, uniform scaling, rotation and general
affine maps (extends criterion 7, which covers projective maps of the
Hilbert distance).

All four metrics depend only on the polygon up to these maps, so every
answer must move with the map.  The kernel's tolerance unit,
``ConvexPolygon.scale``, is an extent and does not move; what remains is
coordinate rounding.  Each tolerance below is stated in ``u``, the float
spacing at the largest coordinate divided by ``scale``:

* distances: ``8 * u * scale / gap``, ``gap`` being the smaller Euclidean
  distance from p or q to the boundary (a log ratio of lengths moves by
  spacing / length);
* ball vertices: ``64 * u * scale**2 / gap`` (a clipped vertex is an
  intersection of two edges, which amplifies the spacing);
* MEB radius: ``EPS_RADIUS + 64 * u * scale / gap``, ``gap`` being the
  smallest distance from a point to the boundary (bisection stops within
  EPS_RADIUS of the feasibility threshold, and rounding moves that
  threshold by the spacing times the distance gradient);
* MEB center: mapped back, it must enclose every original point within
  the original radius + EPS_DIST.  The optimal centers can form a segment,
  and which end the lexicographic order picks is not continuous in the
  input, so the center is checked for optimality, not for position.

Rotation changes the bounding box, so it moves every tolerance band by up
to a factor sqrt(2) and with it any answer a band decides, such as a Funk
center held off the boundary; a rotated MEB radius must agree to EPS_DIST.
A shear or stretch moves the bands and the gaps as well; its MEB radius
is held to the larger of the two frames' radius tolerances.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_geometry import (
    MetricKind,
    Point2,
    ball,
    distance,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
    normalize_polygon,
)
from hilbert_geometry.meb import EPS_RADIUS
from hilbert_geometry.metrics import EPS_DIST
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point

from conftest import UNIT_SQUARE

P = Point2
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(list(MetricKind))
# Offset as a multiple of the polygon's scale: 0 to 1e4, any direction.
offset_exponents = st.floats(-1.0, 4.0)
angles = st.floats(0.0, 2.0 * math.pi)
factors = st.floats(1e-3, 1e3)


def _drawn(seed, n):
    rng = random.Random(seed)
    omega = random_convex_polygon(3 + seed % 8, rng)
    return omega, [random_interior_point(omega, rng) for _ in range(n)]


def _image(omega, pts, f):
    return normalize_polygon([f(v) for v in omega.vertices]), [P(*f(p)) for p in pts]


def _translation(omega, exponent, angle):
    t = omega.scale * 10.0**exponent
    tx, ty = t * math.cos(angle), t * math.sin(angle)
    return (lambda p: (p[0] + tx, p[1] + ty)), (lambda p: (p[0] - tx, p[1] - ty)), t


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return (lambda p: (c * p[0] - s * p[1], s * p[0] + c * p[1])), (
        lambda p: (c * p[0] + s * p[1], -s * p[0] + c * p[1])
    )


def _u(omega, offset=0.0):
    """Float spacing at the largest coordinate, in units of omega.scale."""
    reach = offset + max(max(abs(v.x), abs(v.y)) for v in omega.vertices)
    return math.ulp(reach) / omega.scale


def _gap(omega, p):
    return min(
        ((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)) / math.hypot(b.x - a.x, b.y - a.y)
        for a, b in omega.edges()
    )


def _same_cycle(got, want, tol):
    """True when got is want up to a cyclic shift, vertex by vertex within tol."""
    if len(got) != len(want):
        return False
    n = len(want)
    return any(
        all(math.hypot(got[(i + k) % n][0] - w[0], got[(i + k) % n][1] - w[1]) <= tol
            for i, w in enumerate(want))
        for k in range(n)
    )


def _check_distances(omega, pts, image, image_pts, u):
    p, q = pts
    gap = min(_gap(omega, p), _gap(omega, q))
    for kind in MetricKind:
        d = distance(omega, kind, p, q)
        assert abs(distance(image, kind, *image_pts) - d) <= 8 * u * omega.scale / gap


def _check_balls(omega, c, image, image_c, back, r, u):
    tol = 64 * u * omega.scale**2 / _gap(omega, c)
    for kind in MetricKind:
        want = ball(omega, kind, c, r).shape_points()
        got = [back(v) for v in ball(image, kind, image_c, r).shape_points()]
        assert _same_cycle(got, want, tol), kind


SOLVERS = (min_ball_bisection, lp_type_solve)


def _radius_tol(omega, pts, u):
    return EPS_RADIUS + 64 * u * omega.scale / min(_gap(omega, x) for x in pts)


def _check_meb(omega, pts, image, image_pts, kind, back, radius_tol, seed):
    inst = make_instance(omega, pts, kind, seed=seed)
    moved = make_instance(image, image_pts, kind, seed=seed)
    for solve in SOLVERS:
        want, got = solve(inst).value, solve(moved).value
        assert abs(got.radius - want.radius) <= radius_tol
        center = P(*back(got.center))
        for x in inst.points:
            assert distance(omega, kind, center, x) <= want.radius + EPS_DIST


class TestTranslation:
    @given(seed=seeds, exponent=offset_exponents, angle=angles)
    @PROPERTY
    def test_distances(self, seed, exponent, angle):
        omega, pts = _drawn(seed, 2)
        fwd, _, t = _translation(omega, exponent, angle)
        image, image_pts = _image(omega, pts, fwd)
        _check_distances(omega, pts, image, image_pts, _u(omega, t))

    @given(seed=seeds, exponent=offset_exponents, angle=angles, r=st.floats(0.05, 2.0))
    @PROPERTY
    def test_ball_vertices(self, seed, exponent, angle, r):
        omega, (c,) = _drawn(seed, 1)
        fwd, back, t = _translation(omega, exponent, angle)
        image, (image_c,) = _image(omega, [c], fwd)
        _check_balls(omega, c, image, image_c, back, r, _u(omega, t))

    @given(seed=seeds, n=st.integers(2, 7), kind=kinds, exponent=offset_exponents, angle=angles)
    @PROPERTY
    def test_meb(self, seed, n, kind, exponent, angle):
        omega, pts = _drawn(seed, n)
        fwd, back, t = _translation(omega, exponent, angle)
        image, image_pts = _image(omega, pts, fwd)
        tol = _radius_tol(omega, pts, _u(omega, t))
        _check_meb(omega, pts, image, image_pts, kind, back, tol, seed)


class TestScaling:
    @given(seed=seeds, k=factors)
    @PROPERTY
    def test_distances(self, seed, k):
        omega, pts = _drawn(seed, 2)
        image, image_pts = _image(omega, pts, lambda p: (k * p[0], k * p[1]))
        _check_distances(omega, pts, image, image_pts, _u(omega))

    @given(seed=seeds, k=factors, r=st.floats(0.05, 2.0))
    @PROPERTY
    def test_ball_vertices(self, seed, k, r):
        omega, (c,) = _drawn(seed, 1)
        image, (image_c,) = _image(omega, [c], lambda p: (k * p[0], k * p[1]))
        back = lambda p: (p[0] / k, p[1] / k)  # noqa: E731
        _check_balls(omega, c, image, image_c, back, r, _u(omega))

    @given(seed=seeds, n=st.integers(2, 7), kind=kinds, k=factors)
    @PROPERTY
    def test_meb(self, seed, n, kind, k):
        omega, pts = _drawn(seed, n)
        image, image_pts = _image(omega, pts, lambda p: (k * p[0], k * p[1]))
        back = lambda p: (p[0] / k, p[1] / k)  # noqa: E731
        _check_meb(omega, pts, image, image_pts, kind, back, _radius_tol(omega, pts, _u(omega)), seed)


class TestRotation:
    @given(seed=seeds, angle=angles)
    @PROPERTY
    def test_distances(self, seed, angle):
        omega, pts = _drawn(seed, 2)
        image, image_pts = _image(omega, pts, _rotation(angle)[0])
        _check_distances(omega, pts, image, image_pts, _u(omega))

    @given(seed=seeds, angle=angles, r=st.floats(0.05, 2.0))
    @PROPERTY
    def test_ball_vertices(self, seed, angle, r):
        omega, (c,) = _drawn(seed, 1)
        fwd, back = _rotation(angle)
        image, (image_c,) = _image(omega, [c], fwd)
        _check_balls(omega, c, image, image_c, back, r, _u(omega))

    @given(seed=seeds, n=st.integers(2, 7), kind=kinds, angle=angles)
    @PROPERTY
    def test_meb(self, seed, n, kind, angle):
        omega, pts = _drawn(seed, n)
        fwd, back = _rotation(angle)
        image, image_pts = _image(omega, pts, fwd)
        _check_meb(omega, pts, image, image_pts, kind, back, EPS_DIST, seed)


class TestAffine:
    """x' = x + s*y, y' = k*y: a shear and a stretch.  Every distance is a
    ratio of collinear lengths, so the MEB radius is affine-invariant."""

    @given(seed=seeds, n=st.integers(2, 7), kind=kinds, s=st.floats(-2.0, 2.0),
           k=st.floats(0.2, 5.0))
    @PROPERTY
    def test_meb(self, seed, n, kind, s, k):
        omega, pts = _drawn(seed, n)
        image, image_pts = _image(omega, pts, lambda p: (p[0] + s * p[1], k * p[1]))
        back = lambda p: (p[0] - s * p[1] / k, p[1] / k)  # noqa: E731
        # Each frame rounds at its own spacing, relative to its own scale.
        tol = max(
            _radius_tol(omega, pts, _u(omega)),
            _radius_tol(image, image_pts, _u(image)),
        )
        _check_meb(omega, pts, image, image_pts, kind, back, tol, seed)


def _square_at(t):
    return normalize_polygon([(x + t, y + t) for x, y in UNIT_SQUARE])


class TestTranslatedUnitSquare:
    """Pinned regressions: each failed while the tolerance unit was the
    largest absolute coordinate."""

    @pytest.mark.parametrize("t", [1e5, 1e6])
    def test_normalizes_far_from_origin(self, t):
        assert _square_at(t).vertices == tuple(P(x + t, y + t) for x, y in UNIT_SQUARE)

    def test_hilbert_ball_keeps_its_vertices(self):
        t = 1e4
        want = ball(_square_at(0.0), MetricKind.HILBERT, P(0.3, 0.6), 0.4).shape_points()
        got = ball(_square_at(t), MetricKind.HILBERT, P(0.3 + t, 0.6 + t), 0.4).shape_points()
        assert len(want) == len(got) == 8
        assert _same_cycle([(v.x - t, v.y - t) for v in got], want, 1e-9)

    def test_lp_type_solve_at_offset_100(self):
        pts = [(0.25, 0.5), (0.75, 0.5), (0.5, 0.9)]
        want = lp_type_solve(make_instance(_square_at(0.0), pts, MetricKind.HILBERT))
        t = 100.0
        moved = make_instance(_square_at(t), [(x + t, y + t) for x, y in pts], MetricKind.HILBERT)
        got = lp_type_solve(moved)
        assert got.basis.indices == want.basis.indices == (0, 1, 2)
        assert got.value.radius == pytest.approx(want.value.radius, abs=1e-12)
        assert got.value.center.x - t == pytest.approx(want.value.center.x, abs=1e-12)
        assert got.value.center.y - t == pytest.approx(want.value.center.y, abs=1e-12)
