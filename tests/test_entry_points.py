"""Every public function that takes a point checks it at the boundary.

Inside, the kernels assume interior points; so an exterior, a boundary or
a non-finite point must be refused by the entry point itself.
"""

import math

import pytest

from hilbert_geometry import (
    MetricKind,
    NotInterior,
    Point2,
    ball,
    chord_frame,
    contains,
    distance,
    half_spokes,
    make_instance,
    normalize_polygon,
    point_at_distance,
    ray_boundary_intersection,
    three_point_value,
    two_point_center,
)

SQUARE = normalize_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
GOOD = Point2(0.5, 0.5)
OTHER = Point2(0.25, 0.5)
H = MetricKind.HILBERT
BAD_POINTS = {
    "exterior": Point2(2.0, 0.5),
    "boundary": Point2(1.0, 0.5),
    "nan": Point2(math.nan, 0.5),
    "inf": Point2(0.5, math.inf),
}


def _instance():
    return make_instance(SQUARE, [GOOD, OTHER], H)


ENTRY_POINTS = {
    "distance/p": lambda x: distance(SQUARE, H, x, GOOD),
    "distance/q": lambda x: distance(SQUARE, MetricKind.REVERSE_FUNK, GOOD, x),
    "ball": lambda x: ball(SQUARE, MetricKind.THOMPSON, x, 0.5),
    "contains": lambda x: contains(ball(SQUARE, H, GOOD, 0.5), x, 0.0),
    "point_at_distance": lambda x: point_at_distance(SQUARE, H, x, (1.0, 0.0), 0.5),
    "ray_boundary_intersection": lambda x: ray_boundary_intersection(SQUARE, x, (1.0, 0.0)),
    "chord_frame/p": lambda x: chord_frame(SQUARE, x, GOOD),
    "chord_frame/q": lambda x: chord_frame(SQUARE, GOOD, x),
    "half_spokes": lambda x: half_spokes(SQUARE, x),
    "make_instance": lambda x: make_instance(SQUARE, [GOOD, x], H),
    "two_point_center/p": lambda x: two_point_center(_instance(), x, GOOD),
    "two_point_center/q": lambda x: two_point_center(_instance(), GOOD, x),
    "three_point_value": lambda x: three_point_value(_instance(), GOOD, OTHER, x),
}
# distance, with x as either point, and ball for every metric.
for kind in MetricKind:
    ENTRY_POINTS[f"{kind.value}_distance"] = lambda x, k=kind: distance(SQUARE, k, x, GOOD)
    ENTRY_POINTS[f"{kind.value}_distance/q"] = lambda x, k=kind: distance(SQUARE, k, GOOD, x)
    ENTRY_POINTS[f"{kind.value}_ball"] = lambda x, k=kind: ball(SQUARE, k, x, 0.5)


@pytest.mark.parametrize("bad", sorted(BAD_POINTS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_non_interior_point(entry, bad):
    with pytest.raises(NotInterior):
        ENTRY_POINTS[entry](BAD_POINTS[bad])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_interior_point(entry):
    ENTRY_POINTS[entry](Point2(0.75, 0.4))


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 1.0), (1.0, math.inf)])
def test_ray_entry_points_reject_bad_direction(direction):
    with pytest.raises(ValueError):
        ray_boundary_intersection(SQUARE, GOOD, direction)
    with pytest.raises(ValueError):
        point_at_distance(SQUARE, H, GOOD, direction, 0.5)


@pytest.mark.parametrize("eps_radius", [0.0, -1e-10, math.nan, math.inf])
def test_make_instance_rejects_bad_eps_radius(eps_radius):
    with pytest.raises(ValueError):
        make_instance(SQUARE, [GOOD], H, eps_radius=eps_radius)
