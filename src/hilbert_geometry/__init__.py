"""Distances, metric balls, and minimum enclosing balls in the Hilbert,
Funk, reverse-Funk, and Thompson geometries of a planar convex polygon."""

from .balls import MetricBall, ball, contains, half_spokes
from .errors import (
    CoincidentPoints,
    Degenerate,
    EmptyInstance,
    EmptyRegion,
    GeometryError,
    NoFeasibleBasis,
    NotConvex,
    NotInterior,
    Unreachable,
)
from .geometry import (
    EPS_GEOM,
    ChordFrame,
    ClipResult,
    ConvexPolygon,
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
    point_location,
    ray_boundary_intersection,
)
from .meb import (
    EPS_RADIUS,
    Basis,
    MebInstance,
    MebResult,
    ObjectiveValue,
    SolveStats,
    basis_computation,
    feasible_center_set,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
    objective_f,
    three_point_value,
    two_point_center,
    violation_test,
)
from .metrics import EPS_DIST, MetricKind, distance, point_at_distance

__version__ = "0.1.0"
