"""Minimum enclosing balls over the four polygon metrics.

Two solvers share one objective:

* ``lp_type_solve``: randomized incremental solver of combinatorial
  dimension 3 over the points' hull candidates, built from the
  violation-test and basis-computation primitives.
* ``min_ball_bisection``: radius bisection against the feasible-center
  region, used as the reference oracle for the LP-type path.

Both serve all four metrics.  Hilbert pairs take the closed-form radius d/2,
with the center where the two balls touch, found by clipping only the ball
edges that face each other (``_facing``); other pairs are bisected.  A
Hilbert pair keeps that contact set: a triple ties the largest pair radius
only inside it, so the tie is decided by clipping it with the third ball.
Three-point bases larger than any pair (case 3 of ``_three_point_core``)
bisect up from the largest pair radius, to the least radius at which a
pair's center covers the third point.  Hilbert ones stop once the three ball
edges meeting at the optimum are known, then take a certified sign-change
root for the radius where they concur; without one, the bisection result
stands.  The three edges' halfplanes also certify that no center exists
just below the root (a Farkas witness, ``_witness_empty``); a region pass
runs only when they cannot.

The objective value is the pair (radius, center) under lexicographic order
(radius, then center.x, then center.y), which makes the optimum unique even
when many centers realize the minimum radius.

Both reach the feasible-center region through ``_feasible_chain``, which clips
omega by every point's center constraints; a Hilbert pass starts from the
first point's ball, which lies in omega, so few of omega's edges are clipped.
A pass over more than three points first skips each point whose constraints
provably hold the region's bounding box with a margin (a star test,
``_holds_box``): such clips would return the region unchanged, so every
output keeps its bits.

Direction convention: a center c is feasible at radius r when
d(c, x) <= r for every instance point x.  For the weak metrics that set is
the *reversed* ball around x (Funk <-> reverse Funk), because realized balls
measure distance away from their own center.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .balls import (
    MetricBall,
    _half_spokes,
    ball,
    funk_ball_points,
    hilbert_ball_points,
    reverse_funk_ball_points,
)
from .errors import CoincidentPoints, EmptyInstance, NoFeasibleBasis, NotInterior
from .geometry import (
    EPS_GEOM,
    ClipResult,
    ConvexPolygon,
    Point2,
    PointLocation,
    _coincident,
    _require_interior,
    classify_region,
    clip_by_polygon,
    lexicographic_min,
    point_location,
)
from .metrics import EPS_DIST, MetricKind, _check_radius, _distance, offset_at_distance

EPS_RADIUS = 1e-10
MAX_BISECTION_ITERATIONS = 200

# Clipping band for solver-internal intersections, a distance in units of
# the domain scale.  Much tighter than EPS_GEOM: a wide band admits centers
# measurably outside a ball, and the distance gradient can amplify that past
# the support tolerance.  Tangency robustness comes from the radius
# escalation ladder instead.
SOLVER_CLIP_EPS = 1e-12

# Margin of _feasible_chain's skip test, a distance per unit of
# scale + |x.x| + |x.y|: far above the rounding of a built constraint polygon
# and of clip_halfplane's side test at any translation.
SKIP_MARGIN = 1e-9

# A bisection hook: (region(r_hi), r_lo, r_hi) -> certified (r, region(r)) or None.
Polish = Callable[[list[Point2], float, float], "tuple[float, list[Point2]] | None"]


class ObjectiveValue(NamedTuple):
    """(radius, center) compared lexicographically: radius, then x, then y."""

    radius: float
    center: Point2


@dataclass(frozen=True)
class Basis:
    """Support points (as instance indices) plus their objective value."""

    indices: tuple[int, ...]
    value: ObjectiveValue


@dataclass
class SolveStats:
    violation_tests: int = 0
    basis_computations: int = 0
    bisection_iterations: int = 0  # one per halving of a radius bracket
    # Three-point values by case of _three_point_core; each triple solved
    # counts in exactly one of the four.
    case1_pairs: int = 0  # the largest pair's ball covers the third point
    case2_ties: int = 0  # a center at the largest pair radius covers all three
    case3_roots: int = 0  # Hilbert: radius from the certified concurrency root
    case3_fallbacks: int = 0  # radius left to plain bisection (every non-Hilbert case 3)
    # Case-3 roots whose "no center eps_radius below" check needed a region
    # pass, since the three edges' halfplanes did not witness it.
    certify_passes: int = 0
    # Point visits of _feasible_chain passes over more than three points:
    # clipped, or skipped since no clip of theirs could cut (_holds_box).
    points_clipped: int = 0
    points_skipped: int = 0


@dataclass(frozen=True, eq=False)
class MebInstance:
    """An immutable solver input; build via :func:`make_instance`."""

    omega: ConvexPolygon
    points: tuple[Point2, ...]
    kind: MetricKind
    seed: int = 0
    eps_radius: float = EPS_RADIUS
    _cache: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class MebResult:
    value: ObjectiveValue
    basis: Basis | None  # LP-type path only
    ball: MetricBall
    stats: SolveStats


def make_instance(
    omega: ConvexPolygon,
    points: Iterable[Point2 | tuple[float, float]],
    kind: MetricKind,
    seed: int = 0,
    eps_radius: float = EPS_RADIUS,
) -> MebInstance:
    """Validate and deduplicate points, then freeze the instance.

    The solvers run unchecked kernels on these points: this is their check.
    """
    if not (math.isfinite(eps_radius) and eps_radius > 0.0):
        raise ValueError(f"eps_radius must be finite and > 0, got {eps_radius}")
    rows = omega.edge_rows
    tol = EPS_GEOM * omega.scale
    cell = 4.0 * tol
    grid: dict[tuple[int, int], tuple[Point2, ...]] = {}
    get = grid.get
    kept: list[Point2] = []
    for raw in points:
        px, py = float(raw[0]), float(raw[1])
        # point_location's INTERIOR test on the edge rows.  A non-finite
        # coordinate fails it too: NaN fails every comparison, and an
        # infinite one makes the slack of an edge facing it -inf or NaN.
        for ax, ay, ex, ey, band in rows:
            if not ex * (py - ay) - ey * (px - ax) > band:
                raise NotInterior(f"point {(px, py)} is not interior")
        # A kept point within tol of p lies in one of the four cells (side
        # 4*tol, so with a margin of tol) that meet at p's nearest grid corner.
        fx, fy = px / cell, py / cell
        kx, ky = round(fx), round(fy)
        near = (
            get((kx, ky), ()) + get((kx - 1, ky), ())
            + get((kx, ky - 1), ()) + get((kx - 1, ky - 1), ())
        )
        if near and any(math.hypot(px - q.x, py - q.y) <= tol for q in near):
            continue
        p = Point2(px, py)
        key = (math.floor(fx), math.floor(fy))
        grid[key] = get(key, ()) + (p,)
        kept.append(p)
    if not kept:
        raise EmptyInstance("instance needs at least one interior point")
    return MebInstance(omega, tuple(kept), kind, seed, eps_radius)


# ---------------------------------------------------------------------------
# Feasible center regions
# ---------------------------------------------------------------------------

def _cached_half_spokes(instance: MebInstance, p: Point2):
    """(frames, angles): p's half-spokes and the angles they are sorted by.

    p is an instance point or a checked pair point, so the unchecked
    kernel runs; the angles are half_spokes' own sort keys, taken once.
    """
    key = ("spokes", p)
    spokes = instance._cache.get(key)
    if spokes is None:
        frames = _half_spokes(instance.omega, p)
        spokes = (frames, [math.atan2(uy, ux) for ux, uy, _, _ in frames])
        instance._cache[key] = spokes
    return spokes


def _center_constraints(
    instance: MebInstance, x: Point2, r: float
) -> list[list[Point2]]:
    """CCW polygons whose intersection is {c : d(c, x) <= r}."""
    rev = instance.kind.reversed_kind
    if rev is MetricKind.HILBERT:
        return [hilbert_ball_points(_cached_half_spokes(instance, x)[0], x, r)]
    if rev is MetricKind.FUNK:
        return [funk_ball_points(instance.omega, x, r)]
    if rev is MetricKind.REVERSE_FUNK:
        # Unclipped homothet: the running region already sits inside omega.
        return [reverse_funk_ball_points(instance.omega, x, r)]
    return [
        funk_ball_points(instance.omega, x, r),
        reverse_funk_ball_points(instance.omega, x, r),
    ]


def _inset(omega: ConvexPolygon, delta: float) -> list[Point2]:
    """omega with every edge moved inward by delta (small against the edges)."""
    normals = []
    for _, _, ex, ey, _ in omega.edge_rows:
        length = math.hypot(ex, ey)
        normals.append((-ey / length, ex / length))  # inward: CCW
    out = []
    for v, (ax, ay), (bx, by) in zip(omega.vertices, normals[-1:] + normals, normals):
        k = delta / (1.0 + ax * bx + ay * by)
        out.append(Point2(v.x + k * (ax + bx), v.y + k * (ay + by)))
    return out


def _sector(angles: list[float], vx: float, vy: float) -> int:
    """Index i of the half-spoke sector [i, i + 1) (CCW, cyclic) holding
    direction (vx, vy), given the half-spoke angles: the Hilbert ball edge
    facing it joins spokes i and i + 1."""
    return (bisect_right(angles, math.atan2(vy, vx)) - 1) % len(angles)


def _facing(spokes, vx: float, vy: float):
    """Half-spokes i - 1 .. i + 2 (cyclic) about the sector i holding
    direction (vx, vy); all of them when there are at most four.  spokes is
    a (frames, angles) pair.

    Two Hilbert balls at r = d/2 touch along a set S that holds the chord
    point, on the ball edge of sector i, and reaches at most into that
    edge's two neighbours (Nielsen & Shao 2017).  Those three edges join
    these four half-spokes, and the polygon on their ball points holds
    them, so clipping two such windows gives S, as clipping the whole
    balls does.
    """
    frames, angles = spokes
    n = len(frames)
    if n <= 4:
        return frames
    i = _sector(angles, vx, vy)
    return [frames[(i + k) % n] for k in (-1, 0, 1, 2)]


def _holds_box(
    instance: MebInstance, x: Point2, r: float, box: tuple[float, float, float, float]
) -> bool:
    """True when every constraint polygon of x at radius r holds box, grown
    by SKIP_MARGIN * (scale + |x.x| + |x.y|) on every side.

    Every such polygon is star-shaped about x with its vertices on rays that
    do not depend on r, so no polygon is built.  Funk family: the homothet
    x + k*(omega - x), k = 1 - e^-r, holds a point c exactly when, for every
    edge a->b of omega with e = b - a and slack h = cross(e, x - a) > 0
    (``ConvexPolygon.edge_rows``),
    cross(e, c - x) + k*h >= 0; the reflected one x - k*(omega - x),
    k = e^r - 1, when k*h - cross(e, c - x) >= 0.
    The worst box corner is picked per edge by clip_by_polygon's rule.
    Hilbert: each grown-box corner c is tested only against the ball edge of
    its half-spoke sector, found by angle; the ball is convex, so holding
    the four corners holds the box.  Everything is computed relative to x,
    and a test must pass strictly, so a polygon that rounds onto x (r down
    to 1e-300) is never skipped.
    """
    omega = instance.omega
    px, py = x
    mu = SKIP_MARGIN * (omega.scale + abs(px) + abs(py))
    x_lo, x_hi, y_lo, y_hi = box
    x_lo, x_hi, y_lo, y_hi = x_lo - px - mu, x_hi - px + mu, y_lo - py - mu, y_hi - py + mu
    rev = instance.kind.reversed_kind
    if rev is MetricKind.HILBERT:
        frames, angles = _cached_half_spokes(instance, x)
        n = len(frames)
        t = math.exp(-2.0 * r)  # hilbert_ball_points' expressions
        for cx, cy in ((x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)):
            i = _sector(angles, cx, cy)
            ux, uy, d_fwd, d_back = frames[i]
            u = (1.0 - t) * d_back * d_fwd / (d_fwd * t + d_back)
            ax, ay = u * ux, u * uy
            ux, uy, d_fwd, d_back = frames[i + 1 - n]
            u = (1.0 - t) * d_back * d_fwd / (d_fwd * t + d_back)
            if not (u * ux - ax) * (cy - ay) - (u * uy - ay) * (cx - ax) > 0.0:
                return False
        return True
    # Ratios as funk_ball_points and reverse_funk_ball_points compute them;
    # None for a homothet the kind does not use.
    fwd = 1.0 - math.exp(-r) if rev is not MetricKind.REVERSE_FUNK else None
    back = math.exp(r) - 1.0 if rev is not MetricKind.FUNK else None
    for ax, ay, ex, ey, _ in omega.edge_rows:
        h = ex * (py - ay) - ey * (px - ax)
        if fwd is not None:
            lo = ex * (y_lo if ex >= 0.0 else y_hi) - ey * (x_hi if ey >= 0.0 else x_lo)
            if not lo + fwd * h > 0.0:
                return False
        if back is not None:
            hi = ex * (y_hi if ex >= 0.0 else y_lo) - ey * (x_lo if ey >= 0.0 else x_hi)
            if not back * h - hi > 0.0:
                return False
    return True


def _bounding_box(region: list[Point2]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in region]
    ys = [p[1] for p in region]
    return min(xs), max(xs), min(ys), max(ys)


def _feasible_chain(
    instance: MebInstance,
    pts: Sequence[Point2],
    r: float,
    stats: SolveStats | None = None,
) -> list[Point2]:
    """omega clipped by every center constraint of pts at radius r.

    A Hilbert pass starts from the first point's ball clipped by omega, the
    same set; the Funk family starts from omega.  In a pass over more than
    three points, a point whose constraint polygons all hold the region's
    bounding box with a margin (``_holds_box``) is skipped: its clips would
    return the region unchanged, so the result keeps every bit.  The first
    point of a Hilbert pass is the start, never skipped.  Passes over at
    most three points clip the support of a basis (a pair or triple), whose
    constraints all cut near its optimum, so they clip plainly.

    Why the skip keeps bits.  Let mu = SKIP_MARGIN * (scale + |x.x| + |x.y|).
    The test runs relative to x, so it rounds by a few ulps of scale; when
    it passes, every region vertex lies at least mu inside every edge of
    each polygon, taken before its vertices are rounded.  Building a vertex
    (x + u*dir, x + k*(v - x)) rounds it by a few ulps of |x| + scale, and
    clip_halfplane's side test errs by about as much: both stay below
    1e-15 * (scale + |x.x| + |x.y|), a millionth of mu, for any edge not a
    million times shorter than its distance to the box.  So every region
    vertex passes every side test of the built polygon, and the clip would
    return the region unchanged.
    """
    omega = instance.omega
    tol = SOLVER_CLIP_EPS * omega.scale
    test = len(pts) > 3
    if test and stats is None:
        stats = SolveStats()
    if instance.kind is MetricKind.HILBERT:
        # The first ball lies in omega, so the clip box skips almost every
        # edge of omega, where omega clipped by the ball cuts at every edge.
        (first,) = _center_constraints(instance, pts[0], r)
        region = clip_by_polygon(first, omega.vertices, tol)
        if test:
            stats.points_clipped += 1
        if not region:
            return region
        pts = pts[1:]
    else:
        region = list(omega.vertices)
    box = None  # the bounding box of region, once a test needs it
    for x in pts:
        if test:
            if box is None:
                box = _bounding_box(region)
            if _holds_box(instance, x, r, box):
                stats.points_skipped += 1
                continue
            stats.points_clipped += 1
        for poly in _center_constraints(instance, x, r):
            clipped = clip_by_polygon(region, poly, tol)
            if clipped is not region:
                region, box = clipped, None
                if not region:
                    return region
    return region


def feasible_center_set(instance: MebInstance, r: float) -> ClipResult:
    """All centers whose radius-r ball encloses every instance point."""
    _check_radius(r)
    pts = instance.points
    if r == 0.0:
        if len(pts) == 1:
            return ClipResult.of_point(pts[0])
        return ClipResult.empty()  # points are deduplicated, so n >= 2 distinct
    chain = _feasible_chain(instance, pts, r)
    return classify_region(chain, instance.omega.scale)


# ---------------------------------------------------------------------------
# Bisection solver (reference oracle, valid for all four metrics)
# ---------------------------------------------------------------------------

def _least_radius(
    region: Callable[[float], list[Point2]],
    r_lo: float,
    r_hi: float,
    instance: MebInstance,
    stats: SolveStats,
    polish: Polish | None = None,
) -> tuple[float, list[Point2]]:
    """Bisect (r_lo, r_hi] to within eps_radius for the least r with a
    nonempty region(r); returns r and region(r), empty if region(r_hi) is.

    polish, if given, sees each new nonempty region(r_hi) with the bracket
    and may return a certified (r, region(r)) that ends the search."""
    chain, iters, fresh = region(r_hi), 0, True
    while chain and r_hi - r_lo > instance.eps_radius and iters < MAX_BISECTION_ITERATIONS:
        if fresh and polish is not None:
            solved = polish(chain, r_lo, r_hi)
            if solved is not None:
                r_hi, chain = solved
                break
        mid = 0.5 * (r_lo + r_hi)
        if not r_lo < mid < r_hi:
            break  # eps_radius is below the float spacing at r_hi
        iters += 1
        mid_chain = region(mid)
        fresh = bool(mid_chain)
        if fresh:
            r_hi, chain = mid, mid_chain
        else:
            r_lo = mid
    stats.bisection_iterations += iters
    return r_hi, chain


def _solve_bisection(
    instance: MebInstance,
    pts: Sequence[Point2],
    stats: SolveStats,
    r_lo: float | None = None,
    polish: Polish | None = None,
    r_hi: float | None = None,
) -> ObjectiveValue:
    """Least radius over pts by bisection, with the lexicographically least
    center.  The bracket's upper end is r_hi if its region is nonempty,
    else reach + 1 (r_hi needs r_lo)."""
    if len(pts) == 1:
        return ObjectiveValue(0.0, pts[0])
    omega, kind = instance.omega, instance.kind
    region = partial(_feasible_chain, instance, pts, stats=stats)
    chain: list[Point2] = []
    if r_hi is not None:
        r, chain = _least_radius(region, r_lo, r_hi, instance, stats, polish)
    if not chain:
        x0 = pts[0]
        reach = max(_distance(omega, kind, x0, x) for x in pts[1:])
        if r_lo is None:
            # A Hilbert ball holding x0 and x has radius >= d(x0, x) / 2.
            r_lo = reach / 2.0 if kind is MetricKind.HILBERT else 0.0
        r, chain = _least_radius(region, r_lo, reach + 1.0, instance, stats, polish)
    if not chain:
        raise NoFeasibleBasis("bisection terminated on an empty center region")
    center = lexicographic_min(classify_region(chain, omega.scale))
    if kind is MetricKind.FUNK and point_location(omega, center) is not PointLocation.INTERIOR:
        # Only Funk's constraints, unclipped reverse homothets, reach the
        # boundary, and the optimum may lie on it.  Move the center two bands
        # inside if EPS_DIST more radius allows; if not, ball() rejects it.
        inset = _inset(omega, 2.0 * EPS_GEOM * omega.scale)
        r_in, inner = _least_radius(
            lambda s: clip_by_polygon(_feasible_chain(instance, pts, s, stats), inset, 0.0),
            r,
            r + EPS_DIST,
            instance,
            stats,
        )
        if inner:
            r, center = r_in, lexicographic_min(classify_region(inner, omega.scale))
    return ObjectiveValue(r, center)


def min_ball_bisection(instance: MebInstance) -> MebResult:
    stats = SolveStats()
    value = _solve_bisection(instance, instance.points, stats)
    realized = ball(instance.omega, instance.kind, value.center, value.radius)
    # Near the boundary a distance can move by far more than EPS_DIST within
    # the clip band: fail rather than return a ball that misses a point.
    if not all(_contains_value(instance, value, x) for x in instance.points):
        raise NoFeasibleBasis("bisection center leaves an instance point outside its ball")
    return MebResult(value, None, realized, stats)


# ---------------------------------------------------------------------------
# LP-type primitives
# ---------------------------------------------------------------------------

def two_point_center(instance: MebInstance, p: Point2, q: Point2) -> ObjectiveValue:
    """Minimum ball of two points.  Hilbert: radius d/2 (chords are geodesics)
    and the lexicographically least center where the two balls meet; other
    metrics bisect, since a Thompson pair can need more than T/2."""
    omega = instance.omega
    p, q = _require_interior(omega, p), _require_interior(omega, q)
    if _coincident(omega, p, q):
        raise CoincidentPoints("two_point_center needs distinct points")
    return _pair_value(instance, p, q, SolveStats())


def _contact_key(p: Point2, q: Point2) -> tuple:
    return ("contact", p, q) if p <= q else ("contact", q, p)


def _pair_value(
    instance: MebInstance, p: Point2, q: Point2, stats: SolveStats
) -> ObjectiveValue:
    """two_point_center of two distinct points already checked interior.

    A Hilbert pair also leaves its contact chain, the two balls' common
    part at radius d/2, in the instance cache (``_contact_key``): a tie of
    a triple at this radius can only lie there.
    """
    if instance.kind is not MetricKind.HILBERT:
        return _solve_bisection(instance, (p, q), stats)
    omega = instance.omega
    r_star = _distance(omega, MetricKind.HILBERT, p, q) / 2.0
    if r_star <= EPS_DIST:
        # Balls this small are below distance tolerance; any point between
        # the pair supports both within EPS_DIST.
        center = Point2(0.5 * (p.x + q.x), 0.5 * (p.y + q.y))
        instance._cache[_contact_key(p, q)] = [center]
        return ObjectiveValue(r_star, center)
    frames_p = _facing(_cached_half_spokes(instance, p), q.x - p.x, q.y - p.y)
    frames_q = _facing(_cached_half_spokes(instance, q), p.x - q.x, p.y - q.y)
    scale = omega.scale
    tol = SOLVER_CLIP_EPS * scale
    # The two closed balls touch along a segment at r = d/2, in the facing
    # windows of both.
    chain = _tangent_chain(
        r_star,
        lambda r: clip_by_polygon(
            hilbert_ball_points(frames_p, p, r), hilbert_ball_points(frames_q, q, r), tol
        ),
    )
    if not chain:
        raise NoFeasibleBasis("two-point balls failed to intersect at r = d/2")
    instance._cache[_contact_key(p, q)] = chain
    center = lexicographic_min(classify_region(chain, scale))
    return ObjectiveValue(r_star, center)


TOP_BUMP = 1.0 + 1e-10


def _tangent_chain(
    r: float, clip: Callable[[float], list[Point2]], top: list[Point2] | None = None
) -> list[Point2]:
    """The first nonempty clip(r * bump), inflating r by at most 1e-10 relative
    (well inside the support tolerance) when rounding splits tangent regions.
    top, if given, is clip(r * TOP_BUMP), already in hand."""
    for bump in (1.0, 1.0 + 1e-12):
        chain = clip(r * bump)
        if chain:
            return chain
    return top if top is not None else clip(r * TOP_BUMP)


def _contains_value(
    instance: MebInstance, value: ObjectiveValue, x: Point2
) -> bool:
    return (
        _distance(instance.omega, instance.kind, value.center, x)
        <= value.radius + EPS_DIST
    )


def _three_point_core(
    instance: MebInstance,
    pts: Sequence[Point2],
    pair_values: Sequence[tuple[ObjectiveValue, tuple[int, int]]],
    stats: SolveStats,
) -> tuple[ObjectiveValue, tuple[int, ...]]:
    """Optimum of three distinct points, with its minimal (local) support.

    The radius can never undercut the largest pairwise optimum R.  Three
    cases, checked in order:

    1. the largest pair's own ball already covers the third point: the pair
       value stands unchanged (support = that pair);
    2. some other center at radius exactly R covers all three: the radius
       ties the pair's bitwise, only the center moves (support = all three).
       Evaluating this exactly instead of by bisection keeps the objective
       monotone under exact comparison.  The tie region at the top bump of
       the ``_tangent_chain`` ladder decides it, since the smaller bumps
       give smaller regions; only a tie climbs the ladder for its center.
       For Hilbert that region is the contact chain of a pair at R clipped
       by the third point's ball alone (``_tie_region``); for the other
       metrics it is a pass over all three points;
    3. otherwise all three points support a strictly larger ball, bisected
       from R up to the least radius at which some pair's center covers
       the third point (reach + 1 if that region comes back empty).  For
       Hilbert, bisection runs only until the three ball edges meeting at
       the optimum are known, then their concurrency radius is solved
       (``_ConcurrentEdges``); without a certified root the bisection
       result stands and ``case3_fallbacks`` counts it.
    """
    r_max = max(v.radius for v, _ in pair_values)
    best: tuple[ObjectiveValue, tuple[int, ...]] | None = None
    for v, (i, j) in pair_values:
        if v.radius == r_max:
            third = pts[3 - i - j]
            if _contains_value(instance, v, third) and (best is None or v < best[0]):
                best = (v, (i, j))
    if best is not None:
        stats.case1_pairs += 1
        return best
    omega, kind = instance.omega, instance.kind
    region = _tie_region(instance, pts, pair_values, r_max)
    top = region(r_max * TOP_BUMP)
    if top:
        stats.case2_ties += 1
        chain = _tangent_chain(r_max, region, top)
        center = lexicographic_min(classify_region(chain, omega.scale))
        return (ObjectiveValue(r_max, center), (0, 1, 2))
    # Each pair's center covers all three points at this radius (measured
    # from the center, as _contains_value does); the clamp to r_max keeps
    # the bracket ordered when a pair covers the third point only within
    # EPS_DIST.
    cover = min(
        max(v.radius, _distance(omega, kind, v.center, pts[3 - i - j]))
        for v, (i, j) in pair_values
    )
    r_hi = max(r_max, cover) * (1.0 + 1e-9)
    edges = _ConcurrentEdges(instance, pts, stats) if kind is MetricKind.HILBERT else None
    value = _solve_bisection(
        instance, pts, stats, r_lo=r_max, polish=edges, r_hi=r_hi if math.isfinite(r_hi) else None
    )
    if edges is not None and edges.solved:
        stats.case3_roots += 1
    else:
        stats.case3_fallbacks += 1
    return (value, (0, 1, 2))


def _tie_region(
    instance: MebInstance,
    pts: Sequence[Point2],
    pair_values: Sequence[tuple[ObjectiveValue, tuple[int, int]]],
    r_max: float,
) -> Callable[[float], list[Point2]]:
    """r -> the region whose points are tie centers of pts at radius r.

    Hilbert: a center at r_max covering all three points lies in both
    balls of every pair, so in the contact chain S of a pair whose radius
    is r_max (Nielsen & Shao 2017); the region is S clipped by the third
    point's ball.  Other metrics: the pass over all three points.
    """
    if instance.kind is not MetricKind.HILBERT:
        return partial(_feasible_chain, instance, pts)
    i, j = next(ij for v, ij in pair_values if v.radius == r_max)
    contact = instance._cache[_contact_key(pts[i], pts[j])]
    k = pts[3 - i - j]
    frames = _cached_half_spokes(instance, k)[0]
    tol = SOLVER_CLIP_EPS * instance.omega.scale
    return lambda r: clip_by_polygon(contact, hilbert_ball_points(frames, k, r), tol)


def _sign_change_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> float:
    """Illinois regula falsi on [a, b], where fa and fb differ in sign.

    Returns the end of the final bracket on b's side, a float-precision
    upper end of the root when f changes sign once going from a to b.
    """
    side = 0
    for _ in range(MAX_BISECTION_ITERATIONS):
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                break
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
        else:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
    return b


class _ConcurrentEdges:
    """Case-3 polish hook: the radius at which three Hilbert ball edges meet.

    On each new nonempty region, the edge of each point's ball that faces
    the region's vertex mean names a candidate triple.  Each edge joins the
    sphere points p + u(r)*dir on two neighbouring half-spokes (u from
    ``offset_at_distance``), so the triple is concurrent where the
    determinant of the three edge lines vanishes.  Lines and center are
    taken relative to the first point, so the solve is translation-invariant.
    A root is accepted only if its center is interior, lies in the assumed
    sector of every point, is within EPS_DIST of all three points, and no
    center exists eps_radius below it.  The three edges' halfplanes at that
    radius usually witness the last (``_witness_empty``); only when they do
    not does a region pass decide, and ``certify_passes`` counts it.
    """

    def __init__(self, instance: MebInstance, pts: Sequence[Point2], stats: SolveStats):
        self.instance = instance
        self.pts = pts
        self.stats = stats
        self.spokes = [_cached_half_spokes(instance, p) for p in pts]
        ox, oy = pts[0]
        self.grain = 2.0**-52 * (instance.omega.scale + abs(ox) + abs(oy))
        self.tried: set[tuple[int, ...]] = set()  # triples already root-solved
        self.solved = False

    def __call__(
        self, chain: list[Point2], r_lo: float, r_hi: float
    ) -> tuple[float, list[Point2]] | None:
        n = len(chain)
        edges = self._edges(Point2(sum(q.x for q in chain) / n, sum(q.y for q in chain) / n))
        if edges in self.tried:
            return None

        def det(r: float) -> float:
            (a1, b1, c1, _), (a2, b2, c2, _), (a3, b3, c3, _) = self._lines(edges, r)
            return c1 * (a2 * b3 - a3 * b2) + c2 * (a3 * b1 - a1 * b3) + c3 * (a1 * b2 - a2 * b1)

        f_lo, f_hi = det(r_lo), det(r_hi)
        if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
            return None
        self.tried.add(edges)
        r = _sign_change_root(det, r_lo, r_hi, f_lo, f_hi)
        # The three lines meet at one point; intersect the least parallel pair.
        w, (a1, b1, c1, _), (a2, b2, c2, _) = max(
            ((l1[0] * l2[1] - l2[0] * l1[1], l1, l2)
             for l1, l2 in combinations(self._lines(edges, r), 2)),
            key=lambda t: abs(t[0]),
        )
        if w == 0.0:
            return None
        ox, oy = self.pts[0]
        center = Point2(ox + (b1 * c2 - b2 * c1) / w, oy + (a2 * c1 - a1 * c2) / w)
        instance = self.instance
        value = ObjectiveValue(r, center)
        below = r - instance.eps_radius
        if (
            point_location(instance.omega, center) is not PointLocation.INTERIOR
            or self._edges(center) != edges
            or not all(_contains_value(instance, value, p) for p in self.pts)
            or (below > r_lo and not self._empty_at(edges, below))
        ):
            return None
        self.solved = True
        return r, [center]

    def _empty_at(self, edges: tuple[int, ...], r: float) -> bool:
        """True when no center of the three points exists at radius r."""
        scale = self.instance.omega.scale
        if _witness_empty(self._lines(edges, r), scale, self.grain):
            return True
        self.stats.certify_passes += 1
        return not _feasible_chain(self.instance, self.pts, r)

    def _edges(self, c: Point2) -> tuple[int, ...]:
        return tuple(_sector(a, c.x - p.x, c.y - p.y) for (_, a), p in zip(self.spokes, self.pts))

    def _lines(self, edges: tuple[int, ...], r: float) -> list[tuple[float, float, float, float]]:
        """Unit-normal lines a*x + b*y + c = 0 of the edges at radius r,
        relative to the first point, with the edges' lengths; each ball lies
        where a*x + b*y + c >= 0."""
        ox, oy = self.pts[0]
        out = []
        for p, (frames, _), i in zip(self.pts, self.spokes, edges):
            ends = []
            for ux, uy, d_fwd, d_back in (frames[i], frames[(i + 1) % len(frames)]):
                u = offset_at_distance(MetricKind.HILBERT, d_fwd, d_back, r)
                ends.append((p.x - ox + u * ux, p.y - oy + u * uy))
            (x1, y1), (x2, y2) = ends
            a, b = y1 - y2, x2 - x1  # left normal of the CCW edge
            norm = math.hypot(a, b)
            a, b = a / norm, b / norm
            out.append((a, b, -(a * x1 + b * y1), norm))
        return out


def _witness_empty(
    lines: Sequence[tuple[float, float, float, float]], scale: float, grain: float
) -> bool:
    """True when three edge halfplanes a*x + b*y + c >= 0 (``_lines``) prove
    that a region pass over their three balls comes back empty.

    The cofactors l1 = a2*b3 - a3*b2, l2 = a3*b1 - a1*b3, l3 = a1*b2 - a2*b1
    satisfy sum l_i*(a_i, b_i) = 0.  When all three share a strict sign s,
    sum s*l_i*(a_i*x + b_i*y + c_i) = sum s*l_i*c_i at every x, so if that
    sum is below -sum |l_i|*w_i, no x lies within w_i of all three
    halfplanes (Farkas; McConnell et al. 2011).  Each ball lies in its
    edge's halfplane, and a pass keeps a vertex only within its clip band
    tol = SOLVER_CLIP_EPS * scale of every clip edge, so no vertex survives
    when w_i covers tol plus rounding.  With g = grain, 2**-52 times
    scale + |o.x| + |o.y| for the first point o, the rounding is: the
    pass's ball vertices and cut points against these ends, a few g per
    cut, 64*g over tens of cuts; the tilt that moving an edge of length
    len_i by a few g gives across Omega's diameter, 16*g*scale/len_i; and
    the cofactor residual and the sum here, 16*g.  Otherwise it proves
    nothing and the caller runs the pass.
    """
    (a1, b1, c1, n1), (a2, b2, c2, n2), (a3, b3, c3, n3) = lines
    l1, l2, l3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    if l1 < 0.0 and l2 < 0.0 and l3 < 0.0:
        l1, l2, l3 = -l1, -l2, -l3
    elif not (l1 > 0.0 and l2 > 0.0 and l3 > 0.0):
        return False
    tol = SOLVER_CLIP_EPS * scale
    band = sum(
        l * (tol + grain * (64.0 + 16.0 * scale / n)) for l, n in ((l1, n1), (l2, n2), (l3, n3))
    )
    return l1 * c1 + l2 * c2 + l3 * c3 < -band - 16.0 * grain


def three_point_value(
    instance: MebInstance, a: Point2, b: Point2, c: Point2
) -> ObjectiveValue:
    """Minimum ball of three points (see _three_point_core)."""
    sub = make_instance(
        instance.omega, (a, b, c), instance.kind, eps_radius=instance.eps_radius
    )
    if len(sub.points) == 1:
        raise CoincidentPoints("three_point_value needs at least two distinct points")
    return _subset_value(sub, tuple(range(len(sub.points))), SolveStats()).value


def _subset_value(instance: MebInstance, idxs: tuple[int, ...], stats: SolveStats) -> Basis:
    """Exact objective of a sorted subset of size <= 3, with its sorted minimal support.

    Memoized per instance: the exhaustive property suite and the LP-type
    solver both revisit the same pairs and triples many times.
    """
    key = ("value", idxs)
    hit = instance._cache.get(key)
    if hit is not None:
        return hit
    pts = instance.points
    if len(idxs) == 1:
        out = Basis(idxs, ObjectiveValue(0.0, pts[idxs[0]]))
    elif len(idxs) == 2:
        out = Basis(idxs, _pair_value(instance, pts[idxs[0]], pts[idxs[1]], stats))
    else:
        triple = tuple(pts[i] for i in idxs)
        pair_values = [
            (_subset_value(instance, (idxs[i], idxs[j]), stats).value, (i, j))
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        value, local_support = _three_point_core(instance, triple, pair_values, stats)
        out = Basis(tuple(idxs[i] for i in local_support), value)
    instance._cache[key] = out
    return out


def violation_test(
    instance: MebInstance,
    basis: Basis,
    x: int,
    stats: SolveStats | None = None,
) -> bool:
    """True when adding point x must grow the objective of the basis."""
    if stats is not None:
        stats.violation_tests += 1
    return not _contains_value(instance, basis.value, instance.points[x])


def basis_computation(
    instance: MebInstance,
    basis: Basis,
    x: int,
    stats: SolveStats | None = None,
) -> Basis:
    """Minimal basis of basis + {x}, by exhausting supports that include x."""
    stats = stats if stats is not None else SolveStats()
    stats.basis_computations += 1
    old = [i for i in basis.indices if i != x]
    candidates: list[tuple[int, ...]] = [(x,)]
    candidates += [tuple(sorted((i, x))) for i in old]
    candidates += [tuple(sorted((i, j, x))) for i, j in combinations(old, 2)]
    return _best_cover(instance, candidates, old + [x], stats)


def _best_cover(
    instance: MebInstance,
    candidates: Iterable[tuple[int, ...]],
    group: Sequence[int],
    stats: SolveStats,
) -> Basis:
    """The smallest candidate subset value whose ball covers every point of
    group, with its support; ties keep the earliest candidate."""
    best: Basis | None = None
    pts = instance.points
    for cand in candidates:
        sub = _subset_value(instance, cand, stats)
        if best is not None and not sub.value < best.value:
            continue
        if all(_contains_value(instance, sub.value, pts[i]) for i in group):
            best = sub
    if best is None:
        raise NoFeasibleBasis(f"no support of size <= 3 covers points {list(group)}")
    return best


def _hull_candidates(points: Sequence[Point2], scale: float) -> set[int]:
    """Indices of the points not strictly inside the hull of the others.

    Monotone chain over indices.  A point is popped only on a right turn
    below -1e-12 * scale**2, so collinear and near-collinear points stay; a
    point popped from both chains lies inside the hull of others and cannot
    support a ball.
    """
    keep_band = -1e-12 * scale * scale
    ordered = sorted(range(len(points)), key=points.__getitem__)
    keep: set[int] = set()
    for seq in (ordered, ordered[::-1]):
        chain: list[int] = []
        for k in seq:
            p = points[k]
            while len(chain) >= 2:
                a, b = points[chain[-2]], points[chain[-1]]
                if (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x) >= keep_band:
                    break
                chain.pop()
            chain.append(k)
        keep.update(chain)
    return keep


def _move_to_front(instance: MebInstance, order: list[int], stats: SolveStats) -> Basis:
    """Move-to-front scan over instance indices; reorders ``order`` in place."""
    pts = instance.points
    n = len(order)
    first = order[0]
    basis = Basis((first,), ObjectiveValue(0.0, pts[first]))
    changes = 0
    i = 1
    while i < n:
        x = order[i]
        if x in basis.indices:
            i += 1
            continue
        if violation_test(instance, basis, x, stats):
            changes += 1
            if changes > 64 * (n + 4):
                raise NoFeasibleBasis("basis failed to stabilize (tolerance cycle)")
            basis = basis_computation(instance, basis, x, stats)
            order.pop(i)
            order.insert(0, x)
            i = 0
        else:
            i += 1
    return basis


def lp_type_solve(instance: MebInstance) -> MebResult:
    """Randomized incremental LP-type solver (move-to-front variant).

    Every forward ball is convex, so only hull candidates can support the
    optimum; they are scanned in a seed-shuffled order.  A violating point
    is moved to the front and the scan restarts, so every accepted prefix is
    certified against the current basis.  Each basis change strictly
    increases the objective, which bounds the number of restarts.
    """
    order = list(range(len(instance.points)))
    random.Random(instance.seed).shuffle(order)
    keep = _hull_candidates(instance.points, instance.omega.scale)
    stats = SolveStats()
    basis = _move_to_front(instance, [i for i in order if i in keep], stats)
    realized = ball(instance.omega, instance.kind, basis.value.center, basis.value.radius)
    return MebResult(basis.value, basis, realized, stats)


def objective_f(instance: MebInstance, subset: Sequence[int]) -> ObjectiveValue:
    """Exact LP-type objective on a small subset (exhaustive over supports)."""
    idxs = tuple(sorted(set(subset)))
    if not idxs:
        raise EmptyInstance("objective_f of empty subset")
    n = len(instance.points)
    if any(i < 0 or i >= n for i in idxs):
        raise IndexError(f"subset indices out of range: {idxs}")
    candidates = (
        cand for size in range(1, min(3, len(idxs)) + 1) for cand in combinations(idxs, size)
    )
    return _best_cover(instance, candidates, idxs, SolveStats()).value
