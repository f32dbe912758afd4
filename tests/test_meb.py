import math
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_geometry import (
    EPS_GEOM,
    Basis,
    CoincidentPoints,
    EmptyInstance,
    MetricKind,
    NoFeasibleBasis,
    NotInterior,
    ObjectiveValue,
    Point2,
    PointLocation,
    RegionKind,
    basis_computation,
    distance,
    feasible_center_set,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
    normalize_polygon,
    objective_f,
    point_location,
    three_point_value,
    two_point_center,
    violation_test,
)
from hilbert_geometry import meb
from hilbert_geometry.balls import hilbert_ball_points
from hilbert_geometry.geometry import classify_region, clip_by_polygon, lexicographic_min
from hilbert_geometry.meb import (
    EPS_RADIUS,
    MAX_BISECTION_ITERATIONS,
    TOP_BUMP,
    SolveStats,
    _ConcurrentEdges,
    _hull_candidates,
    _solve_bisection,
    _subset_value,
)
from hilbert_geometry.metrics import EPS_DIST
from hilbert_geometry.sampling import (
    random_convex_polygon,
    random_instance,
    random_interior_point,
)

from conftest import (
    UNIT_SQUARE,
    full_ball_pair_value,
    near_boundary_instance,
    over_metrics,
    seeded,
    unfiltered_scan,
)

P = Point2
SQUARE = normalize_polygon(UNIT_SQUARE)
PAIR = [(0.25, 0.5), (0.75, 0.5)]
LN3 = math.log(3)


def pair_instance(**kwargs):
    return make_instance(SQUARE, PAIR, MetricKind.HILBERT, **kwargs)


class TestMakeInstance:
    def test_deduplicates(self):
        inst = make_instance(SQUARE, [(0.5, 0.5)] * 3 + [(0.25, 0.5)], MetricKind.HILBERT)
        assert len(inst.points) == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            make_instance(SQUARE, [], MetricKind.HILBERT)

    def test_exterior_point_rejected(self):
        with pytest.raises(NotInterior):
            make_instance(SQUARE, [(2, 2)], MetricKind.HILBERT)

    def test_boundary_point_rejected(self):
        with pytest.raises(NotInterior):
            make_instance(SQUARE, [(1.0, 0.5)], MetricKind.HILBERT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        for pt in ((bad, 0.5), (0.5, bad), (bad, bad)):
            with pytest.raises(NotInterior, match="is not interior"):
                make_instance(SQUARE, [(0.5, 0.5), pt], MetricKind.HILBERT)

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    @pytest.mark.parametrize("seed", range(3))
    def test_keeps_what_a_pairwise_scan_keeps(self, seed, shift):
        # Bases on multiples of the merge distance tol, with every residue
        # mod 4 on both axes, so on the edges and midlines of make_instance's
        # grid cells; each has neighbours at tol * (1 +- 1e-6) in 16
        # directions and an exact copy, in a seeded order.
        omega = normalize_polygon([(x + shift, y + shift) for x, y in UNIT_SQUARE])
        tol = EPS_GEOM * omega.scale
        pts = []
        for j in range(4):
            for k in range(4):
                bx = shift + round(0.5 / tol) * tol + 11 * j * tol
                by = shift + round(0.3 / tol) * tol + 11 * k * tol
                pts += [P(bx, by), P(bx, by)]
                for i in range(16):
                    c, s = math.cos(math.pi * i / 8), math.sin(math.pi * i / 8)
                    for f in (1.0 - 1e-6, 1.0 + 1e-6):
                        pts.append(P(bx + f * tol * c, by + f * tol * s))
        seeded(seed).shuffle(pts)
        kept = []
        for p in pts:
            if all(math.hypot(p.x - q.x, p.y - q.y) > tol for q in kept):
                kept.append(p)
        assert make_instance(omega, pts, MetricKind.HILBERT).points == tuple(kept)
        assert 16 < len(kept) < len(pts) / 4


class TestFeasibleCenterSet:
    def test_single_point_any_radius(self, unit_square):
        inst = make_instance(unit_square, [(0.3, 0.7)], MetricKind.HILBERT)
        for r in (0.0, 0.2, 1.0):
            region = feasible_center_set(inst, r)
            assert not region.is_empty

    def test_pair_at_critical_radius_is_bisector_segment(self):
        # The radius-(ln 3)/2 balls around the pair touch along the segment
        # x = 0.5, 1/3 <= y <= 2/3 (hand evaluation of the spoke points).
        region = feasible_center_set(pair_instance(), LN3 / 2)
        assert region.kind is RegionKind.SEGMENT
        seg = region.segment
        assert seg.a == pytest.approx((0.5, 1 / 3), abs=1e-9)
        assert seg.b == pytest.approx((0.5, 2 / 3), abs=1e-9)

    def test_pair_below_critical_radius_empty(self):
        assert feasible_center_set(pair_instance(), 0.4).is_empty

    def test_monotone_feasibility(self):
        inst = pair_instance()
        feasible = [not feasible_center_set(inst, r).is_empty for r in (0.3, 0.5, 0.6, 1.0)]
        assert feasible == sorted(feasible)  # once nonempty, stays nonempty

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_every_feasible_corner_covers_all_points(self, kind):
        inst = random_instance(6, 5, kind, seed=11)
        value = min_ball_bisection(inst).value
        region = feasible_center_set(inst, value.radius + 0.05)
        for corner in region.corner_points():
            for x in inst.points:
                assert distance(inst.omega, kind, corner, x) <= value.radius + 0.05 + EPS_DIST


class TestMinBallBisection:
    def test_single_point(self, unit_square):
        inst = make_instance(unit_square, [(0.3, 0.7)], MetricKind.HILBERT)
        result = min_ball_bisection(inst)
        assert result.value == ObjectiveValue(0.0, P(0.3, 0.7))
        assert result.ball.shape is None

    def test_pair_fixture(self):
        result = min_ball_bisection(pair_instance())
        assert result.value.radius == pytest.approx(LN3 / 2, abs=10 * EPS_RADIUS)
        assert result.value.center.x == pytest.approx(0.5, abs=1e-6)
        assert result.basis is None

    def test_duplicated_points_collapse(self, unit_square):
        inst = make_instance(unit_square, [(0.4, 0.4)] * 3, MetricKind.HILBERT)
        result = min_ball_bisection(inst)
        assert result.value == ObjectiveValue(0.0, P(0.4, 0.4))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_tolerance_below_float_spacing_stops_early(self, kind):
        # At eps_radius = 1e-20 the bracket reaches adjacent floats long
        # before its width drops below the tolerance; the midpoint then no
        # longer splits it and the search must stop there.
        base = random_instance(16, 40, kind, seed=1)
        inst = make_instance(base.omega, base.points, kind, seed=1, eps_radius=1e-20)
        result = min_ball_bisection(inst)
        assert result.stats.bisection_iterations < MAX_BISECTION_ITERATIONS

    def test_thompson_pair_radius_exceeds_half_distance(self):
        # Thompson is not a length metric here, so no d/2 shortcut may
        # stand in for the two-point solve: on this triangle the minimum
        # ball of the pair is 18% wider than T(p, q)/2.
        rng = seeded(50)
        omega = random_convex_polygon(3 + 50 % 10, rng)
        p, q = random_interior_point(omega, rng), random_interior_point(omega, rng)
        inst = make_instance(omega, [p, q], MetricKind.THOMPSON)
        half = distance(omega, MetricKind.THOMPSON, p, q) / 2
        assert half == pytest.approx(1.4847, abs=1e-4)
        radius = min_ball_bisection(inst).value.radius
        assert radius == pytest.approx(1.7465, abs=1e-4)
        assert feasible_center_set(inst, 1.1 * half).is_empty
        assert two_point_center(inst, p, q).radius == radius

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("seed", range(5))
    def test_result_covers_all_points(self, kind, seed):
        inst = random_instance(3 + seed % 7, 2 + seed, kind, seed=400 + seed)
        result = min_ball_bisection(inst)
        for x in inst.points:
            assert distance(inst.omega, kind, result.value.center, x) <= (
                result.value.radius + EPS_DIST
            )


class TestTwoPointCenter:
    def test_fixture_value_and_center(self):
        inst = pair_instance()
        value = two_point_center(inst, P(*PAIR[0]), P(*PAIR[1]))
        assert value.radius == pytest.approx(LN3 / 2, abs=1e-12)
        # Lexicographic minimum of the bisector segment.
        assert value.center == pytest.approx((0.5, 1 / 3), abs=1e-9)

    def test_center_supports_both_points(self):
        inst = pair_instance()
        value = two_point_center(inst, P(*PAIR[0]), P(*PAIR[1]))
        for pt in PAIR:
            d = distance(SQUARE, MetricKind.HILBERT, value.center, P(*pt))
            assert d == pytest.approx(value.radius, abs=EPS_DIST)

    def test_diagonal_pair_cross_check(self):
        a, b = P(0.3, 0.3), P(0.7, 0.7)
        inst = make_instance(SQUARE, [a, b], MetricKind.HILBERT)
        value = two_point_center(inst, a, b)
        assert distance(SQUARE, MetricKind.HILBERT, value.center, a) == pytest.approx(
            value.radius, abs=EPS_DIST
        )
        assert distance(SQUARE, MetricKind.HILBERT, value.center, b) == pytest.approx(
            value.radius, abs=EPS_DIST
        )
        oracle = min_ball_bisection(inst)
        assert value.radius == pytest.approx(oracle.value.radius, abs=1e-6)

    def test_radius_is_half_distance(self):
        # Triangle inequality lower bound holds with equality on geodesics.
        inst = random_instance(7, 2, MetricKind.HILBERT, seed=21)
        a, b = inst.points
        value = two_point_center(inst, a, b)
        assert value.radius >= distance(inst.omega, MetricKind.HILBERT, a, b) / 2 - EPS_DIST

    def test_coincident_rejected(self):
        inst = pair_instance()
        with pytest.raises(CoincidentPoints):
            two_point_center(inst, P(0.5, 0.5), P(0.5, 0.5))

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
    def test_facing_windows_match_the_whole_balls(self, offset):
        # At 1e5 the ends of the contact segment are set by rounding: the
        # two centers may differ by a tenth of the scale, so only their
        # cover is checked, and a pair whose tangent ladder comes back empty
        # (with either construction) is not compared.
        for m in range(3, 33):
            rng = seeded(7000 + m)
            omega = random_convex_polygon(m, rng)
            pts = [random_interior_point(omega, rng) for _ in range(6)]
            inst = _translated(omega, pts, MetricKind.HILBERT, offset)
            for p, q in zip(inst.points[::2], inst.points[1::2]):
                try:
                    got = meb._pair_value(inst, p, q, SolveStats())
                    want = full_ball_pair_value(inst, p, q)
                except NoFeasibleBasis:
                    if offset < 1e5:
                        raise
                    continue
                assert got.radius == want.radius
                if offset < 1e5:
                    assert math.dist(got.center, want.center) <= 1e-11 * inst.omega.scale
                    continue
                for value in (got, want):
                    for x in (p, q):
                        d = distance(inst.omega, MetricKind.HILBERT, value.center, x)
                        assert d <= value.radius + EPS_DIST

    @pytest.mark.parametrize("seed, kind", over_metrics(range(10)))
    def test_oracle_equivalence(self, seed, kind):
        inst = random_instance(3 + seed % 9, 2, kind, seed=500 + seed)
        if len(inst.points) < 2:
            pytest.skip("duplicate draw")
        a, b = inst.points
        value = two_point_center(inst, a, b)
        oracle = min_ball_bisection(inst)
        assert value.radius == pytest.approx(oracle.value.radius, abs=1e-6)


class TestThreePointValue:
    def test_collinear_triple_reduces_to_extreme_pair(self):
        inst = make_instance(
            SQUARE, [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)], MetricKind.HILBERT
        )
        value = three_point_value(inst, P(0.25, 0.5), P(0.5, 0.5), P(0.75, 0.5))
        assert value.radius == pytest.approx(LN3 / 2, abs=1e-12)
        assert value.center == pytest.approx((0.5, 1 / 3), abs=1e-9)

    def test_two_coincident_reduce_to_pair(self):
        inst = pair_instance()
        a, b = P(*PAIR[0]), P(*PAIR[1])
        assert three_point_value(inst, a, a, b) == two_point_center(inst, a, b)

    def test_all_coincident_rejected(self):
        inst = pair_instance()
        with pytest.raises(CoincidentPoints):
            three_point_value(inst, P(0.5, 0.5), P(0.5, 0.5), P(0.5, 0.5))

    def test_symmetric_triangle_supports_all_three(self):
        pts = [P(0.5, 0.8), P(0.2, 0.2), P(0.8, 0.2)]
        inst = make_instance(SQUARE, pts, MetricKind.HILBERT)
        value = three_point_value(inst, *pts)
        dists = [distance(SQUARE, MetricKind.HILBERT, value.center, p) for p in pts]
        supported = sum(abs(d - value.radius) <= EPS_DIST for d in dists)
        assert supported >= 2  # two-support or full three-support optimum
        for d in dists:
            assert d <= value.radius + EPS_DIST

    def test_larger_ball_is_a_certified_root(self):
        # All three points support a ball larger than any pair's: the radius
        # comes from the three concurrent ball edges after a few halvings,
        # not from a full bisection, so the center is equidistant to rounding.
        pts = [P(0.25, 0.5), P(0.75, 0.5), P(0.5, 0.9)]
        inst = make_instance(SQUARE, pts, MetricKind.HILBERT)
        result = lp_type_solve(inst)
        assert result.basis.indices == (0, 1, 2)
        assert result.stats.case3_fallbacks == 0
        assert result.stats.bisection_iterations < 10
        for p in pts:
            d = distance(SQUARE, MetricKind.HILBERT, result.value.center, p)
            assert d == pytest.approx(result.value.radius, abs=1e-12)
        assert result.value.center.x == pytest.approx(0.5, abs=1e-12)
        assert feasible_center_set(inst, result.value.radius - EPS_RADIUS).is_empty

    def test_sector_index_is_cyclic(self):
        # Directions just before spoke 0 and just past the last spoke lie in
        # one sector; _ConcurrentEdges compares the sectors of its guess and
        # of its root's center, so both must get the same index.
        frames, angles = meb._cached_half_spokes(pair_instance(), P(0.3, 0.6))
        n = len(frames)
        assert angles == [math.atan2(uy, ux) for ux, uy, _, _ in frames] == sorted(angles)
        for i, (ux, uy, _, _) in enumerate(frames):
            assert meb._sector(angles, ux, uy) == i
        for angle in (angles[0] - 1e-9, angles[-1] + 1e-9):
            assert meb._sector(angles, math.cos(angle), math.sin(angle)) == n - 1

    @pytest.mark.parametrize("seed, kind", over_metrics(range(10)))
    def test_oracle_equivalence(self, seed, kind):
        inst = random_instance(3 + seed % 8, 3, kind, seed=600 + seed)
        if len(inst.points) < 3:
            pytest.skip("duplicate draw")
        a, b, c = inst.points
        value = three_point_value(inst, a, b, c)
        oracle = min_ball_bisection(inst)
        assert value.radius == pytest.approx(oracle.value.radius, abs=1e-6)


# Case 3 in every metric: neither a pair's own ball nor any center at the
# largest pair radius covers all three points.
PENTAGON = normalize_polygon([(0, 0), (1, 0), (1.2, 0.7), (0.5, 1.1), (-0.2, 0.6)])
CASE3_TRIPLE = [(0.3, 0.9), (0.04, 0.11), (0.84, 0.21)]
FEASIBLE_CHAIN = meb._feasible_chain


def _case3_with_pairs_cached(kind):
    """The case-3 instance with its pair values cached, so that every
    later region pass belongs to the triple; also the largest pair radius."""
    inst = make_instance(PENTAGON, CASE3_TRIPLE, kind)
    pairs = ((0, 1), (0, 2), (1, 2))
    return inst, max(_subset_value(inst, p, SolveStats()).value.radius for p in pairs)


class TestThreePointPasses:
    """Case 2 is decided by one tie region; case 3 brackets from the pair
    centers and falls back to reach + 1 if that region is empty."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_case3_triple_makes_one_tie_pass(self, monkeypatch, kind):
        inst, r_max = _case3_with_pairs_cached(kind)
        contacts = [v for key, v in inst._cache.items() if key[0] == "contact"]
        radii, built, contact_clips = [], [], []

        def spy(instance, pts, r, **kw):
            radii.append(r)
            return FEASIBLE_CHAIN(instance, pts, r, **kw)

        def ball_spy(frames, p, r):
            built.append(r)
            return hilbert_ball_points(frames, p, r)

        def clip_spy(pts, clip, tol):
            if any(pts is chain for chain in contacts):
                contact_clips.append(built[-1])
            return clip_by_polygon(pts, clip, tol)

        monkeypatch.setattr(meb, "_feasible_chain", spy)
        monkeypatch.setattr(meb, "hilbert_ball_points", ball_spy)
        monkeypatch.setattr(meb, "clip_by_polygon", clip_spy)
        stats = SolveStats()
        basis = _subset_value(inst, (0, 1, 2), stats)
        assert basis.indices == (0, 1, 2)
        assert basis.value.radius > r_max * TOP_BUMP
        # One tie decision, at the top of the tie ladder, and case-3 probes
        # all above it.  Hilbert decides on a pair's contact chain clipped by
        # the third ball, with no pass over three balls; the other metrics
        # make one such pass.
        tie_passes = [r for r in radii if r <= r_max * TOP_BUMP]
        hilbert = kind is MetricKind.HILBERT
        assert len(contacts) == (3 if hilbert else 0)
        assert tie_passes == ([] if hilbert else [r_max * TOP_BUMP])
        assert contact_clips == ([r_max * TOP_BUMP] if hilbert else [])
        assert (stats.case3_roots, stats.case3_fallbacks) == ((1, 0) if hilbert else (0, 1))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_empty_tight_region_falls_back_to_reach_bracket(self, monkeypatch, kind):
        inst, r_max = _case3_with_pairs_cached(kind)
        # The value of a bisection from r_max up to reach + 1 alone.
        polish = (
            _ConcurrentEdges(inst, inst.points, SolveStats())
            if kind is MetricKind.HILBERT
            else None
        )
        want = _solve_bisection(inst, inst.points, SolveStats(), r_lo=r_max, polish=polish)
        emptied = []

        def tight_region_empty(instance, pts, r, **kw):
            if r > r_max * TOP_BUMP and not emptied:
                emptied.append(r)
                return []
            return FEASIBLE_CHAIN(instance, pts, r, **kw)

        monkeypatch.setattr(meb, "_feasible_chain", tight_region_empty)
        basis = _subset_value(inst, (0, 1, 2), SolveStats())
        assert len(emptied) == 1
        assert basis.indices == (0, 1, 2)
        assert basis.value.radius.hex() == want.radius.hex()
        assert [c.hex() for c in basis.value.center] == [c.hex() for c in want.center]

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_case_counters_partition_the_triples(self, kind):
        inst = random_instance(6, 12, kind, seed=17)
        stats = lp_type_solve(inst).stats
        triples = sum(1 for key in inst._cache if key[0] == "value" and len(key[1]) == 3)
        assert triples > 0
        cases = (stats.case1_pairs, stats.case2_ties, stats.case3_roots, stats.case3_fallbacks)
        assert sum(cases) == triples


def _seeded_triples(offset=0.0):
    """Ten seeded 8-point Hilbert instances, moved by offset * scale, with
    every triple of each: 560 triples, about a tenth of them ties and a
    tenth case-3 roots."""
    for seed in range(10):
        base = random_instance(4 + seed % 9, 8, MetricKind.HILBERT, seed=900 + seed)
        inst = _translated(base.omega, base.points, MetricKind.HILBERT, offset)
        yield inst, list(combinations(range(len(inst.points)), 3))


class TestContactSetTies:
    """A Hilbert tie at the largest pair radius can only lie in that pair's
    contact chain, so the chain clipped by the third ball decides it."""

    def test_pair_leaves_its_contact_chain(self):
        inst = random_instance(7, 2, MetricKind.HILBERT, seed=21)
        p, q = inst.points
        value = meb._pair_value(inst, p, q, SolveStats())
        chain = inst._cache[meb._contact_key(q, p)]
        assert inst._cache[meb._contact_key(p, q)] is chain
        assert lexicographic_min(classify_region(chain, inst.omega.scale)) == value.center

    def test_tiny_pair_leaves_its_midpoint(self):
        a, b = P(0.5, 0.5), P(0.5 + 1e-8, 0.5)
        inst = make_instance(SQUARE, [a, b], MetricKind.HILBERT)
        value = meb._pair_value(inst, *inst.points, SolveStats())
        assert value.radius <= EPS_DIST
        assert inst._cache[meb._contact_key(*inst.points)] == [value.center]

    def test_decides_as_the_three_ball_pass(self, monkeypatch):
        def solve_all():
            stats = SolveStats()
            values = [
                _subset_value(inst, idxs, stats)
                for inst, triples in _seeded_triples()
                for idxs in triples
            ]
            return stats, values

        got_stats, got = solve_all()
        monkeypatch.setattr(
            meb, "_tie_region", lambda instance, pts, *_: partial(FEASIBLE_CHAIN, instance, pts)
        )
        want_stats, want = solve_all()
        assert got_stats == want_stats
        assert got_stats.case2_ties > 50 and got_stats.case3_roots > 50
        for g, w in zip(got, want):
            assert g.indices == w.indices
            assert g.value.radius.hex() == w.value.radius.hex()
            # Tie centers come from another chain, so they may move by ulps.
            assert math.dist(g.value.center, w.value.center) <= 1e-14


class TestCertifyWitness:
    """A case-3 root is certified (no center eps_radius below it) by the
    three edge halfplanes when they witness it, by a region pass otherwise."""

    # Three unit normals that positively span the plane, and three that lie
    # in an open half-plane.
    SPANNING = [(1.0, 0.0), (-0.5, math.sqrt(0.75)), (-0.5, -math.sqrt(0.75))]
    HALF_PLANE = [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]

    def test_spanning_normals_with_a_gap_are_a_witness(self):
        scale, grain = 1.0, 2.0**-52
        # a*x + b*y + c >= 0 with c = -1e-9: three halfplanes whose common
        # part would need a*x + b*y >= 1e-9 for all three, summing to 0.
        lines = [(a, b, -1e-9, 0.5) for a, b in self.SPANNING]
        assert meb._witness_empty(lines, scale, grain)
        # A gap inside the clip band proves nothing.
        tol = meb.SOLVER_CLIP_EPS * scale
        lines = [(a, b, -0.5 * tol, 0.5) for a, b in self.SPANNING]
        assert not meb._witness_empty(lines, scale, grain)
        lines = [(a, b, 1e-9, 0.5) for a, b in self.SPANNING]
        assert not meb._witness_empty(lines, scale, grain)

    def test_normals_that_do_not_span_fall_back_to_the_pass(self, monkeypatch):
        lines = [(a, b, -1.0, 0.5) for a, b in self.HALF_PLANE]
        assert not meb._witness_empty(lines, 1.0, 2.0**-52)
        # Degenerate: two opposite normals, a zero cofactor.
        lines = [(1.0, 0.0, -1.0, 0.5), (0.0, 1.0, -1.0, 0.5), (-1.0, 0.0, -1.0, 0.5)]
        assert not meb._witness_empty(lines, 1.0, 2.0**-52)
        # When the witness proves nothing, the certificate is a region pass
        # at eps_radius below the root, and the value keeps every bit.
        inst, _ = _case3_with_pairs_cached(MetricKind.HILBERT)
        want_stats = SolveStats()
        want = _subset_value(inst, (0, 1, 2), want_stats)
        assert want_stats.certify_passes == 0
        inst, _ = _case3_with_pairs_cached(MetricKind.HILBERT)
        radii = []

        def spy(instance, pts, r, **kw):
            radii.append(r)
            return FEASIBLE_CHAIN(instance, pts, r, **kw)

        monkeypatch.setattr(meb, "_witness_empty", lambda *_: False)
        monkeypatch.setattr(meb, "_feasible_chain", spy)
        stats = SolveStats()
        got = _subset_value(inst, (0, 1, 2), stats)
        assert stats.certify_passes == 1
        assert radii[-1] == got.value.radius - inst.eps_radius
        assert got.indices == want.indices
        assert got.value.radius.hex() == want.value.radius.hex()
        assert [c.hex() for c in got.value.center] == [c.hex() for c in want.value.center]

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
    def test_never_empty_where_the_pass_is_not(self, monkeypatch, offset):
        # Probe each certified root's three edges from 1e-9 below to 1e-9
        # above it: wherever the witness says "empty", the pass over the
        # three balls must come back empty too.
        certified = []
        real = _ConcurrentEdges._empty_at

        def spy(hook, edges, r):
            certified.append((hook, edges, r + hook.instance.eps_radius))
            return real(hook, edges, r)

        monkeypatch.setattr(_ConcurrentEdges, "_empty_at", spy)
        stats = SolveStats()
        for inst, triples in _seeded_triples(offset):
            for idxs in triples:
                try:
                    _subset_value(inst, idxs, stats)
                except NoFeasibleBasis:
                    # At 1e5 some tangent ladders of pairs come back empty.
                    assert offset == 1e5
        assert len(certified) > 50
        if offset == 0.0:
            assert stats.certify_passes == 0  # the witness decided them all
        steps = [1e-9 * 2.0**-k for k in range(17)]
        decided = 0
        for hook, edges, root in certified:
            scale = hook.instance.omega.scale
            for r in [root - d for d in steps] + [root] + [root + d for d in steps]:
                if meb._witness_empty(hook._lines(edges, r), scale, hook.grain):
                    decided += 1
                    assert not FEASIBLE_CHAIN(hook.instance, hook.pts, r), (edges, root, r)
        if offset == 0.0:
            assert decided > 5 * len(certified)


class TestViolationAndBasis:
    def test_basis_point_never_violates(self):
        inst = pair_instance()
        value = two_point_center(inst, *inst.points)
        basis = Basis((0, 1), value)
        assert not violation_test(inst, basis, 0)
        assert not violation_test(inst, basis, 1)

    def test_far_point_violates(self):
        inst = make_instance(SQUARE, PAIR + [(0.9, 0.5)], MetricKind.HILBERT)
        value = two_point_center(inst, P(*PAIR[0]), P(*PAIR[1]))
        basis = Basis((0, 1), value)
        assert violation_test(inst, basis, 2)

    def test_singleton_basis_violated_by_distinct_point(self):
        inst = pair_instance()
        basis = Basis((0,), ObjectiveValue(0.0, inst.points[0]))
        assert violation_test(inst, basis, 1)

    def test_grow_singleton_to_pair(self):
        inst = pair_instance()
        basis = Basis((0,), ObjectiveValue(0.0, inst.points[0]))
        grown = basis_computation(inst, basis, 1)
        assert grown.indices == (0, 1)
        assert grown.value == two_point_center(inst, *inst.points)

    def test_growth_is_monotone(self):
        inst = make_instance(SQUARE, PAIR + [(0.5, 0.9)], MetricKind.HILBERT)
        value = two_point_center(inst, P(*PAIR[0]), P(*PAIR[1]))
        basis = Basis((0, 1), value)
        assert violation_test(inst, basis, 2)
        grown = basis_computation(inst, basis, 2)
        assert 2 <= len(grown.indices) <= 3
        assert grown.value >= basis.value
        for i in range(3):
            d = distance(SQUARE, MetricKind.HILBERT, grown.value.center, inst.points[i])
            assert d <= grown.value.radius + EPS_DIST

    def test_contained_point_leaves_basis_unchanged(self):
        inst = make_instance(SQUARE, PAIR + [(0.5, 0.5)], MetricKind.HILBERT)
        value = two_point_center(inst, P(*PAIR[0]), P(*PAIR[1]))
        basis = Basis((0, 1), value)
        assert not violation_test(inst, basis, 2)


class TestLpTypeSolve:
    def test_single_point(self, unit_square):
        inst = make_instance(unit_square, [(0.6, 0.4)], MetricKind.HILBERT)
        result = lp_type_solve(inst)
        assert result.value == ObjectiveValue(0.0, P(0.6, 0.4))
        assert result.basis.indices == (0,)

    def test_pair_fixture(self):
        result = lp_type_solve(pair_instance())
        assert result.value.radius == pytest.approx(LN3 / 2, abs=1e-12)
        assert result.value.center == pytest.approx((0.5, 1 / 3), abs=1e-9)
        assert result.basis.indices == (0, 1)

    def test_pair_fixture_weak_metrics(self):
        for kind in (MetricKind.FUNK, MetricKind.REVERSE_FUNK, MetricKind.THOMPSON):
            inst = make_instance(SQUARE, PAIR, kind)
            lp = lp_type_solve(inst)
            assert lp.basis.indices == (0, 1)
            assert abs(lp.value.radius - min_ball_bisection(inst).value.radius) <= 1e-6

    @pytest.mark.parametrize("seed, kind", over_metrics(range(30)))
    def test_oracle_equivalence_random(self, seed, kind):
        inst = random_instance(3 + seed % 10, 1 + seed % 12, kind, seed=seed)
        lp = lp_type_solve(inst)
        oracle = min_ball_bisection(inst)
        assert abs(lp.value.radius - oracle.value.radius) <= 1e-6
        for x in inst.points:
            assert distance(inst.omega, inst.kind, lp.value.center, x) <= (
                lp.value.radius + EPS_DIST
            )

    @pytest.mark.parametrize("seed", range(15))
    def test_basis_invariants(self, seed):
        inst = random_instance(3 + seed % 9, 2 + seed % 10, MetricKind.HILBERT, seed=700 + seed)
        result = lp_type_solve(inst)
        basis = result.basis
        assert 1 <= len(basis.indices) <= 3
        # Support condition: every basis point sits on the ball boundary.
        for i in basis.indices:
            d = distance(inst.omega, MetricKind.HILBERT, basis.value.center, inst.points[i])
            assert d == pytest.approx(basis.value.radius, abs=EPS_DIST)
        # Minimality: dropping any basis point strictly shrinks the objective.
        if len(basis.indices) > 1:
            for i in basis.indices:
                rest = tuple(j for j in basis.indices if j != i)
                assert objective_f(inst, rest) < basis.value

    def test_seed_determinism(self):
        inst1 = random_instance(7, 9, MetricKind.HILBERT, seed=42)
        inst2 = random_instance(7, 9, MetricKind.HILBERT, seed=42)
        r1, r2 = lp_type_solve(inst1), lp_type_solve(inst2)
        assert r1.value == r2.value
        assert r1.basis.indices == r2.basis.indices
        assert r1.stats == r2.stats

    def test_permutation_invariance(self):
        base = random_instance(6, 8, MetricKind.HILBERT, seed=9)
        reference = lp_type_solve(base)
        for shuffle_seed in range(10):
            rng = seeded(shuffle_seed)
            pts = list(base.points)
            rng.shuffle(pts)
            inst = make_instance(base.omega, pts, MetricKind.HILBERT, seed=shuffle_seed)
            result = lp_type_solve(inst)
            assert result.value.radius == pytest.approx(
                reference.value.radius, abs=EPS_DIST
            )
            assert result.value.center == pytest.approx(
                reference.value.center, abs=EPS_DIST
            )


def _edge_run(trial):
    """41 points on a horizontal line just above the unit square's bottom
    edge (odd trials jittered by up to 3e-10) plus one point near the top."""
    rng = seeded(1000 + trial)
    height = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3)[trial % 5]
    jitter = 3e-10 if trial % 2 else 0.0
    pts = [(0.05 + 0.9 * k / 40, height + rng.uniform(-jitter, jitter)) for k in range(41)]
    return pts + [(rng.uniform(0.2, 0.8), 1.0 - 1e-3)]


# name -> (points, instance seed)
PREFILTER_CASES = {
    "one_point": ([(0.6, 0.4)], 0),
    "two_points": ([(0.3, 0.6), (0.7, 0.2)], 1),
    "collinear_30": ([(0.1 + 0.8 * k / 29, 0.1 + 0.5 * k / 29) for k in range(30)], 2),
    **{f"edge_run_{trial}": (_edge_run(trial), trial) for trial in range(10)},
}


class TestClipBandIsADistance:
    """Regressions from the ``lp-small`` benchmark workload (ellipse 12-gons).

    Hilbert ball edges there can be 2e-6 long.  While the solver's clip band
    bounded the cross product |edge| * distance instead of the distance, it
    admitted centers 1e6 times farther outside such an edge than intended.
    """

    def test_short_ball_edge_admits_no_center_outside(self):
        # Seed 95, round 711: the pair (0, 1) got a center 4.2e-7 past its
        # second point, so no support covered all three points.
        omega = normalize_polygon([
            (-0.5836934041538298, -0.06381925511869291),
            (-0.4170076246250262, -0.6004432790926716),
            (0.023161570789410557, -0.9519680199179128),
            (0.2421176479861316, -1.0271014267902119),
            (0.8662154463206955, -0.9997770225035559),
            (1.21951839465515, -0.7578369568144556),
            (1.3779738878852215, -0.36715603298991273),
            (1.2298621117080475, 0.14693077668793453),
            (0.9600092575858861, 0.4169678341428047),
            (0.4867665438899944, 0.6132955315370655),
            (-0.006204848440336697, 0.5932424809816692),
            (-0.4912668033250032, 0.235891692550908),
        ])
        pts = [
            (0.6177186394224206, -0.4924309107085192),
            (0.3065676364667234, 0.02212009841682432),
            (0.7546189481755633, -0.2290444056715413),
        ]
        inst = make_instance(omega, pts, MetricKind.HILBERT)
        result = lp_type_solve(inst)
        for x in inst.points:
            assert distance(omega, MetricKind.HILBERT, result.value.center, x) <= (
                result.value.radius + EPS_DIST
            )

    def test_two_point_radius_is_minimal(self):
        # Seed 66, round 97: centers 1e-9 of radius below the optimum passed
        # the band, so the returned radius was not certified minimal.
        omega = normalize_polygon([
            (-0.36496541799970056, -0.4170591524223112),
            (-0.1764223811158528, -0.8173193778728479),
            (-0.014450092749124545, -0.8945688922766736),
            (0.4790540710637259, -0.7113852294419795),
            (0.7594615115392888, -0.34974844652630577),
            (0.8937215183315685, -0.029596559913014464),
            (0.929765713197842, 0.6332893451472728),
            (0.8015432059128913, 0.8851023411611495),
            (0.4461771637294172, 0.9994148216515445),
            (0.218710674331768, 0.9034648853200523),
            (-0.18925533836055064, 0.4266181252880279),
            (-0.36119569832168313, -0.10840289599769118),
        ])
        pts = [
            (0.5398948548166463, -0.16861860676560428),
            (0.10704432138697126, 0.18704747152388876),
        ]
        inst = make_instance(omega, pts, MetricKind.HILBERT)
        result = lp_type_solve(inst)
        assert result.basis.indices == (0, 1)
        assert feasible_center_set(inst, result.value.radius - 1e-9).is_empty


class TestHullPrefilter:
    """lp_type_solve scans hull candidates only and must agree bit for bit
    with the unfiltered move-to-front core over every index."""

    @pytest.mark.parametrize("case, kind", over_metrics(sorted(PREFILTER_CASES)))
    def test_matches_unfiltered_core(self, case, kind):
        # Exact for every metric: each forward ball is convex, so a point
        # strictly inside the hull of others never violates a basis.
        pts, seed = PREFILTER_CASES[case]
        inst = make_instance(SQUARE, pts, kind, seed=seed)
        result = lp_type_solve(inst)
        full, _ = unfiltered_scan(make_instance(SQUARE, pts, kind, seed=seed))
        assert result.value.radius.hex() == full.value.radius.hex()
        assert [c.hex() for c in result.value.center] == [c.hex() for c in full.value.center]
        assert result.basis.indices == full.indices
        for x in inst.points:
            assert distance(SQUARE, kind, result.value.center, x) <= (
                result.value.radius + EPS_DIST
            )

    def test_drops_only_points_strictly_inside(self):
        corners = [(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9)]
        # On an edge, or 1e-13 inside it (within the keep band): kept.
        on_edges = [(0.5, 0.1), (0.9, 0.3), (0.3, 0.1 + 1e-13)]
        inside = [(0.5, 0.5), (0.2, 0.7), (0.5, 0.1 + 1e-9)]
        keep = _hull_candidates([P(*p) for p in corners + on_edges + inside], 1.0)
        assert keep == set(range(len(corners) + len(on_edges)))

    def test_scans_fewer_points_than_the_core(self):
        inst = random_instance(8, 1000, MetricKind.HILBERT, seed=3)
        _, stats = unfiltered_scan(inst)
        assert lp_type_solve(inst).stats.violation_tests < stats.violation_tests / 10


class TestObjectiveF:
    def test_singleton(self):
        inst = pair_instance()
        assert objective_f(inst, [0]) == ObjectiveValue(0.0, inst.points[0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            objective_f(pair_instance(), [])

    @pytest.mark.parametrize("seed, kind", over_metrics(range(5)))
    def test_monotonicity_and_locality_exhaustive(self, seed, kind):
        inst = random_instance(3 + seed % 7, 6, kind, seed=800 + seed)
        n = len(inst.points)
        idx = tuple(range(n))
        subsets = []
        for mask in range(1, 1 << n):
            subsets.append(tuple(i for i in idx if mask & (1 << i)))
        values = {s: objective_f(inst, s) for s in subsets}
        for s in subsets:
            for t in subsets:
                if set(s) <= set(t):
                    assert values[s] <= values[t]  # monotonicity
        # Locality: f(F) = f(G) = f(F + {x}) implies f(F) = f(G + {x}).
        for f_set in subsets:
            for g_set in subsets:
                if not set(f_set) <= set(g_set):
                    continue
                if values[f_set] != values[g_set]:
                    continue
                for x in idx:
                    if x in g_set:
                        continue
                    fx = tuple(sorted(set(f_set) | {x}))
                    gx = tuple(sorted(set(g_set) | {x}))
                    if values[f_set] == values[fx]:
                        assert values[f_set] == values[gx]


def _assert_optimal_interior(inst, result):
    # ball() inside either solver already required an interior center.
    assert point_location(inst.omega, result.value.center) is PointLocation.INTERIOR
    for x in inst.points:
        assert distance(inst.omega, inst.kind, result.value.center, x) <= (
            result.value.radius + EPS_DIST
        )
    assert feasible_center_set(inst, result.value.radius - 10 * EPS_RADIUS).is_empty


class TestWeakMetricMeb:
    @pytest.mark.parametrize(
        "kind", [MetricKind.FUNK, MetricKind.REVERSE_FUNK, MetricKind.THOMPSON]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_certificate(self, kind, seed):
        inst = random_instance(3 + seed % 8, 2 + seed % 8, kind, seed=900 + seed)
        result = min_ball_bisection(inst)
        for x in inst.points:
            assert distance(inst.omega, kind, result.value.center, x) <= (
                result.value.radius + EPS_DIST
            )
        if result.value.radius > 10 * EPS_RADIUS:
            shrunk = feasible_center_set(inst, result.value.radius - 10 * EPS_RADIUS)
            assert shrunk.is_empty

    # The pinned near-boundary Funk cases below run through both solvers.
    SOLVERS = (min_ball_bisection, lp_type_solve)

    def test_funk_center_stays_off_the_boundary(self):
        # Funk's center constraints, unclipped reverse homothets, reach the
        # boundary; here the center used to land in the boundary band and
        # realizing the ball raised NotInterior.
        inst = random_instance(6, 30, MetricKind.FUNK, 77)
        for solve in self.SOLVERS:
            _assert_optimal_interior(inst, solve(inst))

    def test_funk_point_between_the_band_and_the_inset(self):
        # A point 1.5 boundary bands inside: interior, but outside the
        # two-band inset that a boundary Funk center is moved into.
        band = EPS_GEOM * SQUARE.scale
        pts = [(0.3, 1.5 * band), (0.6, 0.7), (0.2, 0.4)]
        inst = make_instance(SQUARE, pts, MetricKind.FUNK)
        assert len(inst.points) == 3
        for solve in self.SOLVERS:
            _assert_optimal_interior(inst, solve(inst))

    def test_funk_optimum_beside_a_point_near_the_boundary(self):
        # The optimal centers reach from the left edge to 1.875 bands inside
        # it, next to a point 1.5 bands inside, where the Funk distance
        # changes by ~1e-3 per 1e-12 of center motion.  Centers two bands
        # inside need radius ln(4/3), and there the clip band admits centers
        # 1.5e-3 outside it, so the search itself must not be inset.
        inst = make_instance(SQUARE, [(1.5e-9, 0.3), (0.2, 0.2)], MetricKind.FUNK)
        for solve in self.SOLVERS:
            result = solve(inst)
            assert result.value.radius == pytest.approx(math.log(1.25), abs=EPS_DIST)
            _assert_optimal_interior(inst, result)

    def test_boundary_subset_center_does_not_raise_a_math_error(self):
        # Seed 127 of a near-boundary recipe: each point is interior or a
        # few boundary bands inside an edge.  A pair's Funk center lands on
        # the boundary.  Its zero slack there only drops that edge from the
        # Funk max, so the cover test neither takes log(0) nor calls the
        # points out of reach, and lp_type_solve agrees with the oracle.
        inst = near_boundary_instance(127, MetricKind.FUNK)
        assert len(inst.points) == 5
        oracle = min_ball_bisection(inst)
        _assert_optimal_interior(inst, oracle)
        result = lp_type_solve(inst)
        _assert_optimal_interior(inst, result)
        assert abs(result.value.radius - oracle.value.radius) <= 1e-9

    @pytest.mark.parametrize("seed", [126, 127, 132, 165, 196])
    def test_hilbert_pairs_near_the_boundary_meet(self, seed):
        # A pair of these instances has a point a few boundary bands inside
        # an edge.  Clipped whole, its two balls came back empty on every
        # rung of the tangent ladder; their facing windows meet.
        inst = near_boundary_instance(seed, MetricKind.HILBERT)
        result = lp_type_solve(inst)
        _assert_optimal_interior(inst, result)
        assert abs(result.value.radius - min_ball_bisection(inst).value.radius) <= 1e-9

    def test_center_that_misses_a_point_is_not_returned(self):
        # The optimum sits at a vertex and the second point lies a few bands
        # inside an edge through it, so the Funk distance moves by ~2e-4
        # across the clip band; the bisection's pick misses that point.
        omega = normalize_polygon(
            [
                (-1.3312937022587152, 0.13825335702463296),
                (0.7595813251324528, -1.1573445158440554),
                (0.48653316182745765, 0.32129627128518357),
            ]
        )
        pts = [
            (0.19377806721946342, 0.2918178030820459),
            (0.5014987080127039, 0.24025315897569371),
        ]
        inst = make_instance(omega, pts, MetricKind.FUNK)
        for solve in self.SOLVERS:
            try:
                result = solve(inst)
            except NoFeasibleBasis:
                continue
            for x in inst.points:
                assert distance(omega, MetricKind.FUNK, result.value.center, x) <= (
                    result.value.radius + EPS_DIST
                )


def _clip_each(instance, region, pts, r):
    """region clipped by every constraint polygon of pts at radius r."""
    tol = meb.SOLVER_CLIP_EPS * instance.omega.scale
    for x in pts:
        for poly in meb._center_constraints(instance, x, r):
            region = clip_by_polygon(region, poly, tol)
            if not region:
                return region
    return region


def _plain_chain(instance, r):
    """_feasible_chain without the skip, from the same start: a Hilbert pass
    starts from the first ball clipped by omega, the others from omega."""
    omega, pts = instance.omega, instance.points
    if instance.kind is not MetricKind.HILBERT:
        return _clip_each(instance, list(omega.vertices), pts, r)
    (first,) = meb._center_constraints(instance, pts[0], r)
    tol = meb.SOLVER_CLIP_EPS * omega.scale
    return _clip_each(instance, clip_by_polygon(first, omega.vertices, tol), pts[1:], r)


def _distance_to_chain(c, chain):
    """Euclidean distance from c to a convex CCW chain, 0 strictly inside."""
    n = len(chain)
    inside = n >= 3
    best = math.inf
    for i, a in enumerate(chain):
        b = chain[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        wx, wy = c[0] - a[0], c[1] - a[1]
        inside = inside and ex * wy - ey * wx > 0.0
        length2 = ex * ex + ey * ey
        t = min(1.0, max(0.0, (wx * ex + wy * ey) / length2)) if length2 > 0.0 else 0.0
        best = min(best, math.hypot(wx - t * ex, wy - t * ey))
    return 0.0 if inside else best


def _hausdorff(u, v):
    """Hausdorff distance of two convex chains: each is the hull of its
    vertices, so the farthest point of one from the other is a vertex."""
    return max(
        max(_distance_to_chain(c, v) for c in u), max(_distance_to_chain(c, u) for c in v)
    )


def _hexes(chain):
    return [(v[0].hex(), v[1].hex()) for v in chain]


def _translated(omega, pts, kind, offset):
    t = offset * omega.scale
    image = normalize_polygon([(v.x + t, v.y + t) for v in omega.vertices])
    return make_instance(image, [(x + t, y + t) for x, y in pts], kind)


# A hexagon and ten interior points: six outer ones (two near edges), then
# four inner ones, whose constraints stop cutting near the optimum.
HEXAGON = [(0.0, 0.0), (1.3, -0.2), (2.1, 0.7), (1.8, 1.9), (0.4, 2.0), (-0.5, 1.0)]
HEX_POINTS = [
    (0.3, 0.4), (1.5, 0.3), (1.2, 1.6), (0.1, 1.2), (1.95, 1.0), (0.7, 0.05),
    (0.9, 0.9), (1.0, 1.1), (0.8, 1.2), (1.1, 0.8),
]


class TestConstraintSkip:
    """_feasible_chain skips a point whose constraint polygons all hold the
    region's bounding box (_holds_box); the chain keeps every bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 9),
        kind=st.sampled_from(list(MetricKind)),
        offset=st.sampled_from([0.0, 1e3, 1e5]),
        exponent=st.floats(-12.0, math.log10(30.0)),
    )
    def test_chain_equals_clipping_every_constraint(self, seed, n, kind, offset, exponent):
        rng = seeded(seed)
        omega = random_convex_polygon(3 + seed % 8, rng)
        pts = [random_interior_point(omega, rng) for _ in range(n)]
        inst = _translated(omega, pts, kind, offset)
        r = 10.0**exponent
        assert _hexes(meb._feasible_chain(inst, inst.points, r)) == _hexes(_plain_chain(inst, r))

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_every_bisection_probe_keeps_its_bits(self, monkeypatch, kind, offset):
        # Near the optimum the region is small and lies on ball boundaries,
        # where a skip without its margin would drop a cut.
        inst = _translated(normalize_polygon(HEXAGON), HEX_POINTS, kind, offset)
        probes = []

        def both(instance, pts, r, stats=None):
            chain = FEASIBLE_CHAIN(instance, pts, r, stats)
            assert _hexes(chain) == _hexes(_plain_chain(instance, r))
            probes.append(r)
            return chain

        monkeypatch.setattr(meb, "_feasible_chain", both)
        stats = min_ball_bisection(inst).stats
        assert len(probes) > 30
        assert stats.points_skipped > 0 and stats.points_clipped > 0

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_hilbert_start_is_the_omega_first_set(self, offset):
        # The first ball clipped by omega, then the rest, against omega
        # clipped by every ball.  Radii stop at 10: past that, balls reach
        # within the clip band of omega's vertices, where the two orders
        # keep different parts of the band.
        empty = 0
        for seed in range(60):
            rng = seeded(seed)
            omega = random_convex_polygon(3 + seed % 14, rng)
            pts = [random_interior_point(omega, rng) for _ in range(rng.randint(1, 5))]
            inst = _translated(omega, pts, MetricKind.HILBERT, offset)
            for _ in range(4):
                r = 10.0 ** rng.uniform(-3.0, 1.0)
                got = meb._feasible_chain(inst, inst.points, r)
                want = _clip_each(inst, list(inst.omega.vertices), inst.points, r)
                assert bool(got) == bool(want)
                empty += not got
                if got:
                    assert _hausdorff(got, want) <= 1e-11 * inst.omega.scale
        assert 0 < empty < 240

    def test_stats_count_point_visits_of_large_passes_only(self):
        # At r = 1.2 > ln 3 the four corner balls leave a small region about
        # the center, well inside the center's own ball.
        pts = [(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.1, 0.9), (0.5, 0.5)]
        inst = make_instance(SQUARE, pts, MetricKind.HILBERT)
        stats = SolveStats()
        meb._feasible_chain(inst, inst.points, 1.2, stats)
        assert (stats.points_clipped, stats.points_skipped) == (4, 1)
        meb._feasible_chain(inst, inst.points[2:], 1.2, stats)
        assert (stats.points_clipped, stats.points_skipped) == (4, 1)

    def test_hilbert_corner_in_the_wrap_around_sector(self):
        # About the square's center the spokes run along the diagonals; the
        # sector through -x wraps from the last half-spoke to the first.  At
        # r = ln 3 the ball is [0.1, 0.9]^2.
        inst = make_instance(SQUARE, [(0.5, 0.5)], MetricKind.HILBERT)
        x = inst.points[0]
        _, angles = meb._cached_half_spokes(inst, x)
        assert angles[-1] < math.pi < angles[0] + 2 * math.pi
        assert meb._holds_box(inst, x, LN3, (0.12, 0.56, 0.46, 0.55))
        # Only the left corners, both in the wrap-around sector, are outside.
        assert not meb._holds_box(inst, x, LN3, (0.08, 0.56, 0.46, 0.55))

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_box_that_contains_the_point(self, kind):
        inst = make_instance(SQUARE, [(0.3, 0.6)], kind)
        x = inst.points[0]
        assert meb._holds_box(inst, x, 20.0, (0.25, 0.35, 0.55, 0.65))
        assert not meb._holds_box(inst, x, 0.05, (0.25, 0.35, 0.55, 0.65))

    def test_reflected_homothet(self):
        # About (0.3, 0.6) at r = ln 2, the forward homothet (ratio 1/2) is
        # [0.15, 0.65] x [0.3, 0.8] and the reflected one (ratio 1) is
        # [-0.4, 0.6] x [0.2, 1.2]: the box leaves only the reflected one.
        box = (0.5, 0.62, 0.5, 0.7)
        r = math.log(2.0)
        kinds = (MetricKind.FUNK, MetricKind.REVERSE_FUNK, MetricKind.THOMPSON)
        holds = [
            meb._holds_box(make_instance(SQUARE, [(0.3, 0.6)], kind), P(0.3, 0.6), r, box)
            for kind in kinds
        ]
        # Funk centers lie in reflected homothets, reverse-Funk ones in forward ones.
        assert holds == [False, True, False]

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_margin_grows_with_the_translation(self, kind):
        # About the square's center at r = ln 2 every constraint polygon is
        # a square of half-width 1/2 (reflected homothet), 1/4 (forward) or
        # 3/10 (Hilbert, tanh(ln 2) / 2).  A box 1e-6 inside it clears the
        # margin 1e-9 * (scale + |x.x| + |x.y|) at the origin, not at 1e5.
        half = {
            MetricKind.FUNK: 0.5,
            MetricKind.REVERSE_FUNK: 0.25,
            MetricKind.HILBERT: 0.3,
            MetricKind.THOMPSON: 0.25,
        }[kind] - 1e-6
        for t, skipped in ((0.0, True), (1e5, False)):
            inst = _translated(SQUARE, [(0.5, 0.5)], kind, t)
            c = inst.points[0]
            box = (c.x - half, c.x + half, c.y - half, c.y + half)
            assert meb._holds_box(inst, c, math.log(2.0), box) is skipped

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_radius_that_rounds_the_polygon_onto_its_point(self, kind):
        # 1 - e^-r and e^r - 1 round to 0 at r = 1e-300: no skip, no raise.
        inst = make_instance(SQUARE, [(0.3, 0.6), (0.31, 0.6), (0.3, 0.61), (0.31, 0.61)], kind)
        x = inst.points[0]
        assert not meb._holds_box(inst, x, 1e-300, (x.x, x.x, x.y, x.y))
        assert _hexes(meb._feasible_chain(inst, inst.points, 1e-300)) == _hexes(
            _plain_chain(inst, 1e-300)
        )
