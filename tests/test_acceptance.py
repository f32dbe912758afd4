"""Acceptance suite: one test per release criterion.

Each test prints a ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s``
or on failure) and asserts at the criterion's stated tolerance.  Criteria
2-4 run the LP-type solver for all four metrics and criterion 9 for Hilbert
and Thompson, one line per metric.  Criterion 5 asserts the ball-complexity bounds that hold:
[m, 2m] sides for Hilbert balls of an m-gon and [3, 2m] for Thompson
balls, whose lower bound m is false (see
tests/test_balls.py::TestThompsonBall::test_side_count_can_drop_below_m
for a pinned, distance-verified counterexample).
"""

import math
import random
import time
from statistics import fmean

from hilbert_geometry import (
    MetricKind,
    Point2,
    PointLocation,
    ball,
    distance,
    feasible_center_set,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
    normalize_polygon,
    objective_f,
    point_location,
)
from hilbert_geometry.sampling import (
    random_convex_polygon,
    random_instance,
    random_interior_point,
)

from conftest import (
    apply_projective,
    exact_thompson_sides,
    random_projective_map,
    unfiltered_scan,
)

SQUARE = normalize_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fixture_exactness():
    p, q = Point2(0.5, 0.5), Point2(0.75, 0.5)
    errs = {
        "hilbert": abs(distance(SQUARE, MetricKind.HILBERT, p, q) - 0.5 * math.log(3)),
        "funk": abs(distance(SQUARE, MetricKind.FUNK, p, q) - math.log(2)),
        "reverse_funk": abs(distance(SQUARE, MetricKind.REVERSE_FUNK, p, q) - math.log(1.5)),
        "thompson": abs(distance(SQUARE, MetricKind.THOMPSON, p, q) - math.log(2)),
    }
    worst = max(errs.values())
    _report(1, worst <= 1e-12, f"unit-square fixtures, worst error {worst:.2e} (tol 1e-12)")


def test_criterion_2_oracle_equivalence():
    for kind in MetricKind:
        start = time.perf_counter()
        worst_gap = 0.0
        violations = 0
        for seed in range(200):
            inst = random_instance(3 + seed % 10, 1 + seed % 12, kind, seed=seed)
            lp = lp_type_solve(inst)
            oracle = min_ball_bisection(inst)
            gap = abs(lp.value.radius - oracle.value.radius)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-6:
                violations += 1
            for x in inst.points:
                for result in (lp, oracle):
                    if distance(inst.omega, inst.kind, result.value.center, x) > (
                        result.value.radius + 1e-7
                    ):
                        violations += 1
        elapsed = time.perf_counter() - start
        _report(
            2,
            violations == 0 and elapsed <= 60.0,
            f"{kind.value}: 200 instances, worst radius gap {worst_gap:.2e} (tol 1e-6), "
            f"{violations} violations, {elapsed:.1f}s (budget 60s)",
        )


def test_criterion_3_lp_type_axioms():
    for kind in MetricKind:
        start = time.perf_counter()
        mono = loc = 0
        for seed in range(50):
            inst = random_instance(3 + seed % 10, 6, kind, seed=3000 + seed)
            n = len(inst.points)
            subsets = [
                tuple(i for i in range(n) if mask & (1 << i)) for mask in range(1, 1 << n)
            ]
            values = {s: objective_f(inst, s) for s in subsets}
            for s in subsets:
                s_set = set(s)
                for t in subsets:
                    if s_set <= set(t) and not values[s] <= values[t]:
                        mono += 1
            for f_set in subsets:
                fv = values[f_set]
                for g_set in subsets:
                    if not set(f_set) <= set(g_set) or values[g_set] != fv:
                        continue
                    for x in range(n):
                        if x in g_set:
                            continue
                        fx = tuple(sorted(set(f_set) | {x}))
                        gx = tuple(sorted(set(g_set) | {x}))
                        if values[fx] == fv and values[gx] != fv:
                            loc += 1
        elapsed = time.perf_counter() - start
        _report(
            3,
            mono == 0 and loc == 0 and elapsed <= 60.0,
            f"{kind.value}: 50 exhaustive 6-point sweeps: {mono} monotonicity / {loc} "
            f"locality violations, {elapsed:.1f}s (budget 60s)",
        )


def test_criterion_4_combinatorial_dimension():
    for kind in MetricKind:
        size_bad = support_bad = minimality_bad = 0
        worst_support = 0.0
        for seed in range(200):
            inst = random_instance(3 + seed % 10, 1 + seed % 12, kind, seed=seed)
            basis = lp_type_solve(inst).basis
            if not 1 <= len(basis.indices) <= 3:
                size_bad += 1
            for i in basis.indices:
                err = abs(
                    distance(inst.omega, kind, basis.value.center, inst.points[i])
                    - basis.value.radius
                )
                worst_support = max(worst_support, err)
                if err > 1e-7:
                    support_bad += 1
            if len(basis.indices) > 1:
                for i in basis.indices:
                    rest = tuple(j for j in basis.indices if j != i)
                    if not objective_f(inst, rest) < basis.value:
                        minimality_bad += 1
        _report(
            4,
            size_bad == 0 and support_bad == 0 and minimality_bad == 0,
            f"{kind.value}: 200 solved bases: sizes ok={size_bad == 0}, worst support "
            f"error {worst_support:.2e} (tol 1e-7), minimality violations {minimality_bad}",
        )


def test_criterion_5_ball_complexity():
    hilbert_bad = thompson_bad = recount_bad = below_m = 0
    worst_vertex_err = worst_midpoint_err = 0.0
    for seed in range(500):
        rng = random.Random(40000 + seed)
        m = 3 + seed % 10
        omega = random_convex_polygon(m, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        bh = ball(omega, MetricKind.HILBERT, p, r)
        bt = ball(omega, MetricKind.THOMPSON, p, r)
        if not m <= len(bh.shape) <= 2 * m:
            hilbert_bad += 1
        sides = len(bt.shape)
        if not 3 <= sides <= 2 * m:
            thompson_bad += 1
        if sides < m:
            below_m += 1
        # An exact-rational recount of the same intersection: an edge that
        # the clipping tolerance merged or dropped shows as a mismatch.
        if sides != exact_thompson_sides(omega, p, r):
            recount_bad += 1
        # The realized shape is the exact distance-r level set.
        for a, b in bt.shape.edges():
            mid = Point2(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
            worst_vertex_err = max(
                worst_vertex_err, abs(distance(omega, MetricKind.THOMPSON, p, a) - r)
            )
            worst_midpoint_err = max(
                worst_midpoint_err, abs(distance(omega, MetricKind.THOMPSON, p, mid) - r)
            )
    _report(
        5,
        hilbert_bad == 0
        and thompson_bad == 0
        and recount_bad == 0
        and max(worst_vertex_err, worst_midpoint_err) <= 1e-12,
        f"500 draws: hilbert [m,2m] violations {hilbert_bad}, thompson [3,2m] "
        f"violations {thompson_bad}, exact-recount mismatches {recount_bad}, "
        f"thompson max |T-r| {worst_vertex_err:.2e} at vertices, "
        f"{worst_midpoint_err:.2e} at edge midpoints (tol 1e-12); "
        f"{below_m} thompson balls have fewer than m sides, which the metric "
        f"allows (see tests/test_balls.py::TestThompsonBall::"
        f"test_side_count_can_drop_below_m)",
    )


def test_criterion_6_nesting():
    violations = 0
    for seed in range(100):
        rng = random.Random(41000 + seed)
        omega = random_convex_polygon(3 + seed % 10, rng)
        p = random_interior_point(omega, rng)
        r = rng.uniform(0.05, 2.0)
        inner = ball(omega, MetricKind.HILBERT, p, r / 2).shape
        middle = ball(omega, MetricKind.THOMPSON, p, r).shape
        outer = ball(omega, MetricKind.HILBERT, p, r).shape
        for v in inner.vertices:
            if point_location(middle, v) is PointLocation.EXTERIOR:
                violations += 1
        for v in middle.vertices:
            if point_location(outer, v) is PointLocation.EXTERIOR:
                violations += 1
    _report(6, violations == 0, f"100 draws, vertex-wise nesting violations: {violations}")


def test_criterion_7_projective_invariance():
    violations = 0
    worst = 0.0
    for seed in range(100):
        rng = random.Random(42000 + seed)
        omega = random_convex_polygon(3 + seed % 10, rng)
        p = random_interior_point(omega, rng)
        q = random_interior_point(omega, rng)
        if math.hypot(p.x - q.x, p.y - q.y) < 1e-6:
            continue
        h = distance(omega, MetricKind.HILBERT, p, q)
        mat = random_projective_map(omega, rng)
        image = normalize_polygon([apply_projective(mat, v) for v in omega.vertices])
        image_p, image_q = apply_projective(mat, p), apply_projective(mat, q)
        h_image = distance(image, MetricKind.HILBERT, image_p, image_q)
        err = abs(h - h_image) / (1.0 + h)
        worst = max(worst, err)
        if abs(h - h_image) > 1e-9 * (1.0 + h):
            violations += 1
    _report(
        7,
        violations == 0,
        f"100 projective maps, worst relative error {worst:.2e} (tol 1e-9), "
        f"violations {violations}",
    )


def test_criterion_7_meb_projective_invariance():
    # The Hilbert MEB radius is invariant too.  Tolerance 1e-9 (1 + r) for
    # both solvers, ten times their radius tolerance EPS_RADIUS: each
    # radius is within about EPS_RADIUS of the optimum in its own domain.
    # Measured worst on these 50 images: 7.7e-16 (lp_type_solve), 1.2e-15
    # (min_ball_bisection); on all 183 criterion-2 instances with n >= 2,
    # 3.5e-15 and 5.1e-15.
    worst = {lp_type_solve: 0.0, min_ball_bisection: 0.0}
    violations = images = 0
    for seed in range(0, 200, 3):
        inst = random_instance(3 + seed % 10, 1 + seed % 12, MetricKind.HILBERT, seed=seed)
        if len(inst.points) < 2:
            continue
        mat = random_projective_map(inst.omega, random.Random(43000 + seed))
        image = make_instance(
            normalize_polygon([apply_projective(mat, v) for v in inst.omega.vertices]),
            [apply_projective(mat, x) for x in inst.points],
            MetricKind.HILBERT,
            seed=seed,
        )
        images += 1
        for solver in worst:
            r = solver(inst).value.radius
            err = abs(r - solver(image).value.radius) / (1.0 + r)
            worst[solver] = max(worst[solver], err)
            if err > 1e-9:
                violations += 1
    _report(
        7,
        violations == 0,
        f"{images} projective images of criterion-2 instances, worst relative "
        f"MEB radius change {worst[lp_type_solve]:.2e} (lp_type_solve), "
        f"{worst[min_ball_bisection]:.2e} (min_ball_bisection), tol 1e-9, "
        f"violations {violations}",
    )


def test_criterion_8_weak_metric_minimality():
    kinds = [MetricKind.FUNK, MetricKind.REVERSE_FUNK, MetricKind.THOMPSON]
    violations = 0
    for seed in range(100):
        kind = kinds[seed % 3]
        inst = random_instance(3 + seed % 10, 2 + seed % 10, kind, seed=50000 + seed)
        result = min_ball_bisection(inst)
        for x in inst.points:
            if distance(inst.omega, kind, result.value.center, x) > (
                result.value.radius + 1e-7
            ):
                violations += 1
        if result.value.radius > 1e-9:
            if not feasible_center_set(inst, result.value.radius - 1e-9).is_empty:
                violations += 1
    _report(8, violations == 0, f"100 weak-metric instances, violations: {violations}")


def test_criterion_9_empirical_linearity():
    # The unfiltered move-to-front core over all points, on five m = 8
    # instances per n (seeds derived from n and the trial), in each
    # instance's seed order: lp_type_solve's hull prefilter must not be
    # what makes this pass.  Thompson takes the same instances.
    for kind in (MetricKind.HILBERT, MetricKind.THOMPSON):
        start = time.perf_counter()
        per_point = {}
        for n in (100, 1000, 10000):
            tests = []
            for trial in range(5):
                derived = ((0 * 31 + n) * 31 + 8) * 31 + trial
                inst = random_instance(8, n, kind, derived)
                tests.append(unfiltered_scan(inst)[1].violation_tests)
            per_point[n] = fmean(tests) / n
        elapsed = time.perf_counter() - start
        bounded = all(v <= 20.0 for v in per_point.values())
        _report(
            9,
            bounded and elapsed <= 120.0,
            f"{kind.value}: violation tests per point: "
            + ", ".join(f"n={n}: {v:.2f}" for n, v in per_point.items())
            + f" (bound 20), bench time {elapsed:.1f}s (budget 120s)",
        )
