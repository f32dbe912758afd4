"""The benchmark's workloads: which operations run, on which inputs, and how
each output is checked.

A workload is a sequence of rounds.  Round r is a fixed list of operations
whose inputs come from ``inputs.rng_for(seed, workload, r, ...)``, so a seed
and a round number pin every input exactly.  Each operation has three
phases:

* ``setup``: build what the library needs from raw coordinates
  (``normalize_polygon`` + ``make_instance``); timed into ``setup_s``;
* ``run``: the operation a user waits for; timed as its latency;
* ``check``: verify the output; never timed, never traced.

Every operation gets fresh inputs, so no instance cache survives from one
operation to the next: each solve pays the cold cost a caller pays.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from inputs import ellipse_polygon, hull_indices, interior_points, rng_for

# Radius margin for the minimality check: at r* - MINIMALITY_MARGIN no
# center may cover the points.  Far above the solvers' 1e-10 radius
# tolerance, far below any radius the workloads produce.
MINIMALITY_MARGIN = 1e-9


@dataclass
class Op:
    label: str
    setup: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


class Workload:
    name = ""
    # Rounds replayed by a traced run; fixed so every count repeats exactly.
    trace_rounds = 1

    def __init__(self, hg, seed: int, work_dir: str):
        self.hg = hg
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> list[float]:
        """One-time set-up before any round; returns set-up time samples
        (seconds) when the workload sets up once instead of per operation."""
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Solver workloads
# ---------------------------------------------------------------------------


def _solver_op(hg, label, polygon, points, kind, inst_seed, solver: str) -> Op:
    # Functions are looked up on the package at call time, so a traced run
    # sees the tracer's wrappers.
    def setup():
        omega = hg.normalize_polygon(polygon)
        return hg.make_instance(omega, points, kind, seed=inst_seed)

    def check(instance, result):
        return meb_is_correct(hg, instance, result, points)

    def run(instance):
        return getattr(hg, solver)(instance)

    return Op(label, setup, run, check)


def meb_is_correct(hg, instance, result, points) -> bool:
    """The ball covers the input points and no smaller ball does.

    Metric balls are convex, so a ball covers the points exactly when it
    covers the vertices of their convex hull, and the hull points have the
    same minimum enclosing ball as all points.  Coverage: every hull vertex
    of the raw input within radius + EPS_DIST of the center.  Minimality: no
    center covers the hull vertices at radius - MINIMALITY_MARGIN; for an
    LP-type result the basis points alone must already forbid that radius.
    """
    omega, kind = instance.omega, instance.kind
    radius, center = result.value
    hull = [points[i] for i in hull_indices(points)]
    if not all(hg.distance(omega, kind, center, x) <= radius + hg.EPS_DIST for x in hull):
        return False
    if radius <= MINIMALITY_MARGIN:
        return True
    if result.basis is not None:
        hull = [instance.points[i] for i in result.basis.indices]
    witness = hg.make_instance(omega, hull, kind)
    return hg.feasible_center_set(witness, radius - MINIMALITY_MARGIN).is_empty


class LpLarge(Workload):
    """Hilbert ``lp_type_solve`` on many points: the violation-test /
    distance path (point_location, ray_boundary_intersection) does most of
    the work, basis computation little."""

    name = "lp-large"
    N = 1000
    M = 8
    trace_rounds = 12

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        polygon = ellipse_polygon(self.M, rng)
        points = interior_points(polygon, self.N, rng)
        kind = self.hg.MetricKind.HILBERT
        return [_solver_op(self.hg, f"m{self.M}", polygon, points, kind, r, "lp_type_solve")]


class LpSmall(Workload):
    """Hilbert ``lp_type_solve`` on few points: basis computation and the
    case-3 three-point bisection do most of the work."""

    name = "lp-small"
    N_RANGE = (8, 64)
    M = 12
    trace_rounds = 40

    def round(self, r):
        rng = rng_for(self.seed, self.name, r)
        n = rng.randint(*self.N_RANGE)
        polygon = ellipse_polygon(self.M, rng)
        points = interior_points(polygon, n, rng)
        kind = self.hg.MetricKind.HILBERT
        return [_solver_op(self.hg, f"m{self.M}", polygon, points, kind, r, "lp_type_solve")]


class Oracle4Metric(Workload):
    """``min_ball_bisection`` for all four metrics: clip_by_polygon /
    half_spokes feasibility passes dominate.

    Hilbert runs on both sides of the 256-point switch in its bisection lower
    bound (quadratic pairwise scan below, anchored scan above); the other
    metrics have no such switch and run at the larger size only.  Five
    operation types per round keep the median latency inside one type's
    cluster rather than in the gap between two.
    """

    name = "oracle-4metric"
    M = 16
    SMALL, LARGE = 128, 320
    trace_rounds = 1

    def round(self, r):
        kinds = self.hg.MetricKind
        plan = [(kind, self.LARGE) for kind in kinds] + [(kinds.HILBERT, self.SMALL)]
        ops = []
        for kind, n in plan:
            rng = rng_for(self.seed, self.name, r, n, kind.value)
            polygon = ellipse_polygon(self.M, rng)
            points = interior_points(polygon, n, rng)
            ops.append(
                _solver_op(
                    self.hg, f"{kind.value}/n{n}", polygon, points, kind, r,
                    "min_ball_bisection",
                )
            )
        return ops


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _close_points(got, want, tol: float = 1e-9) -> bool:
    return len(got) == len(want) and all(
        _close(g[0], w[0], tol) and _close(g[1], w[1], tol) for g, w in zip(got, want)
    )


class CliQueries(Workload):
    """In-process ``hilbert_geometry.cli.main`` calls on documents written
    during set-up: distance, ball and ball --svg across all four metrics, and
    small meb queries for every metric but Funk.  Every call parses its
    document and gets fresh query points, so nothing is cached between calls.

    Funk ``meb`` is left out because ``min_ball_bisection`` can put the Funk
    center on the domain boundary, and ``hilbertgeo meb`` then exits 3 (see
    README.md, "Known failure"); put it back in MEB_KINDS once that is fixed.
    """

    name = "cli-queries"
    VARIANTS = 32           # documents per metric
    SIDES = (6, 8, 12, 16)  # polygon size by variant
    MEB_POINTS = 30
    SETUP_REPEATS = 9
    MEB_KINDS = ("hilbert", "reverse_funk", "thompson")
    trace_rounds = 8

    def prepare(self):
        hg = self.hg
        self.dir = os.path.join(self.work_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.svg_path = os.path.join(self.dir, "ball.svg")
        self.docs = {}
        raw = []
        for kind in hg.MetricKind:
            for v in range(self.VARIANTS):
                rng = rng_for(self.seed, self.name, kind.value, v)
                polygon = ellipse_polygon(self.SIDES[v % len(self.SIDES)], rng)
                points = interior_points(polygon, self.MEB_POINTS, rng)
                path = os.path.join(self.dir, f"{kind.value}-{v}.json")
                doc = {"metric": kind.value, "polygon": polygon, "points": points}
                self.docs[kind, v] = (path, polygon, points)
                raw.append((path, doc))
        self._expected_meb = {}
        samples = []
        for _ in range(self.SETUP_REPEATS):
            start = perf_counter()
            for path, doc in raw:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            samples.append(perf_counter() - start)
        return samples

    def round(self, r):
        """Distance, ball and ball --svg for every metric, then two meb calls
        whose metric (from MEB_KINDS) and document rotate with r.  Two solves
        per twelve queries keep p50 among the query calls and p90 among the
        solves."""
        kinds = list(self.hg.MetricKind)
        ops = []
        v = r % self.VARIANTS
        for kind in kinds:
            path, polygon, _ = self.docs[kind, v]
            rng = rng_for(self.seed, self.name, "query", r, kind.value)
            p, q, c = interior_points(polygon, 3, rng)
            radius = rng.uniform(0.2, 1.5)
            ops.append(self._distance(kind, path, polygon, p, q))
            ops.append(self._ball(kind, path, polygon, c, radius, svg=False))
            ops.append(self._ball(kind, path, polygon, c, radius, svg=True))
        meb_kinds = [self.hg.MetricKind(value) for value in self.MEB_KINDS]
        for j in (2 * r, 2 * r + 1):
            kind = meb_kinds[j % len(meb_kinds)]
            v = (j // len(meb_kinds)) % self.VARIANTS
            path, polygon, points = self.docs[kind, v]
            ops.append(self._meb(kind, path, polygon, points, v))
        return ops

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hg.cli.main(argv)
        return code, out.getvalue()

    def _distance(self, kind, path, polygon, p, q) -> Op:
        hg = self.hg
        argv = ["distance", "--input", path, f"--p={_xy(p)}", f"--q={_xy(q)}"]

        def check(_, output):
            code, text = output
            if code != 0:
                return False
            omega = hg.normalize_polygon(polygon)
            want = hg.distance(omega, kind, p, q)
            return abs(float(text) - want) <= 1e-11 * max(1.0, abs(want))

        return Op(f"distance/{kind.value}", _no_setup, lambda _: self._call(argv), check)

    def _ball(self, kind, path, polygon, c, radius, svg) -> Op:
        hg = self.hg
        argv = ["ball", "--input", path, f"--p={_xy(c)}", f"--radius={radius!r}"]
        if svg:
            argv += ["--svg", self.svg_path]

        def check(_, output):
            code, text = output
            if code != 0:
                return False
            doc = json.loads(text)
            want = hg.ball(hg.normalize_polygon(polygon), kind, c, radius)
            ok = (
                doc["metric"] == kind.value
                and _close(doc["radius"], want.radius)
                and _close_points([doc["center"]], [want.center])
                and _close_points(doc["ball"], want.shape_points())
            )
            if ok and svg:
                root = ET.parse(self.svg_path).getroot()
                ok = len(root.findall("{http://www.w3.org/2000/svg}path")) >= 2
            return ok

        label = "ball_svg" if svg else "ball"
        return Op(f"{label}/{kind.value}", _no_setup, lambda _: self._call(argv), check)

    def _meb(self, kind, path, polygon, points, v) -> Op:
        hg = self.hg
        argv = ["meb", "--input", path]

        def check(_, output):
            code, text = output
            if code != 0:
                return False
            doc = json.loads(text)
            want = self._expected_meb.get((kind, v))
            if want is None:
                instance = hg.make_instance(hg.normalize_polygon(polygon), points, kind)
                solver = hg.lp_type_solve if kind is hg.MetricKind.HILBERT else hg.min_ball_bisection
                result = solver(instance)
                want = (result, meb_is_correct(hg, instance, result, points))
                self._expected_meb[kind, v] = want
            result, correct = want
            basis = list(result.basis.indices) if result.basis is not None else []
            return (
                correct
                and _close(doc["radius"], result.value.radius)
                and _close_points([doc["center"]], [result.value.center])
                and doc["basis"] == basis
            )

        return Op(f"meb/{kind.value}", _no_setup, lambda _: self._call(argv), check)


def _no_setup():
    return None


def _xy(p) -> str:
    # repr round-trips floats exactly, so the CLI sees the very same point;
    # callers pass it as --p=X,Y because a leading minus reads as a flag.
    return f"{p[0]!r},{p[1]!r}"


WORKLOADS = {cls.name: cls for cls in (LpLarge, LpSmall, Oracle4Metric, CliQueries)}
