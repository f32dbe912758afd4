"""Batch command-line interface.

Subcommands: ``distance``, ``ball``, ``meb``.  Exit codes group
failures for harnesses: 0 ok, 2 document/parse errors (non-finite numbers
included), 3 geometric precondition failures, 4 usage errors.  Every
failure prints one line to stderr: ``error: <code>: <detail>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any, Sequence

from .balls import ball as make_ball
from .balls import half_spokes
from .errors import GeometryError
from .geometry import ConvexPolygon, Point2, normalize_polygon
from .meb import (
    EPS_RADIUS,
    MebInstance,
    MebResult,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
)
from .metrics import MetricKind, distance
from .svg import render_scene

_METRIC_NAMES = {kind.value: kind for kind in MetricKind}


class _Failure(Exception):
    """Carries an exit code and a single-line message."""

    def __init__(self, code: int, kind: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.kind = kind
        self.detail = detail


def _parse_failure(detail: str) -> _Failure:
    return _Failure(2, "parse", detail)


def _usage_failure(detail: str) -> _Failure:
    return _Failure(4, "usage", detail)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _usage_failure(message)


def _parse_point(text: str, flag: str) -> Point2:
    parts = text.split(",")
    if len(parts) != 2:
        raise _parse_failure(f"{flag} must be X,Y, got {text!r}")
    try:
        p = Point2(float(parts[0]), float(parts[1]))
    except ValueError:
        raise _parse_failure(f"{flag} must be numeric X,Y, got {text!r}") from None
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise _parse_failure(f"{flag} must be finite X,Y, got {text!r}")
    return p


def _coord_list(doc: dict, field: str, minimum: int) -> list[Point2]:
    raw = doc.get(field)
    if not isinstance(raw, list) or len(raw) < minimum:
        raise _parse_failure(f"{field} must be a list of at least {minimum} [x, y] pairs")
    pts = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise _parse_failure(f"{field}[{i}] must be an [x, y] pair of numbers")
        try:
            pts.append(Point2(float(entry[0]), float(entry[1])))
        except OverflowError:
            raise _parse_failure(f"{field}[{i}] is beyond the float range") from None
    return pts


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _parse_failure(f"non-finite number {text} in document")
    return value


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise _parse_failure(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, integers past the digit limit
        raise _parse_failure(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _parse_failure("document root must be an object")
    return doc


def _resolve_metric(doc: dict, override: str | None) -> MetricKind:
    name = override if override is not None else doc.get("metric")
    if name is None:
        raise _parse_failure("metric missing (set the document field or pass --metric)")
    if not isinstance(name, str) or name not in _METRIC_NAMES:
        raise _parse_failure(
            f"metric must be one of {sorted(_METRIC_NAMES)}, got {name!r}"
        )
    return _METRIC_NAMES[name]


def build_instance(doc: dict, args: argparse.Namespace) -> MebInstance:
    polygon = _coord_list(doc, "polygon", 3)
    points = _coord_list(doc, "points", 1)
    kind = _resolve_metric(doc, args.metric)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _parse_failure(f"seed must be an integer, got {seed!r}")
    tolerance = args.tolerance if args.tolerance is not None else doc.get("tolerance")
    if tolerance is None:
        tolerance = EPS_RADIUS
    elif (
        not isinstance(tolerance, (int, float))
        or isinstance(tolerance, bool)
        or not 0 < tolerance <= sys.float_info.max
    ):
        raise _parse_failure(f"tolerance must be a finite positive number, got {tolerance!r}")
    omega = normalize_polygon(polygon)
    return make_instance(omega, points, kind, seed=seed, eps_radius=float(tolerance))


def _domain_only(doc: dict, args: argparse.Namespace) -> tuple[ConvexPolygon, MetricKind]:
    polygon = _coord_list(doc, "polygon", 3)
    kind = _resolve_metric(doc, args.metric)
    return normalize_polygon(polygon), kind


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        return _round12(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(_jsonable(doc)) + "\n")


def result_document(result: MebResult, solver: str) -> dict:
    return {
        "radius": result.value.radius,
        "center": list(result.value.center),
        "basis": list(result.basis.indices) if result.basis is not None else [],
        "ball": [list(p) for p in result.ball.shape_points()],
        "solver": solver,
        "stats": {
            "violation_tests": result.stats.violation_tests,
            "basis_computations": result.stats.basis_computations,
            "bisection_iterations": result.stats.bisection_iterations,
        },
    }


def _write_svg(path: str, svg: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg + "\n")


def _cmd_distance(args: argparse.Namespace) -> int:
    doc = load_document(args.input)
    omega, kind = _domain_only(doc, args)
    p = _parse_point(args.p, "--p")
    q = _parse_point(args.q, "--q")
    value = distance(omega, kind, p, q)
    sys.stdout.write(f"{value:.12f}\n")
    return 0


def _cmd_ball(args: argparse.Namespace) -> int:
    doc = load_document(args.input)
    omega, kind = _domain_only(doc, args)
    p = _parse_point(args.p, "--p")
    if not (math.isfinite(args.radius) and args.radius >= 0):
        raise _usage_failure(f"--radius must be finite and >= 0, got {args.radius}")
    b = make_ball(omega, kind, p, args.radius)
    _emit(
        {
            "metric": kind.value,
            "center": list(b.center),
            "radius": b.radius,
            "ball": [list(v) for v in b.shape_points()],
        }
    )
    if args.svg:
        spoke_lines = ()
        if kind is MetricKind.HILBERT:
            spoke_lines = tuple(
                (b.center, Point2(b.center.x + d * ux, b.center.y + d * uy))
                for ux, uy, d, _ in half_spokes(omega, b.center)
            )
        _write_svg(args.svg, render_scene(omega, (b.center,), (b,), spoke_lines))
    return 0


def _cmd_meb(args: argparse.Namespace) -> int:
    doc = load_document(args.input)
    instance = build_instance(doc, args)
    solver = args.solver or ("lp_type" if instance.kind is MetricKind.HILBERT else "bisection")
    result = lp_type_solve(instance) if solver == "lp_type" else min_ball_bisection(instance)
    _emit(result_document(result, solver))
    if args.svg:
        _write_svg(args.svg, render_scene(instance.omega, instance.points, (result.ball,)))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs as much as a ``distance`` call."""
    parser = _Parser(prog="hilbertgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--input", required=True, help="instance document (JSON)")
        p.add_argument("--metric", choices=sorted(_METRIC_NAMES), default=None)

    p_dist = sub.add_parser("distance", help="distance between two interior points")
    common(p_dist)
    p_dist.add_argument("--p", required=True, help="first point as X,Y")
    p_dist.add_argument("--q", required=True, help="second point as X,Y")
    p_dist.set_defaults(func=_cmd_distance)

    p_ball = sub.add_parser("ball", help="realize a metric ball as a polygon")
    common(p_ball)
    p_ball.add_argument("--p", required=True, help="center as X,Y")
    p_ball.add_argument("--radius", type=float, required=True)
    p_ball.add_argument("--svg", default=None, help="write an SVG rendering here")
    p_ball.set_defaults(func=_cmd_ball)

    p_meb = sub.add_parser("meb", help="minimum enclosing ball of the instance points")
    common(p_meb)
    p_meb.add_argument("--seed", type=int, default=None)
    p_meb.add_argument("--tolerance", type=float, default=None)
    p_meb.add_argument("--solver", choices=["lp_type", "bisection"], default=None)
    p_meb.add_argument("--svg", default=None, help="write an SVG rendering here")
    p_meb.set_defaults(func=_cmd_meb)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Failure as exc:
        sys.stderr.write(f"error: {exc.kind}: {exc.detail}\n")
        return exc.code
    except GeometryError as exc:
        sys.stderr.write(f"error: geometry: {exc}\n")
        return 3


def run() -> None:
    raise SystemExit(main())
