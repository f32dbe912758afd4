"""SVG renderings of the domain, point sets, spokes, and metric balls."""

from __future__ import annotations

from xml.sax.saxutils import quoteattr

from .balls import MetricBall
from .geometry import ConvexPolygon, Point2
from .metrics import MetricKind

VIEWPORT = 800.0
MARGIN_FRACTION = 0.05

BALL_COLORS = {
    MetricKind.FUNK: "blue",
    MetricKind.REVERSE_FUNK: "green",
    MetricKind.HILBERT: "red",
    MetricKind.THOMPSON: "purple",
}


class _Mapper:
    """Fit the domain bounding box into the viewport, y-axis flipped."""

    def __init__(self, omega: ConvexPolygon):
        self.scale = VIEWPORT * (1.0 - 2.0 * MARGIN_FRACTION) / (omega.scale or 1.0)
        self.min_x = min(v.x for v in omega.vertices)
        self.max_y = max(v.y for v in omega.vertices)
        self.margin = VIEWPORT * MARGIN_FRACTION

    def __call__(self, p: Point2) -> tuple[float, float]:
        return (
            self.margin + (p.x - self.min_x) * self.scale,
            self.margin + (self.max_y - p.y) * self.scale,
        )


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _path(points, mapper: _Mapper, stroke: str, fill: str = "none", width: float = 2.0) -> str:
    coords = [mapper(p) for p in points]
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords) + " Z"
    return (
        f'<path d={quoteattr(d)} stroke={quoteattr(stroke)} '
        f'fill={quoteattr(fill)} stroke-width="{width}" />'
    )


def render_scene(
    omega: ConvexPolygon,
    points: tuple[Point2, ...] = (),
    balls: tuple[MetricBall, ...] = (),
    spokes: tuple[tuple[Point2, Point2], ...] = (),
) -> str:
    """An SVG 1.1 document with one <path> element per drawn polygon."""
    mapper = _Mapper(omega)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int(VIEWPORT)}" height="{int(VIEWPORT)}" '
        f'viewBox="0 0 {int(VIEWPORT)} {int(VIEWPORT)}">',
        _path(omega.vertices, mapper, stroke="black"),
    ]
    for a, b in spokes:
        (x1, y1), (x2, y2) = mapper(a), mapper(b)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#999999" stroke-width="0.75" />'
        )
    for b in balls:
        color = BALL_COLORS[b.kind]
        if b.shape is not None:
            parts.append(_path(b.shape.vertices, mapper, stroke=color, width=1.5))
        cx, cy = mapper(b.center)
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5" fill="{color}" />'
        )
    for p in points:
        cx, cy = mapper(p)
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="black" />')
    parts.append("</svg>")
    return "\n".join(parts)
