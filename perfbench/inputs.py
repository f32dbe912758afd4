"""Seeded input generator owned by the benchmark.

The package's own ``sampling`` module is deliberately not used: a later
edit there must not silently change what a workload measures.  Everything
here returns plain coordinate tuples; the program under test sees nothing
but numbers.
"""

from __future__ import annotations

import math
import random

Coords = list[tuple[float, float]]


def rng_for(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, labels), stable across processes."""
    return random.Random(repr((seed,) + labels))


def ellipse_polygon(m: int, rng: random.Random) -> Coords:
    """A strictly convex m-gon inscribed in a rotated, stretched ellipse.

    Each vertex sits in its own angular slot of width 2*pi/m, jittered by
    at most 60% of the slot, so neighbouring vertices never come closer than
    0.4 slots and no triple is nearly collinear.
    """
    a = 1.0
    b = rng.uniform(0.35, 1.0)
    theta = rng.uniform(0.0, math.pi)
    cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    slot = 2.0 * math.pi / m
    phase = rng.uniform(0.0, slot)
    out = []
    for k in range(m):
        ang = phase + slot * (k + 0.6 * rng.random())
        ex, ey = a * math.cos(ang), b * math.sin(ang)
        out.append((cx + ex * cos_t - ey * sin_t, cy + ex * sin_t + ey * cos_t))
    return out


def interior_points(polygon: Coords, n: int, rng: random.Random) -> Coords:
    """n strictly interior points, each a positive convex combination of the
    vertices (flat Dirichlet weights)."""
    out = []
    for _ in range(n):
        weights = [-math.log(1.0 - rng.random()) for _ in polygon]
        total = sum(weights)
        out.append(
            (
                sum(w * v[0] for w, v in zip(weights, polygon)) / total,
                sum(w * v[1] for w, v in zip(weights, polygon)) / total,
            )
        )
    return out


def hull_indices(points) -> list[int]:
    """Indices of the convex hull vertices (monotone chain, exact cross
    products, collinear points dropped).  Independent of the package's own
    ``convex_hull`` so the output checks do not trust the code they check."""
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    if len(order) < 3:
        return order

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and cross(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower, upper = chain(order), chain(reversed(order))
    return lower[:-1] + upper[:-1]
