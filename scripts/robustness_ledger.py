"""Robustness ledger: how both solvers fare near the boundary and far from the origin.

Run from the root of a checkout (about 10 s):

    PYTHONPATH=src python scripts/robustness_ledger.py > ledger.txt
    diff scripts/robustness_ledger.expected ledger.txt

It prints two tables and lists, for every count, the seeds behind it, so a
diff names each instance whose outcome changed.

1. The near-boundary recipe of ``tests/conftest.py::near_boundary_instance``
   (seeds 0-199, every metric, both solvers).  The input gate rejects some
   draws by design; each other run either answers or raises.  An answer is
   "uncertified" when ``feasible_center_set(r - 1e-7)`` is nonempty, and
   "misses" when a point lies farther than r + EPS_DIST from its center.
2. Hilbert ``lp_type_solve`` on a fixed seeded set of random instances moved
   by 0, 1e3, 1e5 and 1e6 times the domain scale: failures by error class.

Outcomes are deterministic; a change in this output is a change in what the
solvers answer.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from conftest import near_boundary_instance, seeded  # noqa: E402

from hilbert_geometry import (  # noqa: E402
    GeometryError,
    MetricKind,
    NotInterior,
    distance,
    feasible_center_set,
    lp_type_solve,
    make_instance,
    min_ball_bisection,
    normalize_polygon,
)
from hilbert_geometry.metrics import EPS_DIST  # noqa: E402
from hilbert_geometry.sampling import random_convex_polygon, random_interior_point  # noqa: E402

SOLVERS = (("bisection", min_ball_bisection), ("lp_type", lp_type_solve))
NEAR_SEEDS = range(200)
OFFSETS = (0.0, 1e3, 1e5, 1e6)
OFFSET_SEEDS = range(150)


def _outcome(instance, solve) -> str:
    try:
        result = solve(instance)
    except GeometryError as exc:
        return type(exc).__name__
    value = result.value
    if any(
        distance(instance.omega, instance.kind, value.center, x) > value.radius + EPS_DIST
        for x in instance.points
    ):
        return "misses"
    if not feasible_center_set(instance, value.radius - 1e-7).is_empty:
        return "uncertified"
    return "ok"


def _print_counts(label: str, seeds_by_outcome: dict[str, list[int]]) -> None:
    parts = [f"ok={len(seeds_by_outcome.get('ok', []))}"]
    parts += [f"{k}={len(v)}" for k, v in sorted(seeds_by_outcome.items()) if k != "ok"]
    print(f"{label}: " + " ".join(parts))
    for k, seeds in sorted(seeds_by_outcome.items()):
        if k != "ok":
            print(f"    {k}: {seeds}")


def near_boundary_table() -> None:
    print(f"near-boundary recipe, seeds {NEAR_SEEDS.start}-{NEAR_SEEDS.stop - 1}")
    for kind in MetricKind:
        rejected = []
        outcomes = {name: defaultdict(list) for name, _ in SOLVERS}
        for seed in NEAR_SEEDS:
            try:
                instance = near_boundary_instance(seed, kind)
            except NotInterior:
                rejected.append(seed)
                continue
            for name, solve in SOLVERS:
                outcomes[name][_outcome(instance, solve)].append(seed)
        print(f"{kind.value}: input gate rejects {len(rejected)}")
        for name, _ in SOLVERS:
            _print_counts(f"  {kind.value} {name}", outcomes[name])


def _offset_instance(seed: int, offset: float):
    """A random (4 + seed % 13)-gon and 3-30 interior points, moved by
    offset * scale along both axes."""
    rng = seeded(10_000 + seed)
    omega = random_convex_polygon(4 + seed % 13, rng)
    pts = [random_interior_point(omega, rng) for _ in range(3 + (7 * seed) % 28)]
    t = offset * omega.scale
    image = normalize_polygon([(v.x + t, v.y + t) for v in omega.vertices])
    return make_instance(image, [(x + t, y + t) for x, y in pts], MetricKind.HILBERT)


def offset_table() -> None:
    print(f"hilbert lp_type_solve at offsets, seeds {OFFSET_SEEDS.start}-{OFFSET_SEEDS.stop - 1}")
    for offset in OFFSETS:
        failures = defaultdict(list)
        for seed in OFFSET_SEEDS:
            try:
                lp_type_solve(_offset_instance(seed, offset))
            except GeometryError as exc:
                failures[type(exc).__name__].append(seed)
        total = sum(len(v) for v in failures.values())
        print(f"  offset {offset:.0e}: failed={total}")
        for name, seeds in sorted(failures.items()):
            print(f"    {name}: {seeds}")


if __name__ == "__main__":
    near_boundary_table()
    offset_table()
