"""Host speed reference.

The benchmark runs on shared virtual machines whose effective CPU speed
swings by tens of percent within seconds and drifts over minutes (see
README.md, "Host noise").  The timed loop therefore interleaves a fixed
pure-Python reference kernel with the operations, and every timing metric
is reported in *reference seconds*: each measured duration is scaled by
``REFERENCE_S / t_local``, where ``t_local`` is the median of the kernel
samples taken around that operation.  On a host where the kernel takes
``REFERENCE_S`` the two units coincide.  Raw seconds stay in the run's
record file.

The kernel belongs to the benchmark, not to the library, so no change to
the library can move it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

# Kernel time on the 2-core Xeon VM the benchmark was sized on, quiet phase.
REFERENCE_S = 0.004

_POINTS = [(math.cos(0.37 * k), math.sin(0.61 * k)) for k in range(64)]
_REPEATS = 160


def reference_kernel() -> float:
    """Tuple points, cross products, hypot and indexing: the kind of work the
    library's kernels do, in a fixed amount."""
    pts = _POINTS
    n = len(pts)
    acc = 0.0
    for _ in range(_REPEATS):
        for i in range(n):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 7) % n]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            acc += math.hypot(cross, a[0])
    return acc


class HostClock:
    """Reference-kernel samples in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            reference_kernel()
            self.samples.append(perf_counter() - start)

    @property
    def last(self) -> int:
        """Index of the latest sample; tag a measurement with it."""
        return len(self.samples) - 1

    def scale(self, index: int, half_width: int = 3) -> float:
        """Factor from seconds to reference seconds for a measurement taken
        after sample ``index``: REFERENCE_S over the median of the samples
        within ``half_width`` of it, so the samples just before and after the
        measurement both count."""
        lo = max(0, index - half_width)
        return REFERENCE_S / statistics.median(self.samples[lo : index + half_width + 1])
