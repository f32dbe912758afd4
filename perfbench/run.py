"""Benchmark entry point for hilbert_geometry.

    python3 perfbench/run.py --workload lp-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  One process, one thread, closed loop: the
next operation starts when the previous one returns.

``--trace 0`` measures for ``--seconds`` seconds of operation time, in whole
rounds, and prints the end-to-end metrics.  ``--trace 1`` replays the
workload's fixed trace rounds twice per operation, once plain and once with
every public function of the traced modules wrapped in a span (see
``tracer.py``), and prints the per-layer metrics; its counts depend only on
the seed.  Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans and a detailed
result record go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from host import HostClock
from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Reference-kernel samples: a burst around set-up and after the timed loop,
# and one before an operation whenever REF_EVERY_S of operation time has
# passed.  Host speed swings within a second, so samples must be dense.
REF_BURST = 4
REF_EVERY_S = 0.05

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layers whose calls and self time are reported, as "<module>.<function>".
TIMED_LAYERS = (
    "geometry.point_location",
    "geometry.ray_boundary_intersection",
    "geometry.chord_frame",
    "geometry.clip_by_polygon",
    "metrics.hilbert_distance",
    "metrics.funk_distance",
    "metrics.reverse_funk_distance",
    "metrics.thompson_distance",
    "balls.half_spokes",
    "balls.ball",
    "meb.violation_test",
    "meb.basis_computation",
    "meb.two_point_center",
    "svg.render_scene",
)
CALLS_ONLY = ("geometry.classify_region",)
SELF_ONLY = (
    "meb.make_instance",
    "geometry.normalize_polygon",
    "cli.load_document",
    "cli.build_instance",
    "cli.result_document",
)
DERIVED = {
    "meb.violation_tests_per_point": "tests/point",
    "meb.violation_rate": "ratio",
    "meb.bisection_iterations": "count",
    "meb.cache_entries": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in CALLS_ONLY:
        units[f"{layer}.calls"] = "count"
    for layer in SELF_ONLY:
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


def import_package():
    """Import hilbert_geometry from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "hilbert_geometry", "__init__.py")):
        sys.stderr.write(f"error: no hilbert_geometry package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import hilbert_geometry
    import hilbert_geometry.cli  # noqa: F401 - the cli-queries workload calls it

    if not os.path.abspath(hilbert_geometry.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: hilbert_geometry imported from {hilbert_geometry.__file__}\n")
        raise SystemExit(2)
    return hilbert_geometry


def git_commit(root: str) -> str:
    """HEAD of the checkout read from its .git directory, without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Outcomes of the operations run, with the set-up time and latency of
    each one that returned (whether or not its output passed the check)."""

    def __init__(self):
        self.done: list[tuple[str, float, float]] = []  # (label, setup s, run s)
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def run(self, op, tracer=None) -> bool:
        """Set up, run and check one operation; False when it raised."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            state = op.setup()
            t1 = perf_counter()
            output = op.run(state)
            t2 = perf_counter()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.busy += perf_counter() - t0
            return False
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.busy += t2 - t1
        self.done.append((op.label, t1 - t0, t2 - t1))
        try:
            ok = op.check(state, output)
        except Exception:
            ok = False
        if not ok:
            self.failed += 1
        return True

    def by_label(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for label, _, latency in self.done:
            out.setdefault(label, []).append(latency)
        return dict(sorted(out.items()))


def warm_up(workload) -> None:
    """Run one operation untimed so first-call costs stay out of the figures."""
    op = workload.round(-1)[0]
    op.run(op.setup())


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def measure(workload, seconds: float) -> tuple[Tally, dict, dict]:
    """End-to-end metrics in reference seconds (see host.py).

    A reference-kernel sample precedes an operation whenever REF_EVERY_S of
    operation time has passed since the last one, and each latency and
    set-up time is scaled by the samples around it.  The third element
    holds the raw values and the median kernel time.
    """
    clock = HostClock()
    clock.sample(REF_BURST)
    before = clock.last
    setup_samples = workload.prepare()
    clock.sample(REF_BURST)
    doc_scale = clock.scale(before + 1, REF_BURST)
    warm_up(workload)
    tally = Tally()
    tags: list[tuple[int, int]] = []  # (round, kernel sample) per returned op
    since = REF_EVERY_S
    r = 0
    while tally.busy < seconds:
        for op in workload.round(r):
            if since >= REF_EVERY_S:
                clock.sample()
                since = 0.0
            busy = tally.busy
            if tally.run(op):
                tags.append((r, clock.last))
            since += tally.busy - busy
        r += 1
    clock.sample(REF_BURST)
    if not tally.done:
        raise SystemExit("error: every operation raised; nothing to measure")

    latencies, norm_latencies = [], []
    round_setup: dict[int, list[float]] = {}
    for (_, setup, latency), (rnd, index) in zip(tally.done, tags):
        scale = clock.scale(index)
        latencies.append(latency)
        norm_latencies.append(latency * scale)
        pair = round_setup.setdefault(rnd, [0.0, 0.0])
        pair[0] += setup
        pair[1] += setup * scale
    if setup_samples:
        setups = setup_samples
        norm_setups = [s * doc_scale for s in setup_samples]
    else:
        setups = [pair[0] for pair in round_setup.values()]
        norm_setups = [pair[1] for pair in round_setup.values()]
    raw = {
        "ops_per_s": tally.passed / sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.p90": _p90(latencies),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ops_per_s": tally.passed / sum(norm_latencies),
        "op_s.p50": statistics.median(norm_latencies),
        "op_s.p90": _p90(norm_latencies),
        "setup_s": statistics.median(norm_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    host = {
        "t_ref_median_s": statistics.median(clock.samples),
        "ref_samples": len(clock.samples),
        "raw": raw,
    }
    return tally, metrics, host


def trace(workload) -> tuple[Tally, dict, Tracer]:
    workload.prepare()
    warm_up(workload)
    plain, traced = Tally(), Tally()
    tracer = Tracer()
    for r in range(workload.trace_rounds):
        for op in workload.round(r):
            plain.run(op)
            traced.run(op, tracer)
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    metrics = {}
    for layer in TIMED_LAYERS + CALLS_ONLY + SELF_ONLY:
        n_calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = n_calls
        metrics[f"{layer}.self_s"] = self_s
    tests = calls("meb.violation_test")
    metrics["meb.violation_tests_per_point"] = (
        tracer.lp_violation_tests / tracer.lp_points if tracer.lp_points else 0.0
    )
    metrics["meb.violation_rate"] = calls("meb.basis_computation") / tests if tests else 0.0
    metrics["meb.bisection_iterations"] = tracer.bisection_iterations
    metrics["meb.cache_entries"] = tracer.max_cache_entries
    metrics["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hg = import_package()
    os.makedirs(WORK_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](hg, args.seed, WORK_DIR)

    host = {}
    if args.trace:
        tally, values, tracer = trace(workload)
        units = per_layer_units()
        tracer.write_spans(os.path.join(WORK_DIR, f"spans-{args.workload}.tsv"))
    else:
        tally, values, host = measure(workload, args.seconds)
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args)
    by_label = tally.by_label()
    env["samples"] = {label: len(v) for label, v in by_label.items()}
    env.update(host)
    record = os.path.join(
        WORK_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    label_p50 = {label: statistics.median(v) for label, v in by_label.items()}
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "label_p50_s": label_p50}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
