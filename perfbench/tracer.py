"""Span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public function of the traced modules, at every name any package module
binds it to (including aliases such as ``cli.make_ball`` and dispatch
tables such as ``metrics._DISPATCH``), with a wrapper that records one span
per call: name, parent span, start and end in ``perf_counter_ns``.  Spans
stay in flat arrays in memory until ``write_spans`` dumps them.

A layer's self time is its spans' durations minus the durations of their
direct child spans; the run is single-threaded, so children nest strictly
inside their parent.

``clip_halfplane`` and ``orientation`` are not wrapped: they are leaf
arithmetic called tens of times per ``clip_by_polygon`` / per
``normalize_polygon``, so a span each would multiply the span count and the
tracing overhead while their cost already lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import types
from array import array
from time import perf_counter_ns

PACKAGE = "hilbert_geometry"
TRACED_MODULES = ("geometry", "metrics", "balls", "meb", "cli", "svg")
UNWRAPPED = frozenset({"geometry.clip_halfplane", "geometry.orientation"})
SOLVERS = ("meb.lp_type_solve", "meb.min_ball_bisection")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[dict, object, object]] = []
        self._wrappers: dict[int, object] | None = None
        # Per-solve observations read from MebResult.stats and the instance.
        self.lp_points = 0
        self.lp_violation_tests = 0
        self.bisection_iterations = 0
        self.max_cache_entries = 0

    # -- installation -------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        prefix = PACKAGE + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def _build_wrappers(self) -> dict[int, object]:
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, fn in vars(mod).items():
                label = f"{short}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                    and label not in UNWRAPPED
                ):
                    wrappers[id(fn)] = self._wrap(fn, label)
        return wrappers

    def install(self) -> None:
        """Patch every binding; may be called again after ``uninstall``."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        wrappers = self._wrappers
        for mod in self._modules():
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._patch(value, key, wrappers[id(entry)])

    def _patch(self, table: dict, key: object, wrapper: object) -> None:
        self._patched.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def _wrap(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        observe = self._observe_solve if label in SOLVERS else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args[0], result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _observe_solve(self, instance, result) -> None:
        self.bisection_iterations += result.stats.bisection_iterations
        if result.basis is not None:
            self.lp_points += len(instance.points)
            self.lp_violation_tests += result.stats.violation_tests
        self.max_cache_entries = max(self.max_cache_entries, len(instance._cache))

    # -- reduction ----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self seconds)} over every recorded span."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_ns = list(dur)
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                self_ns[p] -= dur[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        names = self.span_name
        for i in range(n):
            calls[names[i]] += 1
            total[names[i]] += self_ns[i]
        return {
            label: (calls[k], total[k] / 1e9) for k, label in enumerate(self.names)
        }

    def write_spans(self, path: str) -> None:
        """Header lines ``# layer <id> <name>``, then one line per span:
        id, parent id, layer id, start and end in ns after the first span."""
        base = self.span_start[0] if self.span_start else 0
        starts, ends = self.span_start, self.span_end
        parents, layers = self.span_parent, self.span_name
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"# layer {k} {name}\n" for k, name in enumerate(self.names))
            fh.write("span\tparent\tlayer\tstart_ns\tend_ns\n")
            step = 65536
            for lo in range(0, len(starts), step):
                fh.write(
                    "".join(
                        f"{i}\t{parents[i]}\t{layers[i]}\t{starts[i] - base}\t{ends[i] - base}\n"
                        for i in range(lo, min(lo + step, len(starts)))
                    )
                )
