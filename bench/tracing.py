"""Spans and counters around dropmaze's public functions, from outside the
package.

`Tracer.install` replaces every module binding of each traced function
(for example both `dropmaze.oracle.lee_label` and
`dropmaze.scenario.lee_label`) with a wrapper, and `uninstall` puts the
originals back. Functions that run once or a few times per case get a
span; hot functions get a counter only. Spans stay in memory until the
pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# Span name -> (defining module, layer metric fed by the span's self time).
SPANS = {
    "build_maze": ("dropmaze.scenario", "maze.build_s"),
    "validate_and_components": ("dropmaze.maze", "maze.validate_s"),
    "compute_fields": ("dropmaze.solver", "solver.derive_s"),
    "solve_potential": ("dropmaze.solver", "solver.solve_s"),
    "simulate": ("dropmaze.dynamics", "dynamics.simulate_s"),
    "segment_corridors": ("dropmaze.oracle", "oracle.segment_s"),
    "lee_label": ("dropmaze.oracle", "oracle.lee_s"),
    "extract_path": ("dropmaze.oracle", "oracle.path_s"),
    "compare_trajectory": ("dropmaze.oracle", "oracle.compare_s"),
    "trace_route_streamline": ("dropmaze.oracle", "oracle.fan_s"),
    "corner_force_stats": ("dropmaze.scenario", "scenario.corner_s"),
    "export_bundle": ("dropmaze.scenario", "scenario.export_s"),
    "write_field_csv": ("dropmaze.render", "render.csv_s"),
    "render_field": ("dropmaze.render", "render.image_s"),
    "run_scenario": ("dropmaze.scenario", "scenario.self_s"),
}
COUNTERS = {
    "disk_integrate": "dropmaze.dynamics",
    "streamline": "dropmaze.oracle",
    "thin_mask": "dropmaze.oracle",
}

# What a wrapper keeps from a call (its bound arguments and result),
# taken after the span ends.
_PROBES = {
    "solve_potential": lambda call, result: (call["sigma"], call["dirichlet"], result[1].iterations),
    "simulate": lambda call, result: len(result) - 1,
    "streamline": lambda call, result: (len(result.points) - 1, result.termination.value),
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, case]
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (function, enclosing span name) -> calls
        self.probes: dict[str, list] = {name: [] for name in _PROBES}
        self.case: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _keep(self, name, fn, args, kwargs, result) -> None:
        probe = _PROBES.get(name)
        if probe is not None:
            call = inspect.signature(fn).bind(*args, **kwargs).arguments
            self.probes[name].append(probe(call, result))

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, time.perf_counter(), None, parent, self.case]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self._keep(name, fn, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            where = self.spans[self._stack[-1]][0] if self._stack else None
            self.counts[(name, where)] += 1
            result = fn(*args, **kwargs)
            self._keep(name, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = []
        for name, (module, _) in SPANS.items():
            original = getattr(importlib.import_module(module), name)
            wrappers.append((original, self._span(name, original)))
        for name, module in COUNTERS.items():
            original = getattr(importlib.import_module(module), name)
            wrappers.append((original, self._counter(name, original)))
        importlib.import_module("dropmaze.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dropmaze" or n.startswith("dropmaze.")]
        for original, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def coverage(self, case_windows: dict[str, tuple[float, float]]) -> float:
        """Lowest share, over cases, of a case's wall time inside top-level spans."""
        covered = Counter()
        for _, start, end, parent, case in self.spans:
            if parent is None:
                covered[case] += end - start
        return min(covered[case] / (end - start) for case, (start, end) in case_windows.items())


def _unknowns(sigma, dirichlet) -> tuple[int, int]:
    """Unknown and total cell counts, by solve_potential's own rule."""
    import numpy as np

    from dropmaze import solver

    sigma = np.asarray(sigma, dtype=np.float64)
    pinned = np.zeros(sigma.shape, dtype=bool)
    for ix, iy in dirichlet:
        pinned[iy, ix] = True
    gx, gy = solver.face_conductances(sigma)
    linked = solver._neighbor_sum(gx, gy, np.ones_like(sigma)) > 0
    return int(((sigma > 0) & ~pinned & linked).sum()), sigma.size


def layer_metrics(tracer: Tracer, case_windows: dict[str, tuple[float, float]]) -> dict:
    """Per-layer metrics of one traced pass, summed over its cases, as
    {name: (value, unit)}. Every `_s` metric is self time."""
    seconds = Counter()
    calls = Counter()
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        seconds[SPANS[name][1]] += own
        calls[name] += 1
    out = {metric: (seconds[metric], "s") for _, metric in SPANS.values()}

    iterations = unknowns = cells = updates = 0
    for sigma, dirichlet, its in tracer.probes["solve_potential"]:
        u, n = _unknowns(sigma, dirichlet)
        iterations += its
        unknowns += u
        cells += n
        updates += its * n
    out["solver.iterations"] = (iterations, "count")
    out["solver.unknowns"] = (unknowns, "count")
    out["solver.unknown_frac"] = (unknowns / cells if cells else 0.0, "fraction")
    out["solver.cell_updates"] = (updates, "count")

    steps = sum(tracer.probes["simulate"])
    force_evals = tracer.counts[("disk_integrate", "simulate")]
    out["dynamics.steps"] = (steps, "count")
    out["dynamics.us_per_step"] = (
        1e6 * seconds["dynamics.simulate_s"] / steps if steps else 0.0, "us")
    out["dynamics.force_evals"] = (force_evals, "count")
    out["dynamics.force_evals_per_step"] = (force_evals / steps if steps else 0.0, "count/step")

    streams = tracer.probes["streamline"]
    out["oracle.stream_steps"] = (sum(n for n, _ in streams), "count")
    out["oracle.fan_seeds"] = (len(streams), "count")
    out["oracle.fan_reached_frac"] = (
        sum(t == "reached" for _, t in streams) / len(streams) if streams else 0.0, "fraction")
    out["oracle.fan_max_steps_seeds"] = (sum(t == "max_steps" for _, t in streams), "count")
    thin_calls = sum(n for (name, _), n in tracer.counts.items() if name == "thin_mask")
    analysis = calls["lee_label"] + calls["segment_corridors"] + thin_calls
    out["oracle.analysis_calls"] = (analysis / len(case_windows), "count/case")

    out["scenario.corner_probes"] = (
        tracer.counts[("disk_integrate", "corner_force_stats")], "count")
    out["trace.coverage"] = (tracer.coverage(case_windows), "fraction")
    return out
