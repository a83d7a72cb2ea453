"""Span tracer installed around hypercell's layer boundaries from outside.

`Tracer.install()` replaces the module attributes and class methods that
the experiment path calls at run time with timing wrappers, and
`uninstall()` puts the originals back, so traced and untraced rounds run
in one process.  Each wrapper pushes a child-time accumulator, times the
call, and books its self time (duration minus the time its traced
children took) under the span name, so the self times of all spans add
up to the traced wall time without double counting.

Hot boundaries such as `support_batch` are entered hundreds of thousands of
times in a `mu` pass, so spans are folded into per-name totals as they close
instead of being kept one by one; only the inclusive durations of
`cells_along_intensity` (one per replication) are kept individually, for
the replication-time percentiles.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self._stack = [0]
        self._depth = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.rep_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        """Timed stand-in for `fn`; `count(args, result)` runs at the outermost span of `name`."""
        stack, depth = self._stack, self._depth
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self_ns[name] += dt - child
                calls[name] += 1
                depth[name] -= 1
            if count is not None and depth[name] == 0:
                count(args, out, dt)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, count=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self, extra_runs=()):
        """Wrap every layer boundary; `extra_runs` are (module, attr) experiment entry points."""
        from hypercell import _kernels, cell, direction, experiment, geom, metrics, rng

        c = self.counts

        def on_build(args, cells, dt):
            self.rep_ns.append(dt)
            c["cell.reps"] += 1
            c["cell.window_rounds"] += cells[0].stats.rounds
            c["cell.cells"] += len(cells)
            c["cell.active"] += sum(len(z.offsets) for z in cells)

        def on_sample(args, out, dt):
            c["process.hyperplanes"] += len(out[1])

        def on_intersect(args, out, dt):
            c["cell.intersect_constraints"] += len(args[1])

        def on_cut(args, out, dt):
            c["cell.cut_tested"] += len(args[1])
            c["cell.cut_kept"] += int(out.sum())

        def on_directions(args, out, dt):
            c["direction.drawn"] += len(out)

        def on_distance(args, out, dt):
            c["geom.distance_points"] += len(args[1])

        def on_batch(args, out, dt):
            c["metrics.batch_points"] += len(out)

        def on_mu(args, out, dt):
            c["metrics.mu_evaluations"] += out.evaluations

        def on_persist(args, out, dt):
            c["experiment.persist_bytes"] += os.path.getsize(args[1])

        for run in ("run_rate", "run_tail", "run_counterexample"):
            self.patch(experiment, run, "experiment.run")
        for owner, attr in extra_runs:
            self.patch(owner, attr, "experiment.run")
        self.patch(experiment, "fit_loglog", "experiment.fit")
        self.patch(experiment, "persist", "experiment.persist", on_persist)
        self.patch(experiment, "cells_along_intensity", "cell.build", on_build)
        self.patch(cell, "_sample_annulus_arrays", "process.sample", on_sample)
        self.patch(cell, "halfspace_intersection", "cell.intersect", on_intersect)
        self.patch(_kernels, "convex_hull_2d", "cell.hull")
        self.patch(_kernels, "cut_mask", "cell.cut_filter", on_cut)
        for cls in (direction.Isotropic, direction.Atomic, direction.DensityOnSphere,
                    direction.CapStarved, direction.Mixture):
            self.patch(cls, "sample_batch", "direction.sample", on_directions)
        self.patch(rng, "stream", "rng.stream")
        self.patch(metrics, "stream", "rng.stream")
        for cls in (geom.Ball, geom.Polytope, geom.BallSum):
            self.patch(cls, "support_batch", "geom.support")
            self.patch(cls, "distance_batch", "geom.distance", on_distance)
        self.patch(metrics, "hausdorff_cell", "metrics.hausdorff")
        self.patch(metrics, "mu_estimate", "metrics.mu_search", on_mu)
        self.patch(metrics.ExcessEvaluator, "batch", "metrics.excess_batch", on_batch)
        self.patch(metrics.ExcessEvaluator, "precise", "metrics.excess_precise")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer self times and counts per pass over all blocks, and ratios."""
        c, calls = self.counts, self.calls

        def secs(name):
            return self.self_ns[name] / 1e9 / passes

        def ratio(num, den):
            return num / den if den else 0.0

        reps = c["cell.reps"]
        rep_ms = sorted(ns / 1e6 for ns in self.rep_ns)

        def pct(q):
            return rep_ms[min(len(rep_ms) - 1, int(q * len(rep_ms)))] if rep_ms else 0.0

        return {
            "process.sample_s": (secs("process.sample"), "s"),
            "process.hyperplanes_per_rep": (ratio(c["process.hyperplanes"], reps), "count/rep"),
            "rng.streams_per_rep": (ratio(calls["rng.stream"], reps), "count/rep"),
            "rng.stream_s": (secs("rng.stream"), "s"),
            "direction.sample_s": (secs("direction.sample"), "s"),
            "direction.directions_drawn": (c["direction.drawn"] / passes, "count"),
            "cell.intersect_s": (secs("cell.intersect"), "s"),
            "cell.intersect_calls_per_rep": (ratio(calls["cell.intersect"], reps), "count/rep"),
            "cell.intersect_constraints_mean": (
                ratio(c["cell.intersect_constraints"], calls["cell.intersect"]), "count"),
            "cell.hull_s": (secs("cell.hull"), "s"),
            "cell.cut_filter_s": (secs("cell.cut_filter"), "s"),
            "cell.cut_filter_tested": (c["cell.cut_tested"] / passes, "count"),
            "cell.cut_filter_pass_ratio": (ratio(c["cell.cut_kept"], c["cell.cut_tested"]), "ratio"),
            "cell.build_s": (secs("cell.build"), "s"),
            "cell.window_rounds_per_rep": (ratio(c["cell.window_rounds"], reps), "count/rep"),
            "cell.active_constraints_mean": (ratio(c["cell.active"], c["cell.cells"]), "count"),
            "cell.rep_p50_ms": (pct(0.5), "ms"),
            "cell.rep_p90_ms": (pct(0.9), "ms"),
            "geom.distance_s": (secs("geom.distance"), "s"),
            "geom.distance_points": (c["geom.distance_points"] / passes, "count"),
            "geom.support_calls": (calls["geom.support"] / passes, "count"),
            "geom.support_s": (secs("geom.support"), "s"),
            "metrics.excess_precise_s": (secs("metrics.excess_precise"), "s"),
            "metrics.excess_precise_calls": (calls["metrics.excess_precise"] / passes, "count"),
            "metrics.excess_batch_s": (secs("metrics.excess_batch"), "s"),
            "metrics.excess_batch_points": (c["metrics.batch_points"] / passes, "count"),
            "metrics.mu_evaluations": (c["metrics.mu_evaluations"] / passes, "count"),
            "metrics.mu_search_s": (secs("metrics.mu_search"), "s"),
            "metrics.hausdorff_s": (secs("metrics.hausdorff"), "s"),
            "experiment.aggregate_s": (secs("experiment.run") + secs("experiment.fit"), "s"),
            "experiment.persist_s": (secs("experiment.persist"), "s"),
            "experiment.persist_bytes": (c["experiment.persist_bytes"] / passes, "bytes"),
        }
