"""In-memory span tracer installed around hopflab's public functions.

Nothing under src/ knows about it. Wrappers go where callers look the
names up:

* a name bound by ``from .geometry import sample_shell_radii`` is replaced
  in every hopflab module that holds it under that name, so
  ``hopflab.energy.sample_shell_radii`` is traced as well as the original;
* ``SphereMap.eval_many`` is replaced at class level and each span is named
  by the map's descriptor variant, so composite maps (patched, compose_hopf)
  nest spans of their children;
* ``_kernels`` functions are read as module attributes on every call and
  are replaced in place.

A span is (name, parent index, start, end, counts). Self time is a span's
duration minus the durations of its direct children; the calls are
synchronous, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

EVAL_VARIANTS = ("hopf", "compose_hopf", "multi_bubble", "bump_deg1",
                 "hopf_bump", "patched")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _mc_counts(args, kwargs, est):
    floor = 1e-12 * abs(est.value)
    useful = sum(s["n"] for s in est.strata_profile
                 if abs(s["contribution"]) >= floor)
    return {"samples": est.n_samples, "strata": len(est.strata_profile),
            "useful_samples": useful,
            "tail_to_se": est.tail_bound / est.std_error if est.std_error > 0 else 0.0}


def _fiber_counts(args, kwargs, curves):
    return {"seeds": len(_arg(args, kwargs, 2, "seeds")),
            "components": len(curves),
            "fiber_points": sum(c.points.shape[0] for c in curves)}


def _points(index, name):
    return lambda args, kwargs, out: {"points": np.shape(_arg(args, kwargs, index, name))[0]}


def targets(hopflab):
    """(module, attribute, span name, counter) for every traced function."""
    energy = hopflab.energy

    def quad_pairs(args, kwargs, out):
        resolution = _arg(args, kwargs, 2, "resolution")
        angular = kwargs.get("angular", args[3] if len(args) > 3 else None)
        n_ang = int(angular if angular is not None
                    else max(48, round(resolution ** 0.5)))
        return {"pairs": resolution * n_ang * energy.QUAD_MIN_BAND_EXP * 4}

    def linking_pairs(args, kwargs, out):
        return {"pairs": len(args[0]) * len(args[2])}

    def report_bytes(args, kwargs, paths):
        return {"bytes": sum(os.path.getsize(p) for p in paths)}

    return [
        ("geometry", "sample_shell_radii", "geometry.sample_shell_radii",
         lambda args, kwargs, out: {"radii": _arg(args, kwargs, 3, "n")}),
        ("geometry", "tangent_directions", "geometry.tangent_directions", None),
        ("geometry", "geodesic_step", "geometry.geodesic_step", None),
        ("energy", "energy_mc", "energy.energy_mc", _mc_counts),
        ("energy", "energy_quadrature", "energy.energy_quadrature", quad_pairs),
        ("topology", "hopf_invariant", "topology.hopf_invariant", None),
        ("topology", "tangential_jacobian", "topology.tangential_jacobian",
         _points(1, "pts")),
        ("topology", "trace_fiber", "topology.trace_fiber", _fiber_counts),
        ("topology", "gauss_linking", "topology.gauss_linking", None),
        ("topology", "mapping_degree", "topology.mapping_degree", None),
        ("_kernels", "gauss_linking_sum", "kernels.gauss_linking_sum",
         linking_pairs),
        ("_kernels", "oriented_frames", "kernels.oriented_frames",
         _points(0, "points")),
        ("_kernels", "min_pairwise_distance", "kernels.min_pairwise_distance",
         None),
        ("experiments", "run_scaling", "experiments.run_scaling", None),
        ("experiments", "emit_report", "experiments.emit_report", report_bytes),
    ]


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, label, fn, counter=None):
        """fn wrapped in a span; label is a name or a function of the args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name = label(args) if callable(label) else label
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, parent, t0, clock(), {"failed": 1})
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            counts = counter(args, kwargs, out) if counter is not None else None
            spans[idx] = (name, parent, t0, t1, counts)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, hopflab):
        """Install every wrapper on the hopflab package; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hopflab" or name.startswith("hopflab.")]
        undo = []
        try:
            for mod_name, attr, label, counter in targets(hopflab):
                orig = getattr(getattr(hopflab, mod_name), attr)
                wrapper = self.wrap(label, orig, counter)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
            cls = hopflab.maps.SphereMap
            orig_eval = cls.eval_many
            undo.append((cls, "eval_many", orig_eval))
            cls.eval_many = self.wrap(
                lambda args: "maps.eval_many." + args[0].descriptor["variant"],
                orig_eval, _points(1, "points"))
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, _, t0, t1, _), c in zip(self.spans, child)]

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "counts"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def wrapper_cost(calls=50_000, repeats=5):
    """Seconds one traced call adds to a bare call; median over repeats.

    The wrapped function returns at once and the wrapper counts the points
    of a one-point array, as on the single-point eval_many and
    tangential_jacobian calls that make most of certify's spans.
    """
    def bare(points):
        return points

    arg = np.zeros((1, 4))
    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("probe", bare, _points(0, "points"))
        times = []
        for fn in (bare, traced):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(arg)
            times.append(time.perf_counter() - t0)
        costs.append((times[1] - times[0]) / calls)
    return sorted(costs)[repeats // 2]


def layer_metrics(trace):
    """Per-layer metrics named as in BENCHMARK.json; absent layers read 0.

    Counts from a call's result (seeds, components, fiber points) cover the
    calls that returned; a call that raised counts only as failed.
    """
    spans = trace.spans
    agg = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, counts), self_s in zip(spans, trace.self_times()):
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += self_s
        for key, value in (counts or {}).items():
            if key == "tail_to_se":
                a[key] = max(a[key], value)
            else:
                a[key] += value

    # Jacobian calls made while tracing fibers, failed attempts included
    under_fiber = [False] * len(spans)
    tj_in_fibers = 0
    for i, (name, parent, _, _, _) in enumerate(spans):
        under_fiber[i] = parent >= 0 and (
            under_fiber[parent] or spans[parent][0] == "topology.trace_fiber")
        if under_fiber[i] and name == "topology.tangential_jacobian":
            tj_in_fibers += 1

    def get(name, key):
        return float(agg[name][key]) if name in agg else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for name in ("geometry.sample_shell_radii", "geometry.tangent_directions",
                 "geometry.geodesic_step", "energy.energy_mc",
                 "energy.energy_quadrature", "topology.tangential_jacobian",
                 "topology.trace_fiber", "topology.gauss_linking",
                 "topology.mapping_degree", "kernels.gauss_linking_sum",
                 "kernels.oriented_frames", "kernels.min_pairwise_distance",
                 "experiments.run_scaling", "experiments.emit_report"):
        out[name + ".self_s"] = get(name, "self_s")
    out["geometry.sample_shell_radii.radii"] = get("geometry.sample_shell_radii", "radii")
    for v in EVAL_VARIANTS:
        name = "maps.eval_many." + v
        out[name + ".self_s"] = get(name, "self_s")
        out[name + ".calls"] = get(name, "calls")
        out[name + ".points"] = get(name, "points")
    mc = "energy.energy_mc"
    out["energy.energy_mc.samples"] = get(mc, "samples")
    out["energy.strata"] = get(mc, "strata")
    out["energy.useful_sample_frac"] = ratio(get(mc, "useful_samples"), get(mc, "samples"))
    out["energy.tail_to_se"] = get(mc, "tail_to_se")
    out["energy.quad_pairs"] = get("energy.energy_quadrature", "pairs")
    tj, tf = "topology.tangential_jacobian", "topology.trace_fiber"
    out[tj + ".calls"] = get(tj, "calls")
    out[tj + ".points"] = get(tj, "points")
    out[tf + ".calls"] = get(tf, "calls")
    out[tf + ".failed"] = get(tf, "failed")
    fiber_points = get(tf, "fiber_points")
    out["topology.fiber_points"] = fiber_points
    out["topology.seed_yield"] = ratio(get(tf, "components"), get(tf, "seeds"))
    out["topology.tj_per_fiber_point"] = ratio(tj_in_fibers, fiber_points)
    out["topology.linking_pairs"] = get("topology.gauss_linking", "calls")
    out["kernels.gauss_linking_sum.pairs"] = get("kernels.gauss_linking_sum", "pairs")
    out["kernels.oriented_frames.calls"] = get("kernels.oriented_frames", "calls")
    out["kernels.oriented_frames.points"] = get("kernels.oriented_frames", "points")
    out["experiments.emit_report.bytes"] = get("experiments.emit_report", "bytes")
    return out
