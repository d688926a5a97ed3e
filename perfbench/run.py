"""hopflab benchmark: the scaling run, certification and the quadrature oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scaling --seed 0 --seconds 40 --trace 0

The package is imported from ./src of that checkout and nowhere else; without
it the script exits with status 2 and prints no result.

Workloads (see workloads.py):
  scaling  run_scaling at s = 0.5 and 0.8, degrees kmax:5, 2.5e5 samples/row
  certify  hopf_invariant(step=4e-3) on prescribed_hopf_map(1) and on a
           Hopf bump, mapping_degree on multi_bubble(9) and a bump on S^3
  oracle   energy_quadrature at resolution 1000 vs energy_mc at 2.5e5
           samples on hopf, 2 bubbles o hopf (S^3) and 2 bubbles (S^2)

A run repeats passes of identical work on identical inputs for --seconds
(at least two passes). Each public call a pass makes is timed as a unit and
scaled to a fixed host speed by the probe samples taken while it ran
(hostspeed.py): the host is shared, and its speed moves by up to a factor
of two for minutes at a time. A unit's time is its median over the passes;
the raw medians are in the details line beside the scaled ones.

End-to-end metrics (--trace 0), in seconds at the reference speed:
  setup_s      import hopflab and build the workload's maps; median over
               bursts of SETUP_REPEATS fresh imports, one burst before the
               first pass and one after each pass
  wall_s       one pass: the sum of its units, i.e. scaling_s, certify_s
               or oracle_s
  stage_s      the figure of merit of the stage the workload stresses:
               scaling_s_to_1pct, the seconds a typical scaling row needs
               for 1% relative SE (scaling); hopf_s, the hopf_invariant
               calls (certify); quad_s, the energy_quadrature calls (oracle)
  peak_rss_mb  peak resident memory of this process

The line before the result holds the details: the named stage times
(scaling_s, s_per_row, scaling_s_to_1pct, certify_s, hopf_s, degree_s,
oracle_s, quad_s, mc_s), scaled and raw unit times, failed_frac, every
gate, and the environment. Every run also gates a small energy_mc run
twice on one seed (workloads.determinism_probe), outside the timings.

--trace 1 runs one untraced and one traced pass on the same inputs, reports
the per-layer metrics of the traced pass (tracer.layer_metrics) with the
tracing overhead, and writes the spans to .perfbench/. It takes no probe
samples, so its times are raw.

Everything a run writes stays under .perfbench/: the spans, the artifact
digests of earlier passes and runs (workloads.DigestStore) and a per-run
temporary directory for the scaling artifacts, removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench"
SETUP_REPEATS = 5  # per burst


def _fresh_import():
    for name in [m for m in sys.modules if m == "hopflab" or m.startswith("hopflab.")]:
        del sys.modules[name]
    hopflab = importlib.import_module("hopflab")
    if Path(hopflab.__file__).resolve().parent != SRC / "hopflab":
        raise SystemExit(f"hopflab imported from {hopflab.__file__}, not {SRC}")
    return hopflab


def setup(workload, sampler, spans):
    """Import hopflab afresh and build the maps, SETUP_REPEATS times.

    Appends each set-up's interval to `spans`; returns the last package
    and its maps.
    """
    for _ in range(SETUP_REPEATS):
        span = sampler.start()
        hopflab = _fresh_import()
        maps = workload.build(hopflab)
        spans.append(sampler.stop(span))
    return hopflab, maps


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(hopflab):
    with open("/proc/self/status") as fh:
        threads = int(next(l for l in fh if l.startswith("Threads:")).split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": hopflab._kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


def _median(values):
    return float(statistics.median(values))


def unit_times(per_pass):
    """Each unit's median time over the passes; per_pass holds unit -> s dicts."""
    return {u: _median([p[u] for p in per_pass]) for u in per_pass[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hopflab" / "__init__.py").is_file():
        print(f"error: no hopflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)

    workload = workloads.WORKLOADS[args.workload]()
    sampler = hostspeed.Sampler()
    setups, passes, pass_s, spans = [], [], [], None

    def one_pass():
        t0 = time.perf_counter()
        p = workloads.Pass(sampler)
        workload.run_pass(hopflab, maps, args.seed, workdir, store, p)
        pass_s.append(time.perf_counter() - t0)
        return p

    try:
        # probes would land inside the traced spans, so a traced run keeps
        # raw times
        with contextlib.nullcontext() if args.trace else sampler:
            hopflab, maps = setup(workload, sampler, setups)
            store = workloads.DigestStore(os.path.join(OUT_DIR, "digests"),
                                          workloads.code_id(SRC / "hopflab"))
            t_start = time.perf_counter()
            if args.trace:
                passes.append(one_pass())
                trace = tracer.Tracer()
                with trace.installed(hopflab):
                    passes.append(one_pass())
            else:
                while True:
                    passes.append(one_pass())
                    # set-up bursts between passes sample the host over the
                    # whole run, not one window before the first pass
                    hopflab, maps = setup(workload, sampler, setups)
                    elapsed = time.perf_counter() - t_start
                    if len(passes) >= 2 and elapsed + _median(pass_s) > args.seconds:
                        break
            probe = workloads.determinism_probe(hopflab, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gates = [g for p in passes for g in p.gates] + [probe]
    failed = sum(1 for _, ok, _ in gates if not ok)
    scaled = [{u: sampler.scaled(span) for u, span in p.units.items()} for p in passes]
    unit_s = unit_times(scaled)
    stage_s, timings = workload.summary(unit_s, passes[0])
    if args.trace:
        metrics = tracer.layer_metrics(trace)
        untraced, traced = (sum(p.values()) for p in scaled)
        overhead = traced - untraced
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / untraced
        metrics["trace.spans"] = len(trace.spans)
        # one traced/untraced pair cannot resolve the overhead from run-to-run
        # noise, so the wrapper's measured per-call cost times the span count
        # is reported beside it
        metrics["trace.overhead_est_s"] = tracer.wrapper_cost() * len(trace.spans)
        spans = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        trace.dump(spans)
    else:
        metrics = {
            "setup_s": _median([sampler.scaled(span) for span in setups]),
            "wall_s": timings["wall_s"],
            "stage_s": stage_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes),
        "pass_s": pass_s,
        "timings": timings,
        "unit_s": unit_s,
        "unit_raw_s": unit_times([{u: span.seconds for u, span in p.units.items()}
                                  for p in passes]),
        "setup_s": [sampler.scaled(span) for span in setups],
        "setup_raw_s": [span.seconds for span in setups],
        "probes": len(sampler.samples),
        "probe_median_s": _median([sec for _, sec in sampler.samples] or [0.0]),
        "failed_frac": failed / len(gates),
        "gates": [{"name": n, "ok": ok, **d} for n, ok, d in gates],
        "environment": environment(hopflab),
        "spans_file": spans,
    }
    print(json.dumps(detail, default=float))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(gates),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
