"""Write BENCH_<pr>.json: perfbench's workloads over several seeds, with an
optional parent checkout run in alternation, plus one traced run each.

Run from the root of a checkout:

    python3 benchmarks/bench.py --pr N --quick --parent ../parent

--parent names another checkout of the package, for example one made with
`git worktree add ../parent HEAD~1`. For each workload and seed the two
checkouts run back to back, the parent first on even seeds and second on
odd ones, so that slow drifts of the host's speed fall on both sides. The
full mode runs 5 seeds at --seconds 40, --quick 2 seeds at --seconds 10.

The file holds the machine (nproc, Python, numpy, BLAS threads); per
workload the median and interquartile range of the four end-to-end metrics
over the seeds, each seed's values and whether every gate passed; the same
over the seeds for each unit's scaled time (the details line's `unit_s`:
`degree_s:bump_s3`, `quad_s:hopf`, ...); and the per-layer metrics and raw
unit times of one `--trace 1` run at the first seed. With a parent, each
workload also carries the parent's figures, and each end-to-end metric and
unit time the change's median relative to the parent's and how many seeds
read lower on the change. Nothing here changes what perfbench/run.py
measures.

`scaling` also carries the Monte Carlo efficiency 1/(SE^2 * seconds) of
the headline rows d = 1, 9, 25 at s = 0.5 and 0.8 (2.5e5 samples; keys
`s0.5_d1`, ...), from EFFICIENCY_REPEATS `run_scaling` calls per row in a
fresh interpreter on each checkout. Both s matter: the s = 0.8 rows have
the smaller relative SE, so they weigh most in the harmonic mean behind
the `scaling` figure of merit. Each call is timed under perfbench's host-speed sampler
(perfbench/hostspeed.py of this checkout, on both sides) and its scaled
seconds are kept; a row's seconds are the median of its calls. A row's SE
is fixed by its seed, so between checkouts with the same estimates the
efficiency moves with the seconds alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scaling", "certify", "oracle")
END_TO_END = ("setup_s", "wall_s", "stage_s", "peak_rss_mb")
EFFICIENCY_DEGREES = (1, 9, 25)
EFFICIENCY_S = (0.5, 0.8)
EFFICIENCY_SAMPLES = 250_000
EFFICIENCY_REPEATS = 3
# one row per degree, so that each row's seconds are its own; a call's
# seconds are scaled by the probes taken during it and near it
EFFICIENCY_SCRIPT = """
import json, statistics, sys
sys.path.insert(0, sys.argv[1])
import hostspeed
from hopflab import ExperimentConfig, run_scaling
seed, samples, repeats = map(int, sys.argv[2:5])
spans, se = {}, {}
with hostspeed.Sampler() as sampler:
    for row in sys.argv[5:]:
        s, d = row.split(":")
        cfg = ExperimentConfig(s=float(s), degrees=(int(d),), samples_per_estimate=samples,
                               seed=seed, output_path="")
        spans[row] = []
        for _ in range(repeats):
            span = sampler.start()
            se[row] = run_scaling(cfg).rows[0][1].std_error
            spans[row].append(sampler.stop(span))
rows = {row: {"se": se[row], "seconds": statistics.median(map(sampler.scaled, t))}
        for row, t in spans.items()}
print(json.dumps(rows))
"""


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int):
    """One perfbench run: (details, result) parsed from its last two lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench {workload} seed {seed} in {checkout} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def efficiency(checkout: Path, seed: int):
    """{"s:d": {"se", "seconds"}} of the headline rows, from checkout's src/;
    seconds are the median scaled time of EFFICIENCY_REPEATS calls."""
    proc = subprocess.run(
        [sys.executable, "-c", EFFICIENCY_SCRIPT, str(ROOT / "perfbench"), str(seed),
         str(EFFICIENCY_SAMPLES), str(EFFICIENCY_REPEATS),
         *(f"{s}:{d}" for s in EFFICIENCY_S for d in EFFICIENCY_DEGREES)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    if proc.returncode != 0:
        raise SystemExit(f"run_scaling seed {seed} in {checkout} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def spread(values):
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"median": float(q50), "iqr": float(q75 - q25),
            "values": [float(v) for v in values]}


def summarize(runs):
    """Median and IQR of each end-to-end metric and each unit's scaled time
    over a side's (details, result) runs."""
    results = [r for _, r in runs]
    return {
        "metrics": {m: spread([r["metrics"][m]["value"] for r in results])
                    for m in END_TO_END},
        "unit_s": {u: spread([d["unit_s"][u] for d, _ in runs])
                   for u in runs[0][0]["unit_s"]},
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }


def versus(new, old):
    """The change's median relative to the parent's, and how many seeds read
    lower on the change."""
    new, old = np.array(new["values"]), np.array(old["values"])
    return {"relative_median": float(np.median(new) / np.median(old) - 1.0),
            "seeds_lower": int(np.sum(new < old))}


def bench_workload(workload, seeds, seconds, parent):
    sides = {"change": ROOT} if parent is None else {"change": ROOT, "parent": parent}
    results = {side: [] for side in sides}
    rows = {side: [] for side in sides}
    for seed in seeds:
        order = list(sides)
        if parent is not None and seed % 2 == 0:
            order.reverse()  # the parent goes first on even seeds
        for side in order:
            results[side].append(run(sides[side], workload, seed, seconds, 0))
            if workload == "scaling":
                rows[side].append(efficiency(sides[side], seed))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} stage_s {results[side][-1][1]['metrics']['stage_s']['value']:.3f}"
            for side in sides), file=sys.stderr)
    out = {}
    for side, checkout in sides.items():
        details, traced = run(checkout, workload, seeds[0], seconds, 1)
        out[side] = {**summarize(results[side]),
                     "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                     "traced_unit_s": details["unit_raw_s"],
                     "environment": details["environment"]}
        if rows[side]:
            out[side]["efficiency"] = {
                f"s{s}_d{d}": {**spread([1.0 / (r[f"{s}:{d}"]["se"] ** 2
                                                * r[f"{s}:{d}"]["seconds"])
                                         for r in rows[side]]),
                               "se": [r[f"{s}:{d}"]["se"] for r in rows[side]],
                               "seconds": [r[f"{s}:{d}"]["seconds"] for r in rows[side]]}
                for s in EFFICIENCY_S for d in EFFICIENCY_DEGREES}
    if parent is not None:
        change, base = out["change"], out["parent"]
        for m in END_TO_END:
            change["metrics"][m]["vs_parent"] = versus(change["metrics"][m],
                                                       base["metrics"][m])
        for u in change["unit_s"].keys() & base["unit_s"].keys():
            change["unit_s"][u]["vs_parent"] = versus(change["unit_s"][u],
                                                      base["unit_s"][u])
        for name, eff in out["change"].get("efficiency", {}).items():
            new, old = (np.array(out[s]["efficiency"][name]["values"])
                        for s in ("change", "parent"))
            eff["vs_parent"] = {
                "relative_median": float(np.median(new) / np.median(old) - 1.0),
                "seeds_higher": int(np.sum(new > old)),
            }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--quick", action="store_true", help="2 seeds at --seconds 10")
    ap.add_argument("--parent", type=Path, help="a parent checkout to alternate with")
    args = ap.parse_args(argv)
    seeds, seconds = (range(2), 10.0) if args.quick else (range(5), 40.0)
    parent = None if args.parent is None else args.parent.resolve()
    if parent is not None and not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"no perfbench/run.py under {parent}")
    workloads = {w: bench_workload(w, list(seeds), seconds, parent)
                 for w in WORKLOADS}
    env = next(iter(workloads.values()))["change"]["environment"]
    doc = {
        "machine": {k: env[k] for k in ("nproc", "affinity_cpus", "python",
                                        "numpy", "blas_threads")},
        "mode": "quick" if args.quick else "full",
        "seeds": list(seeds),
        "seconds": seconds,
        "parent": parent is not None,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
