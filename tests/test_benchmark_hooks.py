"""The benchmark's names and tracer hooks resolve on the package.

The benchmark reaches the package through names: the workloads call
H.<name> chains on it, perfbench/run.py reads hopflab.<name> chains, and
benchmarks/bench.py imports names from it. perfbench/tracer.py wraps
hopflab functions by (module, attribute) name and names eval_many spans by
descriptor variant. A name that no longer resolves breaks a benchmark run
with an AttributeError, so these tests read the benchmark's sources as text
(the tracer is executed without importing it as a module, so nothing is
written beside it) and check every name against the package.
"""

import re
import types
from pathlib import Path

import hopflab
from hopflab import experiments, maps

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCH_SOURCES = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "run.py",
                 ROOT / "benchmarks" / "bench.py"]
CHAIN = re.compile(r"\b(?:H|hopflab)((?:\.[A-Za-z_]\w*)+)")
IMPORT = re.compile(r"^\s*from hopflab import ([\w, ]+)$", re.M)
BOUNDS = re.compile(r"\b(\w+) = H\.experiments\.VERIFY_DEFAULTS\b")


def _tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _variants(desc):
    yield desc["variant"]
    for kid in desc["children"]:
        yield from _variants(kid)


def test_every_traced_function_resolves():
    tracer = _tracer()
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.targets(hopflab)
               if not callable(getattr(getattr(hopflab, mod, None), attr, None))]
    assert missing == []
    assert callable(hopflab.maps.SphereMap.eval_many)


def test_every_traced_eval_variant_is_built():
    built = {maps.bump_deg1([0.0, 0.0, 1.0], 0.3, [1.0, 0.0, 0.0]).descriptor["variant"]}
    for u in (maps.hopf_map(), maps.prescribed_hopf_map(5)):
        built.update(_variants(u.descriptor))
    assert set(_tracer().EVAL_VARIANTS) <= built


def test_every_benchmark_name_resolves():
    missing, seen = [], set()
    for path in BENCH_SOURCES:
        text = path.read_text()
        chains = [m.group(1)[1:] for m in CHAIN.finditer(text)]
        chains += [name.strip() for m in IMPORT.finditer(text)
                   for name in m.group(1).split(",")]
        for chain in chains:
            seen.add(chain)
            obj = hopflab
            for name in chain.split("."):
                obj = getattr(obj, name, missing)
            if obj is missing:
                missing.append(f"{path.name}: {chain}")
        # the verify bounds the workloads gate on, read through a local name
        for var in BOUNDS.findall(text):
            for key in re.findall(rf"\b{var}\[\"(\w+)\"\]", text):
                seen.add(f"VERIFY_DEFAULTS[{key!r}]")
                if key not in experiments.VERIFY_DEFAULTS:
                    missing.append(f"{path.name}: VERIFY_DEFAULTS[{key!r}]")
    assert missing == []
    # the scan sees the names the workloads are known to use
    assert {"run_scaling", "experiments.VERIFY_DEFAULTS", "_kernels.BACKEND",
            "VERIFY_DEFAULTS['linking_residual_bound']",
            "VERIFY_DEFAULTS['degree_residual_bound']"} <= seen
