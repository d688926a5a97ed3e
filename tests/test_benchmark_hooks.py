"""The benchmark's tracer hooks resolve on the package.

perfbench/tracer.py wraps hopflab functions by (module, attribute) name and
names eval_many spans by descriptor variant. A name that no longer resolves
breaks the traced benchmark run with an AttributeError, so this test reads
the tracer (without importing it as a module, so nothing is written beside
it) and checks every hook against the package.
"""

import types
from pathlib import Path

import hopflab
from hopflab import maps

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
