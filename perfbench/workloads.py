"""The three benchmark workloads and their correctness gates.

Each workload builds its maps once per set-up (``build``) and then runs
passes (``run_pass``) on inputs derived from the benchmark seed. Every pass
of a run does the same work on the same inputs: it times each public call
it makes as a unit and records one gate per gated operation, in the Pass
it is handed. The gates reuse hopflab's own bounds and leave them as they
are: bookkept degrees, verify's residual bounds, and the 3-SE agreement
that the estimator_consistency check uses.

A unit is named ``<group>:<call>``; the group is one of the named stage
times (scaling_s, hopf_s, degree_s, quad_s, mc_s), and ``summary`` turns
the per-unit times into the workload's figures.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

S3_CENTER = (0.0, 0.0, 0.0, 1.0)
S3_BASEPOINT = (1.0, 0.0, 0.0, 0.0)
PROBE_SAMPLES = 100_000


@dataclass
class Pass:
    """What one pass measured; units are timed against the host-speed sampler."""

    sampler: hostspeed.Sampler
    units: dict = field(default_factory=dict)    # unit name -> hostspeed.Interval
    gates: list = field(default_factory=list)    # (name, ok, detail)
    stats: dict = field(default_factory=dict)    # outputs a summary needs

    def gate(self, name, ok, **detail):
        self.gates.append((name, bool(ok), detail))

    def timed(self, unit, fn, *args, **kwargs):
        """fn(*args, **kwargs), its time recorded under `unit` even if it raises."""
        span = self.sampler.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.units[unit] = self.sampler.stop(span)


def group_times(unit_s):
    """Sum of unit times per group, plus the whole pass as wall_s."""
    groups = {}
    for unit, seconds in unit_s.items():
        group = unit.split(":", 1)[0]
        groups[group] = groups.get(group, 0.0) + seconds
    groups["wall_s"] = sum(unit_s.values())
    return groups


def _finite_estimate(est):
    return (math.isfinite(est.value) and math.isfinite(est.std_error)
            and est.std_error > 0.0)


def _within_3se(est, quad):
    return _finite_estimate(est) and abs(est.value - quad) <= 3.0 * est.std_error


def determinism_probe(H, seed):
    """One small energy_mc twice with the same seed: to_json must match."""
    params = H.EnergyParams(0.5, 6.0, 3, critical=True)
    u, region = H.hopf_map(), H.whole_sphere(3)
    a, b = (H.energy_mc(u, params, region, PROBE_SAMPLES, seed) for _ in range(2))
    return ("probe.energy_mc_bit_identical", a.to_json() == b.to_json(), {})


class Scaling:
    """run_scaling at s = 0.5 and 0.8 over kmax:5, 2.5e5 samples per row.

    stage_s is the work-normalised variance: seconds per row over the mean
    precision (E/SE)^2 of the rows whose map is not patched, over 1e-4,
    i.e. the seconds such a row of mean precision needs for 1% relative
    SE. The patched rows (d = 2, 5, 7) are heavy-tailed: over ten seeds
    (SE/E)^2 of d = 2 at s = 0.5 ranged from 3.5e-3 to 70e-3, so any mean
    over them follows the seed (IQR over median 0.06 to 0.19 for the
    harmonic, median and geometric means over all rows, against 0.03 for
    the unpatched rows). Their gates still check them.
    """

    S_VALUES = (0.5, 0.8)
    SAMPLES = 250_000

    def build(self, H):
        degrees = H.parse_degrees("kmax:5")
        return {"degrees": degrees,
                "maps": {d: H.prescribed_hopf_map(d) for d in degrees}}

    def run_pass(self, H, maps, seed, workdir, store, out):
        rel_var = []
        for s in self.S_VALUES:
            cfg = H.ExperimentConfig(
                s=s, degrees=maps["degrees"], samples_per_estimate=self.SAMPLES,
                seed=seed, output_path=os.path.join(workdir, f"scaling-s{s}.csv"))
            res = out.timed(f"scaling_s:s{s}", H.run_scaling, cfg)
            for d, est in res.rows:
                book = H.bookkept_degree(maps["maps"][d].descriptor).value
                ok = book == d and _finite_estimate(est)
                out.gate(f"scaling.s{s}.d{d}", ok,
                         bookkept=book, energy=est.value, se=est.std_error)
                if ok and maps["maps"][d].descriptor["variant"] != "patched":
                    rel_var.append((est.std_error / est.value) ** 2)
            out.gate(f"scaling.s{s}.slope",
                     not res.partial and res.slope is not None and res.slope < 1.0,
                     slope=res.slope, slope_se=res.slope_stderr,
                     failures=res.failures)
            # the first pass of a run files the digest, later passes and
            # later runs of the same sources must reproduce it
            out.gate(f"scaling.s{s}.artifacts_repeat",
                     store.check(cfg.config_hash(),
                                 _artifact_digest(cfg.output_path, workdir)))
            out.stats["rows"] = out.stats.get("rows", 0) + len(res.rows)
        # rows that failed their gate have no usable SE; the gate reports them
        out.stats["rel_var"] = statistics.harmonic_mean(rel_var or [1.0])

    def summary(self, unit_s, first):
        t = group_times(unit_s)
        t["s_per_row"] = t["scaling_s"] / max(first.stats["rows"], 1)
        t["scaling_s_to_1pct"] = t["s_per_row"] * first.stats["rel_var"] / 1e-4
        return t["scaling_s_to_1pct"], t


class Certify:
    """Hopf invariants by fiber tracing plus two Jacobian-integral degrees.

    hopf_invariant runs on prescribed_hopf_map(1), the composition of one
    bubble with the Hopf map (compose_hopf fiber seeds, finite-difference
    single-point Jacobians), and on a Hopf bump on S^3 (ball-grid fiber
    seeds). stage_s is the two hopf_invariant calls.
    """

    STEP = 4e-3

    def build(self, H):
        center, base = H.sphere_point(S3_CENTER), H.sphere_point(S3_BASEPOINT)
        return {
            "hopf": {"compose": H.prescribed_hopf_map(1),
                     "bump": H.hopf_bump(center, 0.3)},
            "degree": {"bubbles9": H.multi_bubble(9),
                       "bump_s3": H.bump_deg1(center, 0.3, base)},
        }

    def run_pass(self, H, maps, seed, workdir, store, out):
        bounds = H.experiments.VERIFY_DEFAULTS
        for name, u in maps["hopf"].items():
            want = H.bookkept_degree(u.descriptor).value
            try:
                rep = out.timed(f"hopf_s:{name}", H.hopf_invariant,
                                u, step=self.STEP, seed=seed)
                out.gate(f"certify.hopf_invariant.{name}",
                         rep.value == want
                         and rep.residual < bounds["linking_residual_bound"],
                         value=rep.value, want=want, residual=rep.residual)
            except H.HopflabError as err:
                out.gate(f"certify.hopf_invariant.{name}", False, error=repr(err))
        for name, f in maps["degree"].items():
            want = H.bookkept_degree(f.descriptor).value
            try:
                rep = out.timed(f"degree_s:{name}", H.mapping_degree, f)
                out.gate(f"certify.degree.{name}",
                         rep.value == want
                         and rep.residual < bounds["degree_residual_bound"],
                         value=rep.value, want=want, residual=rep.residual)
            except H.HopflabError as err:
                out.gate(f"certify.degree.{name}", False, error=repr(err))

    def summary(self, unit_s, first):
        t = group_times(unit_s)
        t["certify_s"] = t["wall_s"]
        return t["hopf_s"], t


class Oracle:
    """Quadrature at resolution 1000 against MC at 2.5e5 samples, three maps.

    stage_s is the three energy_quadrature calls.

    The gate is |mc - quad| <= 3 SE. The estimate of multi_bubble(2) on S^2
    is skewed (a low estimate comes with a low SE), so a single 3-SE test
    alarms on some seeds although the estimator is unbiased (about one in
    a hundred at 10^6 samples). An alarm is therefore confirmed on an independent estimate
    with four times the samples, under the same 3-SE rule: a bias of 3 SE
    is 6 SE of the confirming estimate and still fails, while a chance
    alarm fails only if it repeats. The confirmation is a check, not
    workload: it is not a unit, so a seed that alarms does not read slower.
    """

    RESOLUTION = 1000
    SAMPLES = 250_000
    CONFIRM_FACTOR = 4
    CONFIRM_SEED_OFFSET = 2 ** 32  # keeps the confirming stream apart from benchmark seeds

    def build(self, H):
        s3 = H.EnergyParams(0.5, 6.0, 3, critical=True)
        s2 = H.EnergyParams(0.5, 6.0, 2)
        return {
            "hopf": (H.hopf_map(), s3),
            "bubbles2_hopf": (H.composed_with_hopf(H.multi_bubble(2)), s3),
            "bubbles2_s2": (H.multi_bubble(2), s2),
        }

    def run_pass(self, H, maps, seed, workdir, store, out):
        for name, (u, params) in maps.items():
            region = H.whole_sphere(params.n)
            quad = out.timed(f"quad_s:{name}", H.energy_quadrature,
                             u, params, self.RESOLUTION)
            est = out.timed(f"mc_s:{name}", H.energy_mc,
                            u, params, region, self.SAMPLES, seed)
            detail = {"quad": quad, "mc": est.value, "se": est.std_error}
            ok = _within_3se(est, quad)
            if not ok:
                conf = H.energy_mc(u, params, region,
                                   self.CONFIRM_FACTOR * self.SAMPLES,
                                   seed + self.CONFIRM_SEED_OFFSET)
                ok = _within_3se(conf, quad)
                detail.update(confirm_mc=conf.value, confirm_se=conf.std_error)
            out.gate(f"oracle.{name}", ok, **detail)

    def summary(self, unit_s, first):
        t = group_times(unit_s)
        t["oracle_s"] = t["wall_s"]
        return t["quad_s"], t


WORKLOADS = {"scaling": Scaling, "certify": Certify, "oracle": Oracle}


def _artifact_digest(csv_path, workdir):
    """sha256 over the hashed artifacts: the CSV and its .meta.json.

    The sidecar records the output path, which lies in a per-run temporary
    directory; that directory is replaced by a fixed token before hashing.
    """
    h = hashlib.sha256()
    with open(csv_path, "rb") as fh:
        h.update(fh.read())
    with open(csv_path + ".meta.json", "rb") as fh:
        h.update(fh.read().replace(os.fsencode(workdir), b"WORKDIR"))
    return h.hexdigest()


def code_id(package_dir):
    """sha256 over the package's Python sources, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(package_dir).rglob("*.py")):
        h.update(path.relative_to(package_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Artifact digests kept across passes and benchmark runs in one checkout.

    A digest is filed under the sources' code_id and the run's config hash
    (which covers the seed). A later pass or run of the same sources with
    the same inputs must reproduce it; a new key is recorded and passes.
    Sources that differ never share a key, so a deliberate change of the
    estimates or of the version written to .meta.json is not reported as a
    failure. One file per key, written by rename, so concurrent runs do not
    clobber it.
    """

    def __init__(self, directory, code):
        self.directory, self.code = directory, code
        os.makedirs(directory, exist_ok=True)

    def check(self, config_hash, digest):
        path = os.path.join(self.directory, f"{self.code}-{config_hash}.sha256")
        try:
            with open(path) as fh:
                return fh.read() == digest
        except FileNotFoundError:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                fh.write(digest)
            os.replace(tmp, path)
            return True
