"""Experiment orchestration: the scaling run, the verify suite, reports.

run_scaling builds maps of prescribed Hopf degree, estimates their critical
fractional energies on S^3, and fits the log-log slope of energy against
degree - the sub-linear growth exponent (about 3/4) this package exists to
exhibit. run_verify executes the standing invariant checks and returns a
machine-readable pass/fail table.

Artifacts are deterministic: the same config yields byte-identical files
(no timestamps; every file carries the config hash that produced it).
Verify reports are not artifacts in this sense: each row carries its
check's wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .energy import (
    EnergyParams,
    check_gluing_bound,
    check_patching_bound,
    energy_mc,
    energy_quadrature,
    fiber_reduced_energy,
    whole_sphere,
)
from .errors import HopflabError, ParameterError
from .geometry import sample_uniform_many, sphere_point
from .maps import (
    bump_deg1,
    composed_with_hopf,
    hopf_bump,
    hopf_map,
    map_from_descriptor,
    multi_bubble,
    prescribed_hopf_map,
)
from .topology import (
    bookkept_degree,
    hopf_invariant,
    mapping_degree,
    tangential_jacobian,
)

DEFAULT_DEGREES = (1, 2, 4, 5, 7, 9, 16, 25)  # squares k<=5 plus 2, 5, 7


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scaling run depends on; hashed into its artifacts."""

    s: float
    degrees: tuple
    samples_per_estimate: int
    seed: int
    output_path: str
    format: str = "csv"

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ParameterError(f"s must lie in (0,1), got {self.s}")
        if self.samples_per_estimate < 1_000:
            raise ParameterError("samples_per_estimate must be at least 1000")
        degrees = tuple(int(d) for d in self.degrees)
        if not degrees:
            raise ParameterError("degrees must be nonempty")
        if len(set(degrees)) != len(degrees):
            raise ParameterError("degrees must be distinct")
        object.__setattr__(self, "degrees", tuple(sorted(degrees)))
        if self.format not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got {self.format!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    @property
    def p(self) -> float:
        """The critical pairing 3/s, the only one the theorem concerns."""
        return 3.0 / self.s

    def to_dict(self) -> dict:
        return {
            "s": self.s, "p": self.p, "degrees": list(self.degrees),
            "samples_per_estimate": self.samples_per_estimate,
            "seed": self.seed, "output_path": self.output_path,
            "format": self.format,
        }

    def config_hash(self) -> str:
        """Hash of the scientific inputs (not the artifact destination)."""
        core = self.to_dict()
        core.pop("output_path")
        core.pop("format")
        blob = json.dumps(core, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def parse_degrees(text: str):
    """Degree list from "1,4,9" or "kmax:N" (squares up to N^2 plus 2, 5, 7)."""
    text = text.strip()
    if text.startswith("kmax:"):
        kmax = _integer(text[len("kmax:"):])
        if kmax < 1:
            raise ParameterError("kmax must be at least 1")
        ds = {k * k for k in range(1, kmax + 1)}
        ds.update(d for d in (2, 5, 7) if d <= kmax * kmax)
        return tuple(sorted(ds))
    out = tuple(_integer(tok) for tok in text.split(",") if tok.strip())
    if not out:
        raise ParameterError(f"no degrees in {text!r}")
    return out


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterError(f"degree {token.strip()!r} is not an integer") from None


# ---------------------------------------------------------------------------
# Scaling experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingResult:
    """Energy-vs-degree rows plus the fitted log-log slope."""

    rows: list  # (d, EnergyEstimate), sorted by d
    slope: float | None
    slope_stderr: float | None
    intercept: float | None
    partial: bool
    failures: list
    config: ExperimentConfig
    estimators: list = field(default_factory=list)  # each row's estimator name


def _fit_loglog(rows):
    """Least-squares slope of log(energy) against log(d) over d >= 2."""
    pts = [(math.log(d), math.log(e.value))
           for d, e in rows if d >= 2 and e.value > 0.0]
    if len(pts) < 2:
        return None, None, None
    x = np.array([q[0] for q in pts])
    y = np.array([q[1] for q in pts])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    if len(pts) > 2:
        resid = y - design @ np.array([slope, intercept])
        sigma2 = float(resid @ resid) / (len(pts) - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(sigma2 / sxx)
    else:
        stderr = None
    return float(slope), stderr, float(intercept)


def run_scaling(config: ExperimentConfig) -> ScalingResult:
    """Estimate E_{s,p}(u_d, S^3) for each prescribed degree and fit.

    Each row draws its estimator seed from a stream keyed on
    (config.seed, d), so rows are reproducible independently and no two
    (seed, degree) pairs share a stream. The map picks the estimator
    (_estimate_row): a v o h row (the squares d = k^2) runs
    fiber_reduced_energy on v, one S^2 pass that integrates the Hopf fibers
    exactly, and every other row (patched, flipped, constant) runs
    energy_mc on S^3. The .meta.json sidecar names each row's estimator. A
    construction or estimation failure stops the run; the rows already
    computed are persisted with partial=True.
    """
    params = EnergyParams(s=config.s, p=config.p, n=3, critical=True)
    rows, estimators, failures = [], [], []
    partial = False
    for d in config.degrees:
        try:
            u = prescribed_hopf_map(d)
            # stream keys are non-negative: a negative degree keys on (|d|, 1)
            key = [config.seed, d] if d >= 0 else [config.seed, -d, 1]
            name, est = _estimate_row(u, params, config.samples_per_estimate,
                                      np.random.default_rng(key))
        except HopflabError as err:
            failures.append(f"d={d}: {type(err).__name__}: {err}")
            partial = True
            break
        rows.append((d, est))
        estimators.append(name)
    slope, stderr, intercept = _fit_loglog(rows)
    result = ScalingResult(rows=rows, slope=slope, slope_stderr=stderr,
                           intercept=intercept, partial=partial,
                           failures=failures, config=config,
                           estimators=estimators)
    if config.output_path:
        emit_report(result)
    return result


def _estimate_row(u, params: EnergyParams, n: int, rng):
    """(estimator name, estimate) of E(u, S^3) at sp = 3: fiber_reduced_energy
    on v when u is v o h, where the reduction is exact; energy_mc
    otherwise."""
    if u.descriptor["variant"] == "compose_hopf":
        v = map_from_descriptor(u.descriptor["children"][0])
        return "fiber_reduced_energy", fiber_reduced_energy(v, params, n, rng)
    return "energy_mc", energy_mc(u, params, whole_sphere(3), n, rng)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("d", "energy", "std_error", "n_samples", "s", "p", "seed")


def result_rows(result: ScalingResult):
    cfg = result.config
    return [
        {"d": d, "energy": e.value, "std_error": e.std_error,
         "n_samples": e.n_samples, "s": cfg.s, "p": cfg.p, "seed": e.seed}
        for d, e in result.rows
    ]


def result_metadata(result: ScalingResult) -> dict:
    return {
        "version": __version__,
        "config_hash": result.config.config_hash(),
        "config": result.config.to_dict(),
        "slope": result.slope,
        "slope_stderr": result.slope_stderr,
        "intercept": result.intercept,
        "partial": result.partial,
        "failures": list(result.failures),
        "estimators": list(result.estimators),
    }


def emit_report(result: ScalingResult) -> list:
    """Write the run's artifacts in the config's format; returns the paths.

    csv: the data table (exact columns d,energy,std_error,n_samples,s,p,seed)
    plus a .meta.json sidecar. json: one file with metadata and rows. Both
    get a .loglog.csv companion holding the plot-ready (log d, log energy)
    columns.
    """
    path = result.config.output_path
    if not path:
        raise ParameterError("config has no output_path")
    rows = result_rows(result)
    meta = result_metadata(result)
    written = []
    if result.config.format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c])
                           for c in CSV_COLUMNS) for r in rows]
        _write(path, "\n".join(lines) + "\n")
        _write(path + ".meta.json", json.dumps(meta, sort_keys=True) + "\n")
        written += [path, path + ".meta.json"]
    else:
        _write(path, json.dumps({"metadata": meta, "rows": rows},
                                sort_keys=True) + "\n")
        written.append(path)
    companion = path + ".loglog.csv"
    lines = ["log_d,log_energy"]
    lines += [f"{math.log(r['d'])!r},{math.log(r['energy'])!r}"
              for r in rows if r["d"] >= 1 and r["energy"] > 0.0]
    _write(companion, "\n".join(lines) + "\n")
    written.append(companion)
    return written


def _write(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Verify suite
# ---------------------------------------------------------------------------

VERIFY_DEFAULTS = {
    "seed": 0,
    "samples": 200_000,           # MC budget for the inequality checks
    "grid_size": 200_000,         # degree-integration budget
    "trace_step": 2e-3,           # fiber-tracing arc step
    "gradient_tol": 1e-6,
    "degree_residual_bound": 0.05,
    "linking_residual_bound": 0.05,
    "se_scaling_slack": 0.30,
    "consistency_samples": 1_000_000,
    "quad_resolution": 20_000,
}

_BASEPOINT_S2 = (1.0, 0.0, 0.0)
_BASEPOINT_S3 = (1.0, 0.0, 0.0, 0.0)
_CENTER_S2 = (0.0, 0.0, 1.0)
_CENTER_S3 = (0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class CheckResult:
    """One verify row; seconds is the check's wall time."""

    name: str
    passed: bool
    measured: dict
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "detail": self.detail,
                "seconds": self.seconds}


@dataclass(frozen=True)
class VerifyReport:
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_table(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            shown = " ".join(f"{k}={_show(v)}" for k, v in r.measured.items())
            tail = f"  ({r.detail})" if r.detail else ""
            lines.append(f"{status}  {r.name:26s} {r.seconds:8.2f}s  {shown}{tail}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed,
             "results": [r.to_dict() for r in self.results]},
            sort_keys=True,
        )


def _show(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _check_hopf_gradient(k):
    """Tangential gradient norm of the Hopf map: |grad h|^2 = 8 pointwise."""
    h = hopf_map()
    pts = sample_uniform_many(3, 1000, np.random.default_rng(k["seed"]))
    D = tangential_jacobian(h, pts)[0]
    worst = float(np.max(np.abs(np.sum(D * D, axis=(1, 2)) - 8.0)))
    return worst <= k["gradient_tol"], {"max_gradient_error": worst}


def _check_degree_certification(k):
    """Degree 1 for single bumps at several radii and dimensions; k for bubbles."""
    cases = []
    for m, center, b in ((2, _CENTER_S2, _BASEPOINT_S2),
                         (3, _CENTER_S3, _BASEPOINT_S3)):
        for r in (0.1, 0.3, 0.7):
            f = bump_deg1(sphere_point(center), r, b)
            cases.append((f"bump(m={m},r={r})", f, 1))
    for kk in range(1, 10):
        cases.append((f"bubbles({kk})", multi_bubble(kk), kk))
    worst = 0.0
    bad = []
    for label, f, want in cases:
        rep = mapping_degree(f, k["grid_size"])
        worst = max(worst, rep.residual)
        if rep.value != want or rep.residual >= k["degree_residual_bound"]:
            bad.append(f"{label}: got {rep.value} (raw {rep.raw:.4f})")
    return not bad, {"max_residual": worst, "failures": bad}


def _check_hopf_fiber_linking(k):
    """Fibers of the Hopf map over two regular values link exactly once."""
    rep = hopf_invariant(hopf_map(), step=k["trace_step"], seed=k["seed"])
    ok = rep.value == 1 and rep.residual < k["linking_residual_bound"]
    return ok, {"value": rep.value, "raw": rep.raw, "residual": rep.residual}


def _check_bookkeeping_vs_numeric(k):
    """Structural degree audit agrees with fiber linking where both apply."""
    rep = hopf_invariant(prescribed_hopf_map(1), step=k["trace_step"],
                         seed=k["seed"])
    bad = []
    if rep.value != 1 or rep.residual >= k["linking_residual_bound"]:
        bad.append(f"linked degree 1: got {rep.value} (raw {rep.raw:.4f})")
    for d in (0, 1, 2, 5, 7, 9, -3):
        book = bookkept_degree(prescribed_hopf_map(d).descriptor)
        if book.value != d:
            bad.append(f"bookkept({d}) = {book.value}")
    return not bad, {"linked_raw": rep.raw, "failures": bad}


def _check_patching_bound(k):
    """Patched energy is at most 2^p times the sum over the pieces."""
    u7 = prescribed_hopf_map(7)
    pieces = [map_from_descriptor(c) for c in u7.descriptor["children"]]
    rep = check_patching_bound(
        pieces, u7, EnergyParams(s=0.5, p=6.0, n=3, critical=True),
        n=k["samples"], seed=k["seed"],
    )
    return rep.holds, {"lhs": rep.lhs.value, "rhs": rep.rhs_total,
                       "ratio": rep.ratio}


def _check_gluing_bound(k):
    """Energy localizes through an annular buffer with a finite constant."""
    u = hopf_bump(sphere_point(_CENTER_S3), r=0.6)
    ball = u.supports[0]
    rho = min(2.0 * ball.radius, 2.0)
    rep = check_gluing_bound(
        u, whole_sphere(3), eta=0.5, rho=rho,
        params=EnergyParams(s=0.5, p=6.0, n=3, critical=True),
        center=ball.center, n=k["samples"], seed=k["seed"],
    )
    ok = rep.holds and math.isfinite(rep.c_star)
    return ok, {"c_star": rep.c_star, "c_star_se": rep.c_star_std_error}


def _check_bump_r_independence(k):
    """Critical energy of a Hopf bump does not depend on its radius."""
    params = EnergyParams(s=0.5, p=6.0, n=3, critical=True)
    region = whole_sphere(3)
    n = 2 * k["samples"]
    ests = [energy_mc(hopf_bump(sphere_point(_CENTER_S3), r=r), params,
                      region, n, k["seed"] + 7) for r in (0.1, 0.3)]
    diff = abs(ests[0].value - ests[1].value)
    combined = math.hypot(ests[0].std_error, ests[1].std_error)
    return diff <= 3.0 * combined, {
        "e_r01": ests[0].value, "e_r03": ests[1].value,
        "diff": diff, "three_se": 3.0 * combined,
    }


def _check_fiber_reduction(k):
    """v o h on S^3 and its fiber reduction to S^2 agree within 3 combined SE.

    The reduction's kernel lies between pi^2 / c^5 and (3 pi^2 / 2) / c^5,
    so pi^2 E(v, S^2) <= E(v o h, S^3) <= (3 pi^2 / 2) E(v, S^2) holds for
    every v; this check tests the identity itself, not only that band.
    """
    params = EnergyParams(s=0.5, p=6.0, n=3, critical=True)
    zs = []
    for kk in (1, 2, 3, 4):
        v = multi_bubble(kk)
        e3 = energy_mc(composed_with_hopf(v), params, whole_sphere(3),
                       k["samples"], k["seed"] + 20 + kk)
        e2 = fiber_reduced_energy(v, params, k["samples"], k["seed"] + 30 + kk)
        zs.append((e3.value - e2.value) / math.hypot(e3.std_error, e2.std_error))
    return all(abs(z) <= 3.0 for z in zs), {"z": zs}


def _check_estimator_consistency(k):
    """MC agrees with deterministic quadrature; SE scales as n^-1/2."""
    params = EnergyParams(s=0.5, p=6.0, n=3, critical=True)
    region = whole_sphere(3)
    bad = []
    zs = {}
    for label, u in (("hopf", hopf_map()),
                     ("bubbles2_hopf", composed_with_hopf(multi_bubble(2)))):
        est = energy_mc(u, params, region, k["consistency_samples"], k["seed"])
        quad = energy_quadrature(u, params, k["quad_resolution"])
        z = (est.value - quad) / est.std_error
        zs[f"z_{label}"] = float(z)
        if abs(z) > 3.0:
            bad.append(f"{label}: mc {est.value:.2f} vs quad {quad:.2f}")
    h = hopf_map()
    ses = [energy_mc(h, params, region, n, k["seed"] + 3).std_error
           for n in (200_000, 400_000, 800_000, 1_600_000)]
    root2 = math.sqrt(2.0)
    slack = k["se_scaling_slack"]
    ratios = [ses[i] / ses[i + 1] for i in range(3)]
    if not all(root2 * (1 - slack) <= r <= root2 * (1 + slack) for r in ratios):
        bad.append(f"SE doubling ratios {ratios}")
    measured = dict(zs)
    measured["se_ratios"] = [float(r) for r in ratios]
    measured["failures"] = bad
    return not bad, measured


CHECKS = {
    "hopf_gradient": _check_hopf_gradient,
    "degree_certification": _check_degree_certification,
    "hopf_fiber_linking": _check_hopf_fiber_linking,
    "bookkeeping_vs_numeric": _check_bookkeeping_vs_numeric,
    "patching_bound": _check_patching_bound,
    "gluing_bound": _check_gluing_bound,
    "bump_r_independence": _check_bump_r_independence,
    "fiber_reduction": _check_fiber_reduction,
    "estimator_consistency": _check_estimator_consistency,
}


def run_verify(checks=None, overrides=None) -> VerifyReport:
    """Run the named checks (all by default) and collect pass/fail rows.

    Each row records its check's wall time in seconds. Check failures and
    exceptions are collected, never fatal; an empty
    selection yields an empty (passing) report. overrides updates the
    knobs in VERIFY_DEFAULTS, e.g. tightening a tolerance to probe that a
    check actually bites.
    """
    knobs = dict(VERIFY_DEFAULTS)
    for key in overrides or {}:
        if key not in VERIFY_DEFAULTS:
            raise ParameterError(f"unknown verify knob {key!r}")
    knobs.update(overrides or {})
    names = list(CHECKS) if checks is None else list(checks)
    results = []
    for name in names:
        if name not in CHECKS:
            raise ParameterError(f"unknown check {name!r}")
        t0 = time.perf_counter()
        try:
            passed, measured = CHECKS[name](knobs)
            detail = ""
        except HopflabError as err:
            passed, measured = False, {}
            detail = f"{type(err).__name__}: {err}"
        results.append(CheckResult(name, bool(passed), measured, detail,
                                   time.perf_counter() - t0))
    return VerifyReport(results)
