"""Scaling experiment pipeline and the verify suite."""

import hashlib
import json
import math

import numpy as np
import pytest

import hopflab.experiments as X
from hopflab import energy
from hopflab.errors import HopflabError, ParameterError


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _cfg(**kw):
    base = dict(s=0.5, degrees=(1, 4), samples_per_estimate=2_000,
                seed=0, output_path="")
    base.update(kw)
    return X.ExperimentConfig(**base)


def test_config_defaults_and_normalization():
    cfg = _cfg(degrees=(9, 1, 4))
    assert cfg.p == 6.0  # critical pairing 3/s
    assert cfg.degrees == (1, 4, 9)  # sorted
    with pytest.raises(TypeError):  # p is 3/s, not a setting
        _cfg(p=5.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        _cfg(s=1.5)
    with pytest.raises(ParameterError):
        _cfg(samples_per_estimate=10)
    with pytest.raises(ParameterError):
        _cfg(degrees=())
    with pytest.raises(ParameterError):
        _cfg(degrees=(1, 1, 4))
    # counts are integers: 1.5 used to hash as seed 1, and 20000.5 samples
    # passed here and crashed the run
    with pytest.raises(ParameterError, match="seed"):
        _cfg(seed=1.5)
    with pytest.raises(ParameterError, match="samples_per_estimate"):
        _cfg(samples_per_estimate=20_000.5)
    with pytest.raises(ParameterError, match="degrees"):
        _cfg(degrees=(1, 4.5))
    cfg = _cfg(seed=np.int64(1), samples_per_estimate=np.int32(2_000),
               degrees=(np.int64(4), 1))
    assert cfg.config_hash() == _cfg(seed=1, degrees=(1, 4)).config_hash()
    assert type(cfg.seed) is int and type(cfg.samples_per_estimate) is int


def test_config_hash_ignores_artifact_destination():
    a = _cfg(output_path="/tmp/a.csv")
    b = _cfg(output_path="/elsewhere/b.csv")
    c = _cfg(output_path="/tmp/a.csv", seed=1)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16


def test_parse_degrees_forms():
    assert X.parse_degrees("1,4,9") == (1, 4, 9)
    assert X.parse_degrees("kmax:3") == (1, 2, 4, 5, 7, 9)
    assert X.parse_degrees("kmax:1") == (1,)
    assert X.parse_degrees("kmax:5") == X.DEFAULT_DEGREES
    with pytest.raises(ParameterError):
        X.parse_degrees("")
    with pytest.raises(ParameterError):
        X.parse_degrees("kmax:0")
    for text, token in (("kmax:x", "'x'"), ("1,a", "'a'"), ("1, 2.5", "'2.5'")):
        with pytest.raises(ParameterError, match=token):
            X.parse_degrees(text)


# ---------------------------------------------------------------------------
# Log-log fit
# ---------------------------------------------------------------------------

def _fake_rows(ds, alpha, scale=2.0):
    params = energy.EnergyParams(s=0.5, p=6.0, n=3)
    region = energy.whole_sphere(3)
    return [
        (d, energy.EnergyEstimate(scale * d ** alpha, 0.0, 1000, params,
                                  region, 0, 0.0, []))
        for d in ds
    ]


def test_fit_recovers_exact_power_law():
    slope, stderr, intercept = X._fit_loglog(_fake_rows([2, 4, 9, 16], 0.75))
    assert abs(slope - 0.75) < 1e-12
    assert abs(intercept - math.log(2.0)) < 1e-12
    assert stderr < 1e-12


def test_fit_uses_degrees_two_and_up():
    # a wild d=1 outlier must not perturb the fit
    rows = _fake_rows([2, 4, 9], 0.6) + _fake_rows([1], 0.6, scale=500.0)
    slope, _, _ = X._fit_loglog(rows)
    assert abs(slope - 0.6) < 1e-12


def test_fit_degenerate_cases():
    assert X._fit_loglog(_fake_rows([1], 0.75)) == (None, None, None)
    slope, stderr, _ = X._fit_loglog(_fake_rows([2, 4], 0.75))
    assert abs(slope - 0.75) < 1e-12
    assert stderr is None  # no residual dof with two points


# ---------------------------------------------------------------------------
# Scaling runs and artifacts
# ---------------------------------------------------------------------------

def test_run_scaling_small(tmp_path):
    out = tmp_path / "scaling.csv"
    cfg = _cfg(degrees=(1, 2, 4), output_path=str(out))
    res = X.run_scaling(cfg)
    assert [d for d, _ in res.rows] == [1, 2, 4]
    assert not res.partial and res.failures == []
    assert all(e.value > 0 for _, e in res.rows)
    assert res.slope is not None

    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(X.CSV_COLUMNS)
    assert len(lines) == 1 + 3  # header plus one row per degree

    meta = json.loads((tmp_path / "scaling.csv.meta.json").read_text())
    assert meta["config_hash"] == cfg.config_hash()
    assert meta["partial"] is False
    assert meta["slope"] == res.slope

    loglog = (tmp_path / "scaling.csv.loglog.csv").read_text().splitlines()
    assert loglog[0] == "log_d,log_energy"
    assert len(loglog) == 1 + 3


def test_run_scaling_rerun_is_byte_identical(tmp_path):
    files = {}
    for tag in ("a", "b"):
        out = tmp_path / tag / "run.csv"
        out.parent.mkdir()
        X.run_scaling(_cfg(degrees=(1, 2), output_path=str(out)))
        files[tag] = {p.name: p.read_bytes()
                      for p in sorted(out.parent.iterdir())}
    assert set(files["a"]) == set(files["b"])
    for name in files["a"]:
        if name.endswith("meta.json"):
            # sidecars embed output_path; everything else must match
            ma = json.loads(files["a"][name])
            mb = json.loads(files["b"][name])
            ma["config"].pop("output_path")
            mb["config"].pop("output_path")
            assert ma == mb
        else:
            assert files["a"][name] == files["b"][name]


def test_run_scaling_partial_on_failure(tmp_path, monkeypatch):
    real = X.prescribed_hopf_map

    def flaky(d):
        if d == 4:
            raise HopflabError("construction refused for the test")
        return real(d)

    monkeypatch.setattr(X, "prescribed_hopf_map", flaky)
    out = tmp_path / "run.csv"
    res = X.run_scaling(_cfg(degrees=(1, 2, 4, 9), output_path=str(out)))
    assert res.partial
    assert [d for d, _ in res.rows] == [1, 2]  # stops at the failure
    assert len(res.failures) == 1 and "d=4" in res.failures[0]
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["partial"] is True and meta["failures"]


def test_emit_report_requires_output_path():
    res = X.run_scaling(_cfg(degrees=(1,)))
    with pytest.raises(ParameterError):
        X.emit_report(res)


def test_run_scaling_single_degree_has_no_slope():
    res = X.run_scaling(_cfg(degrees=(1,)))
    assert res.slope is None and res.slope_stderr is None


def test_run_scaling_keys_row_streams_on_seed_and_degree():
    # keys of seed + d would give rows (0, 2) and (1, 1) one stream
    seeds = {}
    for seed in (0, 1):
        res = X.run_scaling(_cfg(degrees=(1, 2), seed=seed))
        seeds.update({(seed, d): e.seed for d, e in res.rows})
    assert seeds[(0, 2)] != seeds[(1, 1)]
    assert len(set(seeds.values())) == 4
    again = X.run_scaling(_cfg(degrees=(2,), seed=0))
    assert again.rows[0][1].seed == seeds[(0, 2)]
    with pytest.raises(ParameterError):
        _cfg(seed=-1)


def test_run_scaling_routes_v_o_h_rows_through_the_fiber_reduction(tmp_path):
    out = tmp_path / "run.csv"
    cfg = _cfg(degrees=(1, 2, 4), output_path=str(out))
    res = X.run_scaling(cfg)
    assert res.estimators == ["fiber_reduced_energy", "energy_mc",
                              "fiber_reduced_energy"]
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["estimators"] == res.estimators
    params = energy.EnergyParams(cfg.s, cfg.p, 3, critical=True)
    for d, est in res.rows:
        rng = np.random.default_rng([cfg.seed, d])
        if d == 2:  # patched: the S^3 estimator, as before
            want = energy.energy_mc(X.prescribed_hopf_map(d), params,
                                    energy.whole_sphere(3),
                                    cfg.samples_per_estimate, rng)
        else:
            want = energy.fiber_reduced_energy(X.multi_bubble(math.isqrt(d)),
                                               params, cfg.samples_per_estimate,
                                               rng)
        assert est.to_json() == want.to_json()


def test_run_scaling_artifacts_are_pinned(tmp_path):
    # the config hash as written before ExperimentConfig.p became the
    # property 3/s; the artifacts as 80 shells of ratio sqrt 2 write them,
    # with the v o h rows' steps drawn in sectors about x's ball
    out = tmp_path / "run.csv"
    cfg = X.ExperimentConfig(s=0.5, degrees=(1, 2, 4), samples_per_estimate=2000,
                             seed=0, output_path=str(out))
    X.run_scaling(cfg)
    assert cfg.config_hash() == "25fd289a231c2e1e"
    for path, digest in (
            (out, "b5b2d423ddd62a5d4ad77b84224693116ebbd4a5dfb304737199ccd2ece4643c"),
            (tmp_path / "run.csv.loglog.csv",
             "9eef5e943c57073f7400b5887bdd74662428c52425e8bcf6f416dd330da09e5b")):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name


# ---------------------------------------------------------------------------
# Verify suite plumbing (full checks live in the acceptance tests)
# ---------------------------------------------------------------------------

def test_run_verify_empty_selection_passes():
    rep = X.run_verify(checks=[])
    assert rep.passed and rep.results == []
    assert json.loads(rep.to_json()) == {"passed": True, "results": []}


def test_run_verify_rejects_unknown_names():
    with pytest.raises(ParameterError):
        X.run_verify(checks=["no_such_check"])


def test_run_verify_single_check_row():
    rep = X.run_verify(checks=["hopf_gradient"])
    assert len(rep.results) == 1
    row = rep.results[0]
    assert row.name == "hopf_gradient" and row.passed
    assert row.measured["max_gradient_error"] < 1e-6
    table = rep.to_table()
    assert table.startswith("PASS") and "hopf_gradient" in table


def test_run_verify_rows_carry_their_seconds():
    rep = X.run_verify(checks=["hopf_gradient"])
    assert len(rep.results) == 1 and rep.results[0].seconds >= 0.0
    rows = json.loads(rep.to_json())["results"]
    assert rows[0]["seconds"] == rep.results[0].seconds
    assert f"{rep.results[0].seconds:.2f}s" in rep.to_table()


def test_run_verify_sabotaged_tolerance_fails(monkeypatch):
    monkeypatch.setitem(X.VERIFY_DEFAULTS, "gradient_tol", 1e-20)
    rep = X.run_verify(checks=["hopf_gradient"])
    assert not rep.passed
    assert rep.to_table().startswith("FAIL")


def test_fiber_reduction_check_passes_at_its_defaults():
    rep = X.run_verify(checks=["fiber_reduction"])
    assert rep.passed, rep.to_table()
    assert len(rep.results[0].measured["z"]) == 4


def test_check_registry_is_complete():
    assert list(X.CHECKS) == [
        "hopf_gradient", "degree_certification", "hopf_fiber_linking",
        "bookkeeping_vs_numeric", "patching_bound", "gluing_bound",
        "bump_r_independence", "fiber_reduction", "estimator_consistency",
    ]
