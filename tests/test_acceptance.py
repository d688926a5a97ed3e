"""Acceptance gate: ten end-to-end criteria, one test (and one pytest -v
line) each. Tolerances and runtime budgets are pinned literals; every test
is self-contained and runs at its stated sample sizes."""

import math
import time

import numpy as np

from hopflab import (
    EnergyParams,
    ExperimentConfig,
    bookkept_degree,
    bump_deg1,
    check_gluing_bound,
    check_patching_bound,
    composed_with_hopf,
    energy_mc,
    energy_quadrature,
    fiber_energy_comparison,
    hopf_bump,
    hopf_invariant,
    hopf_map,
    map_from_descriptor,
    mapping_degree,
    multi_bubble,
    prescribed_hopf_map,
    run_scaling,
    sphere_point,
    tangential_jacobian,
    whole_sphere,
)
from hopflab.geometry import sample_uniform_many

CENTER_S2 = sphere_point([0.0, 0.0, 1.0])
CENTER_S3 = sphere_point([0.0, 0.0, 0.0, 1.0])
BASE_S2 = [0.0, 0.0, -1.0]
BASE_S3 = [0.0, 0.0, 0.0, -1.0]
CRITICAL_S3 = EnergyParams(s=0.5, p=6.0, n=3, critical=True)
WHOLE_S3 = whole_sphere(3)


class _Budget:
    """Wall-clock guard: the block must finish inside `seconds`."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"ran {self.elapsed:.1f}s, budget {self.seconds}s")
        return False


def test_01_hopf_gradient_norm_squared_is_eight():
    with _Budget(1.0):
        pts = sample_uniform_many(3, 1000, np.random.default_rng(0))
        D = tangential_jacobian(hopf_map(), pts)[0]
        grad_sq = np.sum(D * D, axis=(1, 2))
        assert np.max(np.abs(grad_sq - 8.0)) <= 1e-6


def test_02_degree_certification_bumps_and_bubbles():
    with _Budget(120.0):
        for m, center, b in ((2, CENTER_S2, BASE_S2), (3, CENTER_S3, BASE_S3)):
            for r in (0.1, 0.3, 0.7):
                rep = mapping_degree(bump_deg1(center, r, b))
                assert rep.value == 1, f"bump m={m} r={r}: {rep.value}"
                assert rep.residual < 0.05
        for k in range(1, 10):
            rep = mapping_degree(multi_bubble(k))
            assert rep.value == k, f"bubbles k={k}: {rep.value}"
            assert rep.residual < 0.05


def test_03_hopf_invariant_of_hopf_map_is_one():
    with _Budget(30.0):
        rep = hopf_invariant(hopf_map(), step=2e-3, seed=0)
        assert rep.value == 1
        assert rep.residual < 0.05


def test_04_bookkept_degrees_match_numerics():
    with _Budget(60.0):
        rep = hopf_invariant(prescribed_hopf_map(1), step=2e-3, seed=0)
        assert rep.value == 1 and rep.residual < 0.05
        for d in (0, 1, 2, 5, 7, 9, -3):
            assert bookkept_degree(prescribed_hopf_map(d).descriptor).value == d


def test_05_patching_inequality_within_three_se():
    with _Budget(120.0):
        u7 = prescribed_hopf_map(7)
        pieces = [map_from_descriptor(c) for c in u7.descriptor["children"]]
        rep = check_patching_bound(pieces, u7, CRITICAL_S3,
                                   n=200_000, seed=0)
        assert rep.holds, f"lhs={rep.lhs.value} rhs={rep.rhs_total}"


def test_06_gluing_inequality_finite_constant():
    with _Budget(120.0):
        u = hopf_bump(CENTER_S3, r=0.6)
        ball = u.supports[0]
        rep = check_gluing_bound(
            u, WHOLE_S3, eta=0.5, rho=min(2.0 * ball.radius, 2.0),
            params=CRITICAL_S3, center=ball.center, n=200_000, seed=0,
        )
        assert rep.holds
        assert math.isfinite(rep.c_star)


def test_07_bump_energy_independent_of_radius():
    with _Budget(120.0):
        ests = [energy_mc(hopf_bump(CENTER_S3, r=r), CRITICAL_S3,
                          WHOLE_S3, 400_000, 7) for r in (0.1, 0.3)]
        diff = abs(ests[0].value - ests[1].value)
        combined = math.hypot(ests[0].std_error, ests[1].std_error)
        assert diff <= 3.0 * combined, f"diff={diff} 3se={3 * combined}"


def test_08_fiber_ratios_within_factor_three_of_median():
    with _Budget(240.0):
        ratios = []
        for k in (1, 2, 3, 4):
            rep = fiber_energy_comparison(multi_bubble(k), s=0.5,
                                          n=200_000, seed=10 + k)
            assert not rep.undefined
            ratios.append(rep.ratio)
        med = float(np.median(ratios))
        assert all(med / 3.0 <= r <= med * 3.0 for r in ratios), ratios


def test_09_estimators_agree_and_se_scales():
    with _Budget(300.0):
        for u in (hopf_map(), composed_with_hopf(multi_bubble(2))):
            est = energy_mc(u, CRITICAL_S3, WHOLE_S3, 1_000_000, 0)
            quad = energy_quadrature(u, CRITICAL_S3, 20_000)
            assert abs(est.value - quad) <= 3.0 * est.std_error
        ses = [energy_mc(hopf_map(), CRITICAL_S3, WHOLE_S3, n, 3).std_error
               for n in (200_000, 400_000, 800_000, 1_600_000)]
        root2 = math.sqrt(2.0)
        for a, b in zip(ses, ses[1:]):
            assert root2 * 0.7 <= a / b <= root2 * 1.3


def test_10_headline_scaling_slope_near_three_quarters():
    for s in (0.5, 0.8):
        with _Budget(600.0):
            cfg = ExperimentConfig(s=s, degrees=(1, 4, 9, 16, 25),
                                   samples_per_estimate=1_000_000,
                                   seed=0, output_path="")
            res = run_scaling(cfg)
            assert not res.partial
            assert 0.55 <= res.slope <= 0.90, f"s={s}: slope={res.slope}"
