"""Fractional energy estimators: MC, quadrature, regions, inequalities."""

import hashlib
import json
import math

import numpy as np
import pytest

from hopflab import energy, geometry as geo, maps
from hopflab.errors import ParameterError

PARAMS_S3 = energy.EnergyParams(s=0.5, p=6.0, n=3, critical=True)
WHOLE_S3 = energy.whole_sphere(3)
WHOLE_S2 = energy.whole_sphere(2)
CENTER_S3 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# Parameters and regions
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        energy.EnergyParams(s=1.2, p=3.0, n=3)
    with pytest.raises(ParameterError):
        energy.EnergyParams(s=0.5, p=0.5, n=3)
    with pytest.raises(ParameterError):
        energy.EnergyParams(s=0.5, p=6.0, n=4)
    with pytest.raises(ParameterError):
        energy.EnergyParams(s=0.5, p=5.0, n=3, critical=True)  # sp != 3
    assert energy.EnergyParams(s=0.5, p=6.0, n=3).kernel_exponent == 6.0


def test_region_measures_tile():
    b = energy.Region(3, CENTER_S3, 0.0, 0.8).measure()
    c = energy.Region(3, CENTER_S3, 0.8).measure()
    assert np.isclose(b + c, WHOLE_S3.measure(), rtol=1e-14, atol=0)
    d = energy.Region(3, CENTER_S3, 0.4, 0.8).measure()
    assert np.isclose(d, b - energy.Region(3, CENTER_S3, 0.0, 0.4).measure(),
                      rtol=1e-14, atol=0)
    assert energy.Region(3).measure() == WHOLE_S3.measure()


def test_region_rejects_bad_bounds():
    for lo, hi in ((0.8, 0.8), (0.8, 0.4), (0.0, np.pi + 1e-9), (-0.1, 0.4)):
        with pytest.raises(ParameterError):
            energy.Region(3, CENTER_S3, lo, hi)
    with pytest.raises(ParameterError):  # a centre on S^2 for a region of S^3
        energy.Region(3, geo.sphere_point([0.0, 0.0, 1.0]), 0.0, 0.8)


def _chord_angle(x, y):
    """Geodesic distances between rows, accurate near 0 and near pi."""
    return 2.0 * np.arctan2(np.linalg.norm(x - y, axis=1),
                            np.linalg.norm(x + y, axis=1))


def test_region_sampling_respects_bounds():
    gen = np.random.default_rng(3)
    c = CENTER_S3.coords.tolist()
    for lo, hi, doc in (
        (0.0, 0.8,
         {"variant": "ball", "dim": 3, "outer": {"center": c, "radius": 0.8}}),
        (0.8, np.pi,
         {"variant": "complement", "dim": 3, "outer": {"center": c, "radius": 0.8}}),
        (0.4, 0.8,
         {"variant": "difference", "dim": 3, "outer": {"center": c, "radius": 0.8},
          "inner": {"center": c, "radius": 0.4}}),
    ):
        region = energy.Region(3, CENTER_S3, lo, hi)
        pts = region.sample(2000, gen)
        d = geo.geodesic_distances(pts, CENTER_S3.coords)
        assert np.all(d >= lo - 1e-12) and np.all(d <= hi + 1e-12)
        assert np.all(region.contains(pts))
        every = WHOLE_S3.sample(2000, gen)
        d = geo.geodesic_distances(every, CENTER_S3.coords)
        assert np.array_equal(region.contains(every), (d >= lo) & (d <= hi))
        assert region.to_dict() == doc
        # one shell step lands each y at its own distance t in [lo, hi]
        base = geo.sample_uniform_many(3, 2000, gen)
        y, t = geo.shell_step(base, lo, hi, gen)
        assert np.all((t >= lo) & (t <= hi))
        assert np.allclose(_chord_angle(base, y), t, rtol=0, atol=1e-12)
    assert WHOLE_S3.to_dict() == {"variant": "whole", "dim": 3}
    assert np.all(WHOLE_S3.contains(WHOLE_S3.sample(10, gen)))


def test_gluing_bound_takes_a_centre_concentric_with_itself():
    # a centre whose dot product with itself rounds below 1, where arccos
    # reads a gap of 1.5e-8, is still concentric with itself
    c = geo.SpherePoint(3, np.array([-0.3682164662052865, 0.4380300431627726,
                                     0.43862928307049404, -0.6929290492793436]))
    assert geo.geodesic_distances(c.coords[None, :], c.coords)[0] > 1e-12
    rep = energy.check_gluing_bound(
        maps.hopf_bump(c, 0.3), energy.Region(3, c, 0.0, 2.0),
        eta=0.5, rho=1.0, params=PARAMS_S3, center=c, n=2_000)
    assert rep.annulus_term.region.to_dict()["variant"] == "difference"


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_energy_of_constant_map_is_zero_exactly():
    u = maps.constant_map(3, [1.0, 0.0, 0.0])
    est = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 10_000, 0)
    assert est.value == 0.0 and est.std_error == 0.0 and est.tail_bound == 0.0


def test_energy_identity_s2_matches_closed_form():
    # s = 0.5, p = 4 on S^2 makes the integrand identically 1: E = (4 pi)^2
    params = energy.EnergyParams(s=0.5, p=4.0, n=2)
    est = energy.energy_mc(maps.identity_map(2), params, WHOLE_S2, 50_000, 1)
    exact = (4.0 * np.pi) ** 2
    # the estimator is exact up to roundoff here, so compare absolutely
    assert abs(est.value - exact) < 1e-6
    assert est.tail_bound < 1e-6


def test_energy_mc_deterministic_bitwise():
    u = maps.hopf_map()
    a = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 42)
    b = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 42)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.to_json() == b.to_json()


def test_energy_mc_seed_matters():
    u = maps.hopf_map()
    a = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 1)
    b = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 2)
    assert a.value != b.value


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_energy_mc_rejects_out_of_range_seeds(seed):
    # the seed is the first word of every stratum's uint64 Philox key
    with pytest.raises(ParameterError, match="seed"):
        energy.energy_mc(maps.hopf_map(), PARAMS_S3, WHOLE_S3, 20_000, seed)


def test_energy_mc_generator_seed_path():
    u = maps.hopf_map()
    est = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000,
                           np.random.default_rng(7))
    assert est.value > 0 and np.isfinite(est.value)


def test_energy_mc_validates_inputs():
    u = maps.hopf_map()
    with pytest.raises(ParameterError):
        energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 100, 0)  # too few samples
    with pytest.raises(ParameterError):
        energy.energy_mc(u, energy.EnergyParams(s=0.5, p=6.0, n=2),
                         WHOLE_S2, 10_000, 0)  # domain mismatch


def test_energy_mc_region_monotone():
    u = maps.hopf_map()
    e_ball = energy.energy_mc(u, PARAMS_S3, energy.Region(3, CENTER_S3, 0.0, 1.2),
                              100_000, 5)
    e_whole = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 100_000, 5)
    slack = 3 * (e_ball.std_error + e_whole.std_error)
    assert e_ball.value <= e_whole.value + slack


def test_energy_mc_se_scales_as_sqrt_n():
    u = maps.hopf_map()
    ses = [energy.energy_mc(u, PARAMS_S3, WHOLE_S3, n, 9).std_error
           for n in (50_000, 100_000, 200_000)]
    for a, b in zip(ses, ses[1:]):
        assert 1.15 < a / b < 1.75  # sqrt(2) with generous MC slack


def test_split_and_plain_estimators_agree():
    # the split path engages automatically for maps with x sources: a ball,
    # the Hopf tubes of v o h, and tubes plus a ball for a patched map
    for u in (maps.hopf_bump(CENTER_S3, 0.6), maps.prescribed_hopf_map(4),
              maps.prescribed_hopf_map(5)):
        plain = maps.SphereMap(u.domain_dim, u.codomain_dim, u.eval_many,
                               u.descriptor, lipschitz_hint=u.lipschitz_hint)
        assert plain.sources is None
        a = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 200_000, 3)
        b = energy.energy_mc(plain, PARAMS_S3, WHOLE_S3, 200_000, 4)
        assert {r.get("source") for r in a.strata_profile} == set(range(len(u.sources)))
        z = abs(a.value - b.value) / np.hypot(a.std_error, b.std_error)
        assert z < 4.0
        # the split estimator is the tighter one
        assert a.std_error < b.std_error


@pytest.mark.parametrize("s", [0.5, 0.8])
def test_energy_mc_agrees_with_the_tube_rule(s):
    # pooled over 8 seeds, the tube strata of v o h against the quadrature
    # that integrates over the same tubes; at s = 0.8 the unsampled inner
    # ball (tail_bound) stays far below one SE
    params = energy.EnergyParams(s, 3.0 / s, 3, critical=True)
    for d in (4, 25):
        u = maps.prescribed_hopf_map(d)
        q = energy.energy_quadrature(u, params, 1_000)
        ests = [energy.energy_mc(u, params, WHOLE_S3, 100_000, 200 + k)
                for k in range(8)]
        mean = np.mean([e.value for e in ests])
        se = np.sqrt(sum(e.std_error ** 2 for e in ests)) / len(ests)
        assert abs(mean - q) <= 3.0 * se, (d, mean, q, se)
        assert all(e.tail_bound < 0.1 * e.std_error for e in ests)


def test_energy_mc_allocation_spends_n_and_reproduces():
    for u in (maps.hopf_map(), maps.hopf_bump(CENTER_S3, 0.6),
              maps.prescribed_hopf_map(5)):
        a = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 8)
        rows = a.strata_profile
        assert sum(r["n"] + r["pilot"] for r in rows) == 20_000
        assert min(r["n"] for r in rows) >= 2
        assert len({r["pilot"] for r in rows}) == 1 and rows[0]["pilot"] >= 2
        # Neyman allocation: the shells that carry the energy get the samples
        assert max(r["n"] for r in rows) > 5 * min(r["n"] for r in rows)
        assert a.to_json() == energy.energy_mc(u, PARAMS_S3, WHOLE_S3,
                                               20_000, 8).to_json()


def test_energy_mc_even_split_when_every_stratum_is_flat():
    # constant, but declares no supports: every pilot sigma is 0
    u = maps.SphereMap(3, 2, lambda pts: np.tile([0.0, 0.0, 1.0], (len(pts), 1)),
                       {"variant": "flat", "params": {}}, lipschitz_hint=0.0)
    est = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 10_000, 0)
    main = [r["n"] for r in est.strata_profile]
    assert est.value == 0.0 and max(main) - min(main) <= 1
    assert sum(main) + sum(r["pilot"] for r in est.strata_profile) == 10_000


def test_energy_mc_hopf_relative_se_below_four_permille():
    est = energy.energy_mc(maps.hopf_map(), PARAMS_S3, WHOLE_S3, 250_000, 0)
    assert est.std_error / est.value < 4e-3


def test_energy_mc_hopf_mean_matches_closed_form():
    # <x, y> for y uniform on S^3 is uniform on the unit disc, which gives
    # E_{1/2,6}(h, S^3) = 25.6 pi^4; the unbiasedness anchor of energy_mc
    ests = [energy.energy_mc(maps.hopf_map(), PARAMS_S3, WHOLE_S3, 250_000,
                             100 + k) for k in range(8)]
    mean = np.mean([e.value for e in ests])
    se = np.sqrt(sum(e.std_error ** 2 for e in ests)) / len(ests)
    assert abs(mean - 25.6 * np.pi ** 4) <= 3.0 * se


@pytest.mark.parametrize("name, build, digest", [
    ("hopf", maps.hopf_map,
     "a6720702c6e21e352799b38f421c657e22648a0fd5c53e0cf466a2c82687c104"),
    ("bubbles2_hopf", lambda: maps.composed_with_hopf(maps.multi_bubble(2)),
     "548009dc2cfb0906f50e3ea1ff40df73409121693783e91d644bb7a54eafa059"),
    ("prescribed5", lambda: maps.prescribed_hopf_map(5),
     "53eae80b78a9510d4a22c08392f88d06a40dce5604d658be0e14f5fcb584384d"),
    ("bump_s3", lambda: maps.bump_deg1(CENTER_S3, 0.3, [1.0, 0.0, 0.0, 0.0]),
     "db43ffa5a0664573505f1dbfba376d4f48afb0911fb081c446e7f10e7a6b80b0"),
])
def test_energy_mc_json_is_pinned(name, build, digest):
    # the S^3 estimates as the chordal kernel wrote them before energy_mc
    # shared its driver with fiber_reduced_energy: sha256 of to_json
    est = energy.energy_mc(build(), PARAMS_S3, WHOLE_S3, 20_000, 3)
    assert hashlib.sha256(est.to_json().encode()).hexdigest() == digest, name


def test_hopf_energy_closed_form():
    assert math.isclose(energy.hopf_energy(0.5), 25.6 * np.pi ** 4, rel_tol=1e-15)
    # (1 - s) E_s(h) tends to 4 pi^4, the jet limit, as s -> 1
    assert math.isclose(energy.hopf_energy(0.99), 39196.8, rel_tol=1e-5)
    assert math.isclose(0.001 * energy.hopf_energy(0.999), 4.0 * np.pi ** 4,
                        rel_tol=5e-3)
    with pytest.raises(ParameterError):
        energy.hopf_energy(1.0)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.8, 0.9])
def test_hopf_energy_within_three_se_of_both_estimators(s):
    # the S^3 estimate of the Hopf map and the fiber reduction of the
    # identity of S^2 estimate the same closed form
    params = energy.EnergyParams(s, 3.0 / s, 3, critical=True)
    want = energy.hopf_energy(s)
    s3 = energy.energy_mc(maps.hopf_map(), params, WHOLE_S3, 250_000, 0)
    s2 = energy.fiber_reduced_energy(maps.identity_map(2), params, 250_000, 0)
    for est in (s3, s2):
        assert abs(est.value - want) <= 3.0 * est.std_error, (s, est.value, want)


def test_fiber_reduced_energy_reports_the_s3_energy():
    v = maps.multi_bubble(2)
    est = energy.fiber_reduced_energy(v, PARAMS_S3, 20_000, 3)
    again = energy.fiber_reduced_energy(v, PARAMS_S3, 20_000, 3)
    assert est.to_json() == again.to_json()
    assert est.params == PARAMS_S3 and est.region == WHOLE_S3
    assert est.n_samples == 20_000 and est.seed == 3
    # the strata are v's on S^2: one ball union, 40 shells
    assert [r["source"] for r in est.strata_profile] == [0] * energy.MC_SHELLS
    # the kernel is at most (pi^2 / 4) 6 / c^5: 3 pi^2 / 2 times the S^2 tail
    eps = est.strata_profile[-1]["t_lo"]
    s2 = energy.EnergyParams(0.5, 6.0, 2)
    tail = energy.lipschitz_tail_bound(v, s2, 2.0 * v.sources[0].measure(), eps)
    assert est.tail_bound == 1.5 * np.pi ** 2 * tail > 0.0


def test_fiber_kernel_lies_in_the_band_pi2_to_three_halves_pi2():
    # c^5 K(c) = (pi^2 / 4) (6 - c^2 / 2) for the chord c of every step t in
    # (0, pi], so pi^2 E(v, S^2) <= E(v o h, S^3) <= (3 pi^2 / 2) E(v, S^2);
    # near t = 0 the rounded value reads one ulp above 3 pi^2 / 2
    t = np.linspace(0.0, np.pi, 100_001)[1:]
    t = np.concatenate([np.pi * 2.0 ** -np.arange(1.0, 60.0), t])
    c = 2.0 * np.sin(0.5 * t)
    scaled = c ** 5 / energy._fiber_kernel_inverse(t)
    lo, hi = np.pi ** 2, 1.5 * np.pi ** 2
    assert np.all(scaled >= lo * (1.0 - 1e-14))
    assert np.all(scaled <= hi * (1.0 + 1e-14))
    assert math.isclose(scaled.min(), lo, rel_tol=1e-14)  # t = pi
    assert math.isclose(scaled.max(), hi, rel_tol=1e-14)  # t -> 0


def test_fiber_reduced_energy_validates_inputs():
    v = maps.multi_bubble(1)
    with pytest.raises(ParameterError, match="s\\*p = 3"):
        energy.fiber_reduced_energy(v, energy.EnergyParams(0.5, 5.0, 3), 20_000, 0)
    with pytest.raises(ParameterError, match="s\\*p = 3"):
        energy.fiber_reduced_energy(v, energy.EnergyParams(0.5, 6.0, 2), 20_000, 0)
    with pytest.raises(ParameterError, match="S\\^2"):
        energy.fiber_reduced_energy(maps.hopf_map(), PARAMS_S3, 20_000, 0)
    with pytest.raises(ParameterError):
        energy.fiber_reduced_energy(v, PARAMS_S3, 999, 0)


def test_energy_estimate_json_schema():
    u = maps.hopf_map()
    est = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 20_000, 0)
    parsed = json.loads(est.to_json())
    for key in ("value", "std_error", "n_samples", "s", "p", "n", "region",
                "seed", "tail_bound", "strata"):
        assert key in parsed
    assert parsed["n_samples"] == 20_000
    assert parsed["region"]["variant"] == "whole"


def test_tail_bound_requires_lipschitz_hint():
    u = maps.SphereMap(3, 2, maps.hopf_eval_many,
                       {"variant": "anon", "params": {}})
    with pytest.raises(ParameterError):
        energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 10_000, 0)


def test_tail_bound_is_small_and_positive():
    u = maps.hopf_map()
    est = energy.energy_mc(u, PARAMS_S3, WHOLE_S3, 10_000, 0)
    assert 0.0 < est.tail_bound < 1e-20 * est.value


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def test_quadrature_identity_anchor():
    params = energy.EnergyParams(s=0.5, p=4.0, n=2)
    q = energy.energy_quadrature(maps.identity_map(2), params, 2_000)
    exact = (4.0 * np.pi) ** 2
    assert abs(q - exact) / exact < 1e-6


def test_quadrature_oracle_is_pinned():
    # the inner rule turns with _kernels.oriented_frames at each outer node;
    # quaternion frames there moved these values by -0.11% to +0.28%
    s3 = energy.EnergyParams(0.5, 6.0, 3, critical=True)
    s2 = energy.EnergyParams(0.5, 6.0, 2)
    cases = [(maps.hopf_map(), s3, 2491.203889533289),
             (maps.composed_with_hopf(maps.multi_bubble(2)), s3, 28139.874472173222),
             (maps.multi_bubble(2), s2, 1937.4001417560137)]
    for u, params, want in cases:
        assert abs(energy.energy_quadrature(u, params, 1000) / want - 1.0) < 1e-13


def test_quadrature_matches_mc_on_hopf():
    q = energy.energy_quadrature(maps.hopf_map(), PARAMS_S3, 4_000)
    est = energy.energy_mc(maps.hopf_map(), PARAMS_S3, WHOLE_S3, 400_000, 17)
    z = abs(est.value - q) / est.std_error
    assert z < 4.0


def test_quadrature_budget_guard():
    with pytest.raises(ParameterError):
        energy.energy_quadrature(maps.hopf_map(), PARAMS_S3, 10 ** 9)


def test_quadrature_band_stop_keeps_the_s2_value():
    # the general path: only the certified band stop touches it
    params = energy.EnergyParams(s=0.5, p=6.0, n=2)
    q = energy.energy_quadrature(maps.multi_bubble(2), params, 1_000)
    assert abs(q - 1937.4001417560148) <= 1e-12 * 1937.4001417560148


def test_quadrature_hopf_one_node_matches_the_general_path():
    # |h(x) - h(y)|^2 = 4(1 - |<x,y>|^2) for the Hermitian product, and
    # <x,y> is uniform on the unit disk for y uniform on S^3; integrating
    # gives E_{1/2,6}(h, S^3) = 25.6 pi^4 exactly
    exact = 25.6 * np.pi ** 4
    h = maps.hopf_map()
    X, w = energy._quad_outer_nodes(h, 3, 1_000)
    assert X.shape == (1, 4) and w == geo.sphere_area(3)
    rot = geo.rotation_taking(geo.sphere_point([1.0, 0.0, 0.0, 0.0]),
                              geo.sphere_point([0.3, -0.5, 0.7, 0.4]))
    rotated = maps.precompose_rotation(h, rot)
    assert energy._quad_outer_nodes(rotated, 3, 1_000)[0].shape == (1_000, 4)
    one = energy.energy_quadrature(h, PARAMS_S3, 1_000)
    general = energy.energy_quadrature(rotated, PARAMS_S3, 1_000)
    assert abs(one - general) <= 5e-3 * general
    assert abs(one - exact) <= 2e-3 * exact
    assert abs(general - exact) <= 2e-3 * exact


def test_quadrature_tube_rule_converges():
    # v o h integrates x over its Hopf tubes only, 5 radii x 8 angles per
    # tube at resolution 1000, with weights that sum to the tubes' measure
    u = maps.composed_with_hopf(maps.multi_bubble(2))
    X, w = energy._quad_outer_nodes(u, 3, 1_000)
    assert X.shape == (80, 4) and np.all(u.sources[0].contains(X))
    assert abs(np.sum(w) - u.sources[0].measure()) <= 1e-12 * np.sum(w)
    assert energy._quad_outer_nodes(u, 3, 8_000)[0].shape == (320, 4)
    # the flipped map keeps the rule, on the moved tubes
    flipped = maps.precompose_flip(u)
    Xf, _ = energy._quad_outer_nodes(flipped, 3, 1_000)
    assert np.all(flipped.sources[0].contains(Xf))
    # within 0.3% of 12 x 24 nodes per tube, with the same inner rule
    for d in (4, 25):
        u = maps.prescribed_hopf_map(d)
        tubes = u.sources[0]
        for s in (0.5, 0.8):
            params = energy.EnergyParams(s, 3.0 / s, 3, critical=True)
            q = energy.energy_quadrature(u, params, 1_000)
            ref = energy._quad_rule(u, params, *tubes.nodes(12, 24), 48,
                                    energy._pair_weight(u.sources))
            assert abs(q - ref) <= 3e-3 * ref, (d, s, q, ref)


def test_quadrature_does_not_depend_on_the_block_size(monkeypatch):
    cases = [
        (maps.hopf_map(), PARAMS_S3, 1_000),
        (maps.composed_with_hopf(maps.multi_bubble(2)), PARAMS_S3, 1_000),
        (maps.multi_bubble(2), energy.EnergyParams(s=0.5, p=6.0, n=2), 300),
    ]
    wide = [energy.energy_quadrature(u, p, r) for u, p, r in cases]
    monkeypatch.setattr(energy, "QUAD_BLOCK", 500)
    narrow = [energy.energy_quadrature(u, p, r) for u, p, r in cases]
    for a, b in zip(wide, narrow):
        assert abs(a - b) <= 1e-12 * abs(a)


def test_quadrature_without_lipschitz_hint_runs_every_band():
    seen = []

    def counted(pts):
        seen.append(pts.shape[0])
        return maps.hopf_eval_many(pts)

    desc = {"variant": "anon", "params": {}}
    resolution, angular = 50, 48  # energy_quadrature's angular points at 50
    bare = maps.SphereMap(3, 2, counted, desc)
    q_bare = energy.energy_quadrature(bare, PARAMS_S3, resolution)
    every_band = resolution * (1 + energy.QUAD_MIN_BAND_EXP * 4 * angular)
    assert sum(seen) == every_band
    seen.clear()
    hinted = maps.SphereMap(3, 2, counted, desc, lipschitz_hint=2.0)
    q_hinted = energy.energy_quadrature(hinted, PARAMS_S3, resolution)
    assert sum(seen) < every_band
    assert abs(q_bare - q_hinted) <= 1e-12 * q_bare


def _redeclared(u, basepoint=None, sources=None):
    """u's values under its own descriptor and hint, with the given basepoint
    and sources; returns the map and a list of its eval_many batch sizes."""
    seen = []

    def counted(pts):
        seen.append(pts.shape[0])
        return u.eval_many(pts)

    return maps.SphereMap(u.domain_dim, u.codomain_dim, counted, u.descriptor,
                          lipschitz_hint=u.lipschitz_hint, basepoint=basepoint,
                          sources=sources), seen


@pytest.mark.parametrize("build, params", [
    (lambda: maps.multi_bubble(2), energy.EnergyParams(s=0.5, p=6.0, n=2)),
    (lambda: maps.multi_bubble(5), energy.EnergyParams(s=0.5, p=6.0, n=2)),
    (lambda: maps.hopf_bump(CENTER_S3, 0.3), PARAMS_S3),
    (lambda: maps.bump_deg1(CENTER_S3, 0.3, [1.0, 0.0, 0.0, 0.0]), PARAMS_S3),
    (lambda: maps.composed_with_hopf(maps.multi_bubble(2)), PARAMS_S3),
    (lambda: maps.prescribed_hopf_map(25), PARAMS_S3),
    (lambda: maps.prescribed_hopf_map(5), PARAMS_S3),
    # d = 5's Hopf bump is too small for 300 nodes to see; d = 2's is not
    (lambda: maps.prescribed_hopf_map(2), PARAMS_S3),
    (lambda: maps.precompose_flip(maps.composed_with_hopf(maps.multi_bubble(2))),
     PARAMS_S3),
], ids=["bubbles2_s2", "bubbles5_s2", "hopf_bump", "bump_s3", "bubbles2_hopf",
        "prescribed25", "prescribed5_patched", "prescribed2_patched",
        "flipped_bubbles2_hopf"])
def test_quadrature_support_pruning_is_exact(build, params):
    # the pruned pairs are exact zeros, so only the summation order moves;
    # both run energy_quadrature's lattice rule at 300 (48 directions),
    # since a map with tube sources alone would run the tube rule
    u = build()
    pruned, seen_pruned = _redeclared(u, u.basepoint, u.sources)
    full, seen_full = _redeclared(u, basepoint=u.basepoint)
    X, w = geo.sphere_lattice(params.n, 300), geo.sphere_area(params.n) / 300
    q = energy._quad_rule(pruned, params, X, w, 48)
    q_full = energy._quad_rule(full, params, X, w, 48)
    assert abs(q - q_full) <= 1e-12 * q_full
    assert sum(seen_pruned) < sum(seen_full)


def test_quadrature_support_pruning_skips_most_points():
    u = maps.multi_bubble(2)
    params = energy.EnergyParams(s=0.5, p=6.0, n=2)
    pruned, seen_pruned = _redeclared(u, u.basepoint, u.sources)
    full, seen_full = _redeclared(u, basepoint=u.basepoint)
    energy.energy_quadrature(pruned, params, 1_000)
    energy.energy_quadrature(full, params, 1_000)
    assert sum(seen_pruned) <= 0.4 * sum(seen_full)


# ---------------------------------------------------------------------------
# Inequality checks
# ---------------------------------------------------------------------------

def test_gluing_bound_holds_for_hopf_bump():
    u = maps.hopf_bump(CENTER_S3, 0.6)
    ball = u.supports[0]
    rep = energy.check_gluing_bound(
        u, WHOLE_S3, eta=0.5, rho=min(2 * ball.radius, 2.0),
        params=PARAMS_S3, center=ball.center, n=60_000, seed=1,
    )
    assert rep.holds
    assert np.isfinite(rep.c_star)


def test_gluing_bound_validates_eta():
    u = maps.hopf_bump(CENTER_S3, 0.6)
    with pytest.raises(ParameterError):
        energy.check_gluing_bound(u, WHOLE_S3, eta=1.5, rho=1.0,
                                  params=PARAMS_S3,
                                  center=u.supports[0].center, n=10_000)


def test_gluing_bound_needs_the_annulus_inside_the_region():
    u = maps.hopf_bump(CENTER_S3, 0.6)
    other = geo.sphere_point([1.0, 0.0, 0.0, 0.0])
    for A in (energy.Region(3, CENTER_S3, 0.0, 1.0),   # rho beyond A
              energy.Region(3, other, 0.0, 2.0),       # another center
              energy.Region(3, CENTER_S3, 0.5)):       # eta rho inside the hole
        with pytest.raises(ParameterError):
            energy.check_gluing_bound(u, A, eta=0.25, rho=1.5, params=PARAMS_S3,
                                      center=CENTER_S3, n=10_000)


def test_patching_bound_holds_for_prescribed_7():
    u7 = maps.prescribed_hopf_map(7)
    pieces = [maps.map_from_descriptor(c) for c in u7.descriptor["children"]]
    rep = energy.check_patching_bound(pieces, u7, PARAMS_S3, n=60_000, seed=2)
    assert rep.holds
    assert rep.ratio < 1.0  # 2^p slack is enormous; the raw sum already wins


def test_patching_bound_rejects_wrong_pieces():
    u7 = maps.prescribed_hopf_map(7)
    with pytest.raises(ParameterError):
        energy.check_patching_bound([maps.hopf_map()], u7, PARAMS_S3,
                                    n=10_000)


def test_bump_energy_r_independent():
    ests = [energy.energy_mc(maps.hopf_bump(CENTER_S3, r), PARAMS_S3,
                             WHOLE_S3, 150_000, 11) for r in (0.1, 0.3)]
    diff = abs(ests[0].value - ests[1].value)
    combined = float(np.hypot(ests[0].std_error, ests[1].std_error))
    assert diff <= 3 * combined
