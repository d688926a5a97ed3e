"""Degree certification and Hopf invariants by fiber linking."""

import copy
import json

import numpy as np
import pytest

from hopflab import geometry as geo
from hopflab import maps, topology
from hopflab.errors import ParameterError, SupportError

TRACE_STEP = 2e-3  # coarse enough to keep the suite quick, residuals ~1e-4


# ---------------------------------------------------------------------------
# Tangential Jacobians
# ---------------------------------------------------------------------------

def test_finite_difference_jacobian_matches_closed_form(monkeypatch):
    # the Hopf map without its analytic Jacobian takes the stencil branch
    fd = maps.SphereMap(3, 2, maps.hopf_eval_many,
                        {"variant": "hopf_fd", "params": {}, "children": []})
    assert fd.jacobian_many is None
    pts = geo.sphere_lattice(3, 1000)
    D, E, vals = topology.tangential_jacobian(fd, pts)
    D_exact, E_exact, vals_exact = topology.tangential_jacobian(maps.hopf_map(), pts)
    assert np.array_equal(E, E_exact) and np.array_equal(vals, vals_exact)
    assert np.max(np.abs(D - D_exact)) < 1e-8
    # the stacked stencil never mixes rows: each row of the batched call is
    # bitwise the one-point call on that point
    for i, x in enumerate(pts):
        D1, E1, vals1 = topology.tangential_jacobian(fd, x[None, :])
        assert np.array_equal(D1[0], D[i])
        assert np.array_equal(E1[0], E[i])
        assert np.array_equal(vals1[0], vals[i])
    # nor does splitting the batch into stencil blocks, the last one partial
    monkeypatch.setattr(topology, "_FD_BLOCK", 64)
    D64, _, vals64 = topology.tangential_jacobian(fd, pts)
    assert np.array_equal(D64, D) and np.array_equal(vals64, vals)


# ---------------------------------------------------------------------------
# Mapping degree by Jacobian integration
# ---------------------------------------------------------------------------

def test_degree_identity_and_constant():
    for m in (2, 3):
        rep = topology.mapping_degree(maps.identity_map(m), 50_000)
        assert rep.value == 1 and rep.residual < 0.05
    rep0 = topology.mapping_degree(maps.constant_map(2, [1.0, 0.0, 0.0]),
                                   50_000)
    assert rep0.value == 0


def test_degree_equator_collapse():
    # degree 1 + (-1)^(m+1): 0 on S^2, 2 on S^3
    assert topology.mapping_degree(maps.equator_collapse(2), 100_000).value == 0
    assert topology.mapping_degree(maps.equator_collapse(3), 100_000).value == 2


def test_degree_bumps_all_radii_and_dims():
    for m, center, b in ((2, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
                         (3, [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0])):
        for r in (0.1, 0.3, 0.7):
            f = maps.bump_deg1(geo.sphere_point(center), r, b)
            rep = topology.mapping_degree(f, 100_000)
            assert rep.value == 1, (m, r, rep)
            assert rep.residual < 0.05


def test_degree_multi_bubble():
    for k in (1, 2, 5, 9):
        rep = topology.mapping_degree(maps.multi_bubble(k), 100_000)
        assert rep.value == k and rep.residual < 0.05


def test_degree_doubling_grid_is_stable():
    f = maps.multi_bubble(3)
    assert (topology.mapping_degree(f, 50_000).value
            == topology.mapping_degree(f, 100_000).value)


def test_degree_report_json():
    rep = topology.mapping_degree(maps.identity_map(2), 50_000)
    parsed = json.loads(rep.to_json())
    assert parsed["value"] == 1 and "residual" in parsed


# ---------------------------------------------------------------------------
# Closed curves and Gauss linking
# ---------------------------------------------------------------------------

def _hopf_circles(n=800):
    c1 = maps.fiber_circle(geo.sphere_point([0.0, 0.0, 1.0]), n)
    c2 = maps.fiber_circle(geo.sphere_point([0.0, 0.0, -1.0]), n)
    tol = 2 * np.pi / n * 1.1
    return (topology.ClosedCurve(c1, tol), topology.ClosedCurve(c2, tol))


def test_closed_curve_rejects_gaps():
    pts = maps.fiber_circle(geo.sphere_point([0.0, 0.0, 1.0]), 64)
    with pytest.raises(ParameterError):
        topology.ClosedCurve(pts[::8], tolerance=0.01)  # nodes too far apart


def test_gauss_linking_hopf_fibers_is_one():
    c1, c2 = _hopf_circles()
    rep = topology.gauss_linking(c1, c2)
    assert rep.value == 1
    assert rep.residual < 0.05


def test_gauss_linking_symmetry_is_exact():
    c1, c2 = _hopf_circles(500)
    a = topology.gauss_linking(c1, c2)
    b = topology.gauss_linking(c2, c1)
    assert a.raw == b.raw  # bitwise, not approximate


def test_gauss_linking_reversal_negates():
    c1, c2 = _hopf_circles(500)
    a = topology.gauss_linking(c1, c2)
    b = topology.gauss_linking(c1.reversed_(), c2)
    assert np.isclose(a.raw, -b.raw, rtol=1e-12, atol=1e-12)


def test_gauss_linking_unlinked_circles():
    # two small fibers over nearby base points never link
    z1 = geo.sphere_point([0.0, 0.1, np.sqrt(0.99)])
    z2 = geo.sphere_point([0.1, 0.0, np.sqrt(0.99)])
    n = 600
    tol = 2 * np.pi / n * 1.1
    c1 = topology.ClosedCurve(maps.fiber_circle(z1, n), tol)
    c2 = topology.ClosedCurve(maps.fiber_circle(z2, n), tol)
    rep = topology.gauss_linking(c1, c2)
    assert rep.value == 1  # distinct Hopf fibers always link once


# ---------------------------------------------------------------------------
# Fiber tracing and the Hopf invariant
# ---------------------------------------------------------------------------

def test_trace_fiber_recovers_hopf_circle():
    h = maps.hopf_map()
    z = geo.sphere_point([0.2, 0.3, np.sqrt(1 - 0.13)])
    seeds = maps.fiber_circle(z, 8)
    curves = topology.trace_fiber(h, z, seeds, step=TRACE_STEP)
    assert len(curves) == 1
    pts = curves[0].points
    # every traced node stays on the true fiber
    vals = h.eval_many(pts)
    assert np.max(np.linalg.norm(vals - z.coords, axis=1)) < 1e-6
    # arc length of a great circle
    seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    assert abs(seg.sum() - 2 * np.pi) < 0.01


def test_trace_fiber_reuses_the_corrector_jacobian(monkeypatch):
    # Hopf fibers are great circles, so each predictor step lands on the
    # fiber and the corrector's one Jacobian there also serves the next
    # predictor step: about one Jacobian per traced point
    calls = []
    jacobian = topology.tangential_jacobian

    def counted(f, pts):
        calls.append(len(pts))
        return jacobian(f, pts)

    monkeypatch.setattr(topology, "tangential_jacobian", counted)
    h = maps.hopf_map()
    z = geo.sphere_point([0.2, 0.3, np.sqrt(1 - 0.13)])
    seeds = maps.fiber_circle(z, 8)
    curves = topology.trace_fiber(h, z, seeds, step=TRACE_STEP)
    n_points = sum(c.points.shape[0] for c in curves)
    assert n_points > 1000
    assert len(calls) <= n_points + 2 * len(seeds)


def test_hopf_invariant_of_hopf_map():
    rep = topology.hopf_invariant(maps.hopf_map(), step=TRACE_STEP)
    assert rep.value == 1
    assert rep.residual < 0.05


def test_hopf_invariant_rotation_invariance():
    # rotations are degree-one self-maps homotopic to the identity
    gen = np.random.default_rng(2)
    a = geo.sphere_point(gen.normal(size=4))
    b = geo.sphere_point(gen.normal(size=4))
    rot = geo.rotation_taking(a, b)
    u = maps.precompose_rotation(maps.hopf_map(), rot)
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == 1
    assert rep.residual < 0.05


def test_hopf_invariant_composition_squares():
    # deg_H(v o h) = (deg v)^2
    u = maps.composed_with_hopf(maps.multi_bubble(2))
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == 4
    assert rep.residual < 0.05


def test_hopf_invariant_flip_negates():
    u = maps.precompose_flip(maps.hopf_map())
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == -1
    assert rep.residual < 0.05


def test_hopf_invariant_patched_adds():
    rep = topology.hopf_invariant(maps.prescribed_hopf_map(2),
                                  step=TRACE_STEP)
    assert rep.value == 2
    assert rep.residual < 0.05


@pytest.mark.parametrize("v", [
    maps.identity_map(2),
    # hand-built: no descriptor variant certification could rebuild it from
    maps.SphereMap(2, 2, lambda p: p.copy(),
                   {"variant": "bare", "params": {}, "children": []},
                   lipschitz_hint=1.0),
], ids=["identity", "hand-built"])
def test_hopf_invariant_identity_composed_with_hopf(v):
    # identity o h is h; v declares no supports, so its preimages come from
    # a search over the whole of S^2
    u = maps.composed_with_hopf(v)
    rep = topology.hopf_invariant(u, step=4e-3)
    assert rep.value == 1
    assert rep.residual < 0.05


def test_hopf_invariant_collapse_composed_with_hopf_cancels():
    # the collapse on S^2 has two preimages of opposite orientation; their
    # fibers cancel only when both are traced, one alone reads +-1
    u = maps.composed_with_hopf(maps.equator_collapse(2))
    rep = topology.hopf_invariant(u, step=4e-3)
    assert rep.value == u.degree == 0
    assert rep.residual < 0.05


def test_hopf_invariant_rejects_wrong_dims():
    with pytest.raises(ParameterError):
        topology.hopf_invariant(maps.identity_map(2))


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

def _two_bumps_on_s2():
    b = [1.0, 0.0, 0.0]
    bumps = [maps.bump_deg1(c, 0.3, b) for c in ([0.0, 0.0, 1.0],
                                                 [0.0, 0.0, -1.0])]
    return maps.patch_maps([(f, f.supports[0]) for f in bumps], b)


def test_bookkept_degrees_of_builders():
    rot = geo.rotation_taking(geo.sphere_point([0.0, 0.0, 1.0]),
                              geo.sphere_point([0.0, 1.0, 0.0]))
    cases = [
        (maps.constant_map(3, [1.0, 0.0, 0.0]), 0),
        (maps.identity_map(2), 1),
        (maps.identity_map(3), 1),
        (maps.hopf_map(), 1),
        (maps.equator_collapse(2), 0),
        (maps.equator_collapse(3), 2),
        (maps.bump_deg1([0.0, 0.0, 1.0], 0.3, [1.0, 0.0, 0.0]), 1),
        (maps.multi_bubble(4), 4),
        (maps.composed_with_hopf(maps.multi_bubble(3)), 9),
        (maps.hopf_bump(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.4), 1),
        (_two_bumps_on_s2(), 2),
        (maps.precompose_rotation(maps.multi_bubble(2), rot), 2),
        (maps.precompose_flip(maps.multi_bubble(3)), -3),
    ]
    for u, want in cases:
        assert u.degree == want, u.descriptor["variant"]
        assert topology.bookkept_degree(u.descriptor).value == want
    # a hand-built map has no bookkept degree, nor has anything built on it
    bare = maps.SphereMap(2, 2, lambda pts: pts.copy(),
                          {"variant": "bare", "params": {}, "children": []})
    assert maps.composed_with_hopf(bare).degree is None


def test_bookkept_degree_rejects_overlapping_supports():
    desc = copy.deepcopy(_two_bumps_on_s2().descriptor)
    desc["params"]["supports"][1] = desc["params"]["supports"][0]
    desc["children"][2] = desc["children"][1]
    with pytest.raises(SupportError):
        topology.bookkept_degree(desc)


def test_bookkept_prescribed_all_values():
    for d in (0, 1, 2, 5, 7, 9, -3, -8, 12):
        u = maps.prescribed_hopf_map(d)
        assert topology.bookkept_degree(u.descriptor).value == d


def test_bookkept_flip_negates():
    u = maps.precompose_flip(maps.prescribed_hopf_map(5))
    assert topology.bookkept_degree(u.descriptor).value == -5


@pytest.mark.parametrize("matrix", [
    np.diag([-1.0, 1.0, 1.0, 1.0]),  # a reflection, not a rotation
    2.0 * np.eye(4),  # not orthogonal: values would leave S^2
], ids=["reflection", "scaled"])
def test_bookkept_degree_rejects_non_rotation_matrix(matrix):
    desc = {"variant": "precompose_rotation",
            "params": {"matrix": matrix.tolist()},
            "children": [maps.hopf_map().descriptor]}
    with pytest.raises(ParameterError):
        topology.bookkept_degree(desc)


def test_bookkept_rotation_keeps():
    rot = geo.rotation_taking(geo.sphere_point([0.0, 0.0, 0.0, 1.0]),
                              geo.sphere_point([0.0, 1.0, 0.0, 0.0]))
    u = maps.precompose_rotation(maps.prescribed_hopf_map(4), rot)
    assert topology.bookkept_degree(u.descriptor).value == 4
