"""Degree certification and Hopf invariants by fiber linking."""

import copy
import json
import tracemalloc

import numpy as np
import pytest

from hopflab import geometry as geo
from hopflab import maps, topology
from hopflab.errors import (IllConditionedLinkingError, ParameterError,
                            SupportError)

TRACE_STEP = 2e-3  # initial arc step; exact linking leaves rounding-level residuals


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


def _stencil_twin(f):
    """f without its closed-form Jacobian: the same values and sources, on
    the stencil."""
    return maps.SphereMap(f.domain_dim, f.codomain_dim, f.eval_many, f.descriptor,
                          basepoint=f.basepoint, sources=f.sources)


def _continued(u, i):
    """Kernel i of a ball-masked map on the whole sphere: its bump continued
    smoothly past the seam, where the masked map has a kink, so that a
    stencil straddling the seam still differentiates the inside branch."""
    return maps.SphereMap(u.domain_dim, u.codomain_dim, u._eval_many.kernels[i],
                          {"variant": "kernel", "params": {}, "children": []})


def _ball_points(ball, n, t_lo, t_hi, rng):
    """n points at geodesic distances in [t_lo, t_hi] from the ball's center."""
    c = np.broadcast_to(ball.center.coords, (n, ball.center.coords.size)).copy()
    return geo.geodesic_step(c, geo.tangent_directions(c, rng), rng.uniform(t_lo, t_hi, n))


def _bump_case(m, r):
    center = [0.0, 0.6, 0.8] if m == 2 else [0.0, 0.0, 0.6, 0.8]
    b = np.eye(m + 1)[0]
    u = maps.bump_deg1(np.array(center), r, b)
    return u, [_continued(u, 0)]


def _bubbles_case(k):
    u = maps.multi_bubble(k)
    return u, [_continued(u, i) for i in range(k)]


def _moved_bubbles_case(move):
    u = maps.multi_bubble(3)
    return move(u), [move(_continued(u, i)) for i in range(3)]


def _rotate(u):
    rot = geo.rotation_taking(geo.sphere_point([0.0, 0.0, 1.0]),
                              geo.sphere_point([0.6, 0.0, 0.8]))
    return maps.precompose_rotation(u, rot)


JACOBIAN_CASES = {
    **{f"bump_s{m}_r{r}": (lambda m=m, r=r: _bump_case(m, r))
       for m in (2, 3) for r in (0.1, 0.3, 0.7)},
    **{f"bubbles{k}": (lambda k=k: _bubbles_case(k)) for k in (1, 2, 9)},
    "rotated_bubbles3": lambda: _moved_bubbles_case(_rotate),
    "flipped_bubbles3": lambda: _moved_bubbles_case(maps.precompose_flip),
    **{f"identity_s{m}": (lambda m=m: (maps.identity_map(m), [])) for m in (2, 3)},
    **{f"collapse_s{m}": (lambda m=m: (maps.equator_collapse(m), [])) for m in (2, 3)},
}


@pytest.mark.parametrize("case", list(JACOBIAN_CASES))
def test_closed_form_jacobians_match_the_stencil(case):
    f, continued = JACOBIAN_CASES[case]()
    assert f.jacobian_many is not None
    rng = np.random.default_rng(7)
    # the stencil's truncation error grows with the map's derivatives, to
    # 1.5e-7 at the r = 0.1 bump's center, where |D| reaches 20 = 2/r
    tol = 1e-7 * f.lipschitz_hint
    if f.supports is None:
        pts = geo.sample_uniform_many(f.domain_dim, 400, rng)
    else:  # interior points, out of the stencil's reach of the seam
        pts = np.concatenate([_ball_points(b, 100, 0.0, b.radius - 1e-4, rng)
                              for b in f.supports])
    D, E, vals = topology.tangential_jacobian(f, pts)
    D_fd, E_fd, vals_fd = topology.tangential_jacobian(_stencil_twin(f), pts)
    assert np.array_equal(E, E_fd) and np.array_equal(vals, vals_fd)
    assert np.max(np.abs(D - D_fd)) < tol
    # the degree integrand is det D, without a codomain frame
    assert np.allclose(topology._jacobian_density(f, pts), np.linalg.det(D),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(topology._jacobian_density(_stencil_twin(f), pts),
                       np.linalg.det(D_fd), rtol=1e-12, atol=1e-12)
    for ball, smooth in zip(f.supports or [], continued):
        seam = _ball_points(ball, 50, ball.radius - 1e-9, ball.radius - 1e-9, rng)
        D_seam, _, _ = topology.tangential_jacobian(f, seam)
        D_smooth, _, _ = topology.tangential_jacobian(smooth, seam)
        assert np.max(np.abs(D_seam - D_smooth)) < tol
        past = _ball_points(ball, 50, ball.radius + 1e-9, ball.radius + 1e-9, rng)
        assert not np.any(f.jacobian_many(past))
    if f.supports is not None:
        x = geo.sample_uniform_many(f.domain_dim, 2000, rng)
        off = f.support_gap(x) > 0.0
        assert 0 < off.sum() and not np.any(f.jacobian_many(x[off]))
    # rows never mix: each is bitwise the one-point call, and split batches
    # give the whole batch's bits
    for i, x in enumerate(pts[:40]):
        D1, E1, vals1 = topology.tangential_jacobian(f, x[None, :])
        assert np.array_equal(D1[0], D[i]) and np.array_equal(vals1[0], vals[i])
    parts = [topology.tangential_jacobian(f, p)[0] for p in np.split(pts, [37, 150])]
    assert np.array_equal(np.concatenate(parts), D)


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


def test_degree_raws_are_exact_to_rounding():
    # run_verify's fifteen degree cases at the default budget; with
    # closed-form Jacobians only the quadrature and rounding are left
    cases = [(maps.bump_deg1(geo.sphere_point(center), r, b), 1)
             for center, b in (([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
                               ([0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]))
             for r in (0.1, 0.3, 0.7)]
    cases += [(maps.multi_bubble(k), k) for k in range(1, 10)]
    for f, want in cases:
        rep = topology.mapping_degree(f)
        assert rep.value == want and rep.residual < 1e-10, (f.descriptor["variant"], rep)


def test_degree_on_the_stencil():
    # maps without jacobian_many: support balls, then the whole-sphere lattice
    rep = topology.mapping_degree(_stencil_twin(maps.multi_bubble(3)), 50_000)
    assert rep.value == 3 and rep.residual < 0.05
    rep = topology.mapping_degree(maps.SphereMap(
        3, 3, maps.equator_collapse(3).eval_many, {"variant": "collapse_fd"}), 50_000)
    assert rep.value == 2 and rep.residual < 0.05


def test_sources_of_balls_alone_declare_the_supports():
    # a hand-built map that declares only ball sources and a basepoint
    v = maps.multi_bubble(3)
    balls = v.supports
    seen = []

    def counted(pts):
        seen.append(pts)
        return v.eval_many(pts)

    u = maps.SphereMap(2, 2, counted, {"variant": "hand_built"},
                       basepoint=v.basepoint, sources=[geo.BallUnion(balls)])
    assert u.supports == balls
    grid = 30_000
    rep = topology.mapping_degree(u, grid)
    assert rep.value == 3 and rep.residual < 0.05
    # the degree integral ran over the balls (and their stencil), not over a
    # whole-sphere lattice of grid nodes, each evaluated 2m + 1 times
    pts = np.concatenate(seen)
    assert pts.shape[0] < 5 * grid
    assert np.all(u.support_gap(pts) < 1e-4)
    tubes, = maps.composed_with_hopf(u).sources
    assert isinstance(tubes, maps.HopfTubes) and tubes.balls == balls


# tracemalloc peak of the default S^3 bump degree when each ring's nodes
# were stacked with their stencil neighbours in one array (numpy 2.4)
STENCIL_DEGREE_PEAK = 8_615_792


def test_degree_integral_memory_stays_blocked():
    f = maps.bump_deg1(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.3,
                       [1.0, 0.0, 0.0, 0.0])
    topology.mapping_degree(f, 2_000)  # one-time allocations stay outside
    tracemalloc.start()
    try:
        topology.mapping_degree(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= STENCIL_DEGREE_PEAK


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
    assert rep.residual < 1e-9


def test_gauss_linking_symmetry_is_exact():
    c1, c2 = _hopf_circles(500)
    a = topology.gauss_linking(c1, c2)
    b = topology.gauss_linking(c2, c1)
    assert a.raw == b.raw  # bitwise, not approximate


def test_gauss_linking_reversal_negates():
    c1, c2 = _hopf_circles(500)
    a = topology.gauss_linking(c1, c2)
    b = topology.gauss_linking(
        topology.ClosedCurve(c1.points[::-1].copy(), c1.tolerance), c2)
    assert np.isclose(a.raw, -b.raw, rtol=1e-12, atol=1e-12)


def test_gauss_linking_guard_rejects_coarse_close_polygons():
    # 16-gons on the Hopf fibers over targets 0.2 apart: the polygons come
    # within 0.09 of each other, inside 5x their chord deviation bounds
    # (about 0.09 together), so their exact sum need not be the curves'
    # linking number; 400-gons of the same fibers pass and read 1
    z1 = geo.sphere_point([0.0, 0.0, 1.0])
    z2 = geo.sphere_point([np.sin(0.2), 0.0, np.cos(0.2)])
    coarse = [topology.ClosedCurve(maps.fiber_circle(z, 16), 1.0) for z in (z1, z2)]
    with pytest.raises(IllConditionedLinkingError, match="deviation bound"):
        topology.gauss_linking(*coarse)
    fine = [topology.ClosedCurve(maps.fiber_circle(z, 400), 0.1) for z in (z1, z2)]
    rep = topology.gauss_linking(*fine)
    assert rep.value == 1 and rep.residual < 1e-9


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
    # fiber: no step is rejected, the arc step doubles up to FIBER_MAX_STEP,
    # and the corrector's one Jacobian there also serves the next predictor
    # step: about one Jacobian per traced point
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
    doublings = int(np.ceil(np.log2(topology.FIBER_MAX_STEP / TRACE_STEP)))
    assert 2 * np.pi / topology.FIBER_MAX_STEP < n_points
    assert n_points <= 2 * np.pi / topology.FIBER_MAX_STEP + doublings + 1
    assert len(calls) <= n_points + 2 * len(seeds)


@pytest.mark.parametrize("step", [5e-4, 2e-4])
def test_tracing_below_the_chord_sagitta_goes_round_once(step):
    # a 0.1 rad chord of a great circle lies 1.25e-3 from its arc, farther
    # than 2 step and 3 step here; closing and drop radii without that
    # sagitta let curves run extra laps before closing (the Hopf map read 9)
    # and kept duplicate lattice starts (16 to 64)
    h = maps.hopf_map()
    bare = maps.SphereMap(3, 2, maps.hopf_eval_many,
                          {"variant": "bare", "params": {}, "children": []},
                          jacobian_many=h.jacobian_many)
    seeds = geo.kronecker_lattice_s3(256)
    doublings = int(np.ceil(np.log2(topology.FIBER_MAX_STEP / step)))
    for seed in range(3):
        rep = topology.hopf_invariant(h, step=step, seed=seed)
        assert rep.value == 1 and rep.residual < 1e-9, seed
        z1, z2 = topology._pick_targets(bare, np.random.default_rng(seed))
        both = topology._trace_fibers(bare, (z1, z2), (seeds, seeds), step)
        assert [len(c) for c in both] == [1, 1], seed
        for (c,) in both:
            n = c.points.shape[0]
            assert n <= 2 * np.pi / topology.FIBER_MAX_STEP + doublings + 1


def test_trace_fiber_traces_each_component_once_from_its_first_seed():
    # v o h with two bubbles: the fiber over z is two Hopf circles, and the
    # map's own rule seeds each of them with several points
    u = maps.composed_with_hopf(maps.multi_bubble(2))
    z, _ = topology._pick_targets(u, np.random.default_rng(0))
    seeds, step = np.array(u.fiber_seeds(z)), 4e-3
    curves = topology.trace_fiber(u, z, seeds, step=step)
    assert len(curves) == 2
    # each seed lies on exactly one traced curve
    owner = [[k for k, c in enumerate(curves)
              if np.min(np.linalg.norm(c.points - s, axis=1)) < 3 * step]
             for s in seeds]
    assert all(len(o) == 1 for o in owner)
    first = [[o[0] for o in owner].index(k) for k in range(len(curves))]
    assert first == sorted(first)
    for k, c in enumerate(curves):
        x0 = seeds[first[k]] / np.linalg.norm(seeds[first[k]])
        assert np.max(np.abs(c.points[0] - x0)) < 1e-9


def test_trace_fiber_keeps_distinct_components_apart():
    # 20 bubbles o h: each fiber is 20 Hopf circles, one seed each, some
    # under 0.3 apart; a drop radius that grew with the arc step (3 h, up
    # to 0.3) merged such circles on most of these seeds
    u = maps.composed_with_hopf(maps.multi_bubble(20))
    for seed in range(10):
        z1, z2 = topology._pick_targets(u, np.random.default_rng(seed))
        both = topology._trace_fibers(u, (z1, z2), (u.fiber_seeds(z1),
                                                    u.fiber_seeds(z2)), 4e-3)
        assert [len(c) for c in both] == [20, 20], seed


def test_hopf_bump_fibers_are_traced_once():
    # 64 ball-grid seeds all correct onto the one fiber component of a Hopf
    # bump, and every duplicate start of it is dropped, also at a step below
    # the sagitta of a 0.1 rad chord
    u = maps.hopf_bump(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.3)
    for seed, step in [(s, 4e-3) for s in range(10)] + [(0, 3e-4)]:
        z1, z2 = topology._pick_targets(u, np.random.default_rng(seed))
        both = topology._trace_fibers(u, (z1, z2), (u.fiber_seeds(z1),
                                                    u.fiber_seeds(z2)), step)
        assert [len(c) for c in both] == [1, 1], (seed, step)


@pytest.mark.parametrize("u", [
    maps.composed_with_hopf(maps.multi_bubble(2)),
    maps.hopf_bump(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.3),
], ids=["bubbles-o-hopf", "hopf-bump"])
def test_lockstep_tracing_matches_one_target_calls(u):
    # both fibers in one batch give the curves of two separate calls, point
    # for point: rows of the batched predictor-corrector never mix
    z1, z2 = topology._pick_targets(u, np.random.default_rng(1))
    both = topology._trace_fibers(u, (z1, z2), (u.fiber_seeds(z1),
                                                u.fiber_seeds(z2)), 4e-3)
    for z, curves in zip((z1, z2), both):
        alone = topology.trace_fiber(u, z, u.fiber_seeds(z), step=4e-3)
        assert len(alone) == len(curves) > 0
        for a, b in zip(alone, curves):
            assert a.points.shape == b.points.shape
            assert np.max(np.abs(a.points - b.points)) < 1e-12


def test_hopf_invariant_of_a_map_without_seed_rule():
    # a hand-built Hopf map has no fiber_seeds rule: both fibers are seeded
    # from the whole S^3 lattice and corrected in one batch
    u = maps.SphereMap(3, 2, maps.hopf_eval_many,
                       {"variant": "hopf_hand", "params": {}, "children": []},
                       jacobian_many=maps.hopf_jacobian_many)
    assert u.fiber_seeds is None
    rep = topology.hopf_invariant(u, step=4e-3)
    assert rep.value == 1
    assert rep.residual < 1e-9


def test_hopf_invariant_of_hopf_map():
    rep = topology.hopf_invariant(maps.hopf_map(), step=TRACE_STEP)
    assert rep.value == 1
    assert rep.residual < 1e-9


def test_hopf_invariant_rotation_invariance():
    # rotations are degree-one self-maps homotopic to the identity
    gen = np.random.default_rng(2)
    a = geo.sphere_point(gen.normal(size=4))
    b = geo.sphere_point(gen.normal(size=4))
    rot = geo.rotation_taking(a, b)
    u = maps.precompose_rotation(maps.hopf_map(), rot)
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == 1
    assert rep.residual < 1e-9


def test_hopf_invariant_composition_squares():
    # deg_H(v o h) = (deg v)^2
    u = maps.composed_with_hopf(maps.multi_bubble(2))
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == 4
    assert rep.residual < 1e-9


def test_hopf_invariant_flip_negates():
    u = maps.precompose_flip(maps.hopf_map())
    rep = topology.hopf_invariant(u, step=TRACE_STEP)
    assert rep.value == -1
    assert rep.residual < 1e-9


def test_hopf_invariant_of_degree_one_hundred():
    # 10 bubbles o h: two fibers of 10 Hopf circles each, linked pairwise
    rep = topology.hopf_invariant(maps.prescribed_hopf_map(100))
    assert rep.value == 100
    assert rep.residual < 1e-9


def test_hopf_invariant_patched_adds():
    rep = topology.hopf_invariant(maps.prescribed_hopf_map(2),
                                  step=TRACE_STEP)
    assert rep.value == 2
    assert rep.residual < 1e-9


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
    assert rep.residual < 1e-9


def test_hopf_invariant_collapse_composed_with_hopf_cancels():
    # the collapse on S^2 has two preimages of opposite orientation; their
    # fibers cancel only when both are traced, one alone reads +-1
    u = maps.composed_with_hopf(maps.equator_collapse(2))
    rep = topology.hopf_invariant(u, step=4e-3)
    assert rep.value == u.degree == 0
    assert rep.residual < 1e-9


def test_hopf_invariant_rejects_wrong_dims():
    with pytest.raises(ParameterError):
        topology.hopf_invariant(maps.identity_map(2))


@pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
def test_fiber_tracing_rejects_a_bad_step(step):
    # a zero or nan step never closes a curve and a negative one fails every
    # target pair, so each is rejected before any tracing
    h = maps.hopf_map()
    z = geo.sphere_point([0.0, 0.0, 1.0])
    with pytest.raises(ParameterError, match="step"):
        topology.trace_fiber(h, z, maps.fiber_circle(z, 8), step=step)
    with pytest.raises(ParameterError, match="step"):
        topology.hopf_invariant(maps.prescribed_hopf_map(2), step=step)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_hopf_invariant_rejects_out_of_range_seeds(seed):
    with pytest.raises(ParameterError, match="seed"):
        topology.hopf_invariant(maps.hopf_map(), seed=seed)


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
