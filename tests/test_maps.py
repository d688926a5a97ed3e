"""Map constructions: Hopf map, bumps, bubbles, patching, descriptors."""

import copy
import json
import math

import numpy as np
import pytest

from hopflab import geometry as geo
from hopflab import maps
from hopflab.errors import (
    DimensionMismatchError,
    ParameterError,
    SupportError,
)

GEN = np.random.default_rng(20260814)


def _sample(src, n, rng, rings=1, start=0):
    """n points of an x source drawn as one piece whose row i lies in ring
    (start + i) mod rings."""
    return src.points(src.draw(n, rng), (start + np.arange(n)) % rings, rings)
S3_PTS = geo.sample_uniform_many(3, 400, np.random.default_rng(11))
S2_PTS = geo.sample_uniform_many(2, 400, np.random.default_rng(12))


# ---------------------------------------------------------------------------
# Hopf map
# ---------------------------------------------------------------------------

def test_hopf_lands_on_s2():
    out = maps.hopf_map().eval_many(S3_PTS)
    assert out.shape == (400, 3)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)


def test_hopf_is_constant_on_fibers():
    h = maps.hopf_map()
    x = S3_PTS[:50]
    base = h.eval_many(x)
    for phase in (0.3, 1.2, 2.9):
        c, s = np.cos(phase), np.sin(phase)
        # the circle action (x1+ix2, x3+ix4) -> e^(i phase) (x1+ix2, x3+ix4)
        rot = np.array([[c, -s, 0, 0], [s, c, 0, 0],
                        [0, 0, c, -s], [0, 0, s, c]])
        assert np.allclose(h.eval_many(x @ rot.T), base, rtol=0, atol=1e-12)


def test_hopf_jacobian_matches_finite_differences():
    h = maps.hopf_map()
    x = S3_PTS[:20]
    J = maps.hopf_jacobian_many(x)
    eps = 1e-6
    for i in range(4):
        step = np.zeros(4)
        step[i] = eps
        fd = (maps.hopf_eval_many(x + step) - maps.hopf_eval_many(x - step))
        fd /= 2 * eps
        assert np.allclose(J[:, :, i], fd, rtol=0, atol=1e-6)


def test_hopf_fiber_point_and_circle():
    h = maps.hopf_map()
    z = geo.sphere_point([0.3, -0.5, np.sqrt(1 - 0.34)])
    x = maps.hopf_fiber_point(z, 0.7)
    assert np.allclose(h(x).coords, z.coords, rtol=0, atol=1e-12)
    circle = maps.fiber_circle(z, 128)
    assert circle.shape == (128, 4)
    assert np.allclose(h.eval_many(circle), np.broadcast_to(z.coords, (128, 3)),
                       rtol=0, atol=1e-12)
    # fibers are unit great circles
    assert np.allclose(np.linalg.norm(circle, axis=1), 1.0, rtol=0, atol=1e-12)


def test_lipschitz_probe_hopf_is_two():
    val = maps.lipschitz_probe(maps.hopf_map(), 4000, np.random.default_rng(0))
    assert abs(val - 2.0) < 0.01


# ---------------------------------------------------------------------------
# Bumps and bubbles
# ---------------------------------------------------------------------------

def test_support_radius_values():
    assert np.isclose(maps.support_radius(1.0 - 1e-15), np.pi / 2.0,
                      rtol=0, atol=1e-12)
    assert maps.support_radius(0.1) < maps.support_radius(0.3)


def test_bump_constant_outside_support_bitwise():
    b = np.array([1.0, 0.0, 0.0])
    x0 = geo.sphere_point([0.0, 0.0, 1.0])
    f = maps.bump_deg1(x0, 0.3, b)
    ball = f.supports[0]
    d = geo.geodesic_distances(S2_PTS, x0.coords)
    outside = S2_PTS[d > ball.radius]
    out = f.eval_many(outside)
    assert out.shape[0] > 0
    assert np.all(out == b)  # exact equality, not approximate


def test_bump_moves_inside_support():
    b = np.array([1.0, 0.0, 0.0])
    x0 = geo.sphere_point([0.0, 0.0, 1.0])
    f = maps.bump_deg1(x0, 0.3, b)
    # the center goes to the antipode of b
    assert np.allclose(f(x0).coords, -b, rtol=0, atol=1e-12)


def test_bump_lipschitz_hint_matches_probe():
    b = np.array([1.0, 0.0, 0.0, 0.0])
    x0 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])
    for r in (0.3, 0.7):
        f = maps.bump_deg1(x0, r, b)
        assert np.isclose(f.lipschitz_hint, 2.0 / r, rtol=0, atol=1e-12)
        probe = maps.lipschitz_probe(f, 4000, np.random.default_rng(1))
        assert probe <= f.lipschitz_hint * (1 + 1e-9)
        assert probe > 0.9 * f.lipschitz_hint


def _bump_chain(c0, r, b, q_pts):
    """The bump as R_cod o g o Pi^-1 o (y -> y/r) o Pi o R_dom, written out."""
    m = c0.shape[0] - 1
    south = np.zeros(m + 1)
    south[-1] = -1.0
    rot_dom = geo.rotation_taking(geo.sphere_point(c0), geo.sphere_point(south))
    rot_cod = geo.rotation_taking(geo.sphere_point(-south), geo.sphere_point(b))

    def stereographic_inv(y):
        s = np.sum(y * y, axis=1, keepdims=True)
        return np.concatenate([2.0 * y, s - 1.0], axis=1) / (1.0 + s)

    q = q_pts @ rot_dom.matrix.T
    y = geo.stereographic_many(q)
    assert np.allclose(stereographic_inv(y), q, rtol=0, atol=1e-12)  # round trip
    p = stereographic_inv(y / r)
    last = p[:, -1:]
    g = np.concatenate([-2.0 * p[:, :-1] * last, 1.0 - 2.0 * last * last], axis=1)
    return g @ rot_cod.matrix.T


@pytest.mark.parametrize("m", [2, 3])
def test_bump_closed_form_matches_the_stereographic_chain(m):
    gen = np.random.default_rng(40 + m)
    for r in (0.03, 0.1, 0.3, 0.7):
        c0 = geo.sample_uniform_many(m, 1, gen)[0]
        b = geo.sample_uniform_many(m, 1, gen)[0]
        f = maps.bump_deg1(c0, r, b)
        rho = f.supports[0].radius
        base = np.broadcast_to(c0, (600, m + 1)).copy()
        dirs = geo.tangent_directions(base, gen)
        t = np.concatenate([
            np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),  # near the centre
            rho - np.array([1e-9, 3e-10, 1e-10]),       # just inside the seam
            gen.random(586) * rho,
            rho + np.array([1e-10, 1e-9, 1e-3]),        # just outside it
            rho + gen.random(3) * (np.pi - rho),
        ])
        pts = geo.geodesic_step(base, dirs, t)
        pts[0] = c0
        inside = geo.geodesic_distances(pts, c0) < rho
        assert np.all(inside[:594]) and not np.any(inside[594:])
        out = f.eval_many(pts)
        assert np.allclose(out[inside], _bump_chain(c0, r, b, pts[inside]),
                           rtol=0, atol=1e-13)
        assert np.all(out[~inside] == b)


def test_bump_rejects_bad_radius():
    b = np.array([1.0, 0.0, 0.0])
    x0 = geo.sphere_point([0.0, 0.0, 1.0])
    for r in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ParameterError):
            maps.bump_deg1(x0, r, b)


def test_multi_bubble_constant_off_balls():
    v = maps.multi_bubble(3)
    inside = np.zeros(len(S2_PTS), dtype=bool)
    for ball in v.supports:
        inside |= geo.geodesic_distances(S2_PTS, ball.center.coords) < ball.radius
    out = v.eval_many(S2_PTS[~inside])
    assert np.all(out == v.basepoint)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_multi_bubble_matches_the_per_ball_reference(k):
    # the reference classifies each ball by geodesic distance over every
    # point; eval_many pre-selects by a dot product first and must agree
    # bit for bit, also 1e-12 to 1e-9 on either side of each seam
    v = maps.multi_bubble(k)
    rng = np.random.default_rng(40 + k)
    pts = [geo.sample_uniform_many(2, 20_000, rng)]
    for ball in v.supports:
        c = np.broadcast_to(ball.center.coords, (64, 3)).copy()
        dirs = geo.tangent_directions(c, rng)
        for delta in (1e-12, 1e-11, 1e-10, 1e-9):
            for t in (ball.radius - delta, ball.radius + delta):
                pts.append(geo.geodesic_step(c, dirs, np.full(64, t)))
    pts = np.concatenate(pts)
    ref = np.broadcast_to(v.basepoint, pts.shape).copy()
    for ball in v.supports:
        bump = maps.bump_deg1(ball.center, math.tan(ball.radius / 2.0), v.basepoint)
        inside = geo.geodesic_distances(pts, ball.center.coords) < ball.radius
        ref[inside] = bump.eval_many(pts[inside])
    assert np.array_equal(v.eval_many(pts), ref)
    moved = np.any(ref != v.basepoint, axis=1)
    assert 0 < moved[20_000:].sum() < pts.shape[0] - 20_000  # seams on both sides


def _bump_s2():
    c, b = np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    u = maps.bump_deg1(c, 0.4, b)
    return u, [(u.supports[0], maps._BumpKernel(c, 0.4, b))]


def _bump_s3():
    c, b = np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])
    u = maps.bump_deg1(c, 0.3, b)
    return u, [(u.supports[0], maps._BumpKernel(c, 0.3, b))]


def _hopf_bump():
    c, b = np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    u = maps.hopf_bump(c, 0.3, b)
    kernel = maps._BumpKernel(c, 0.3, maps.hopf_fiber_point(b, 0.0).coords)
    return u, [(u.supports[0], lambda q: maps.hopf_eval_many(kernel(q)))]


def _two_patches():
    b = np.array([1.0, 0.0, 0.0])
    pieces = [maps.bump_deg1(np.array(c), 0.3, b)
              for c in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])]
    u = maps.patch_maps([(p, p.supports[0]) for p in pieces], b)
    return u, [(p.supports[0], p.eval_many) for p in pieces]


@pytest.mark.parametrize("build", [_bump_s2, _bump_s3, _hopf_bump, _two_patches],
                         ids=["bump_s2", "bump_s3", "hopf_bump", "two_patches"])
def test_ball_masked_maps_match_the_reference_at_their_seams(build):
    # the reference: the basepoint, bitwise, at geodesic distance >= r from
    # each ball's center, the ball's kernel (or piece) at distance < r;
    # uniform points, points 1e-12 to 1e-9 on either side of each seam, and
    # a batch inside one ball
    u, refs = build()
    dim = u.domain_dim

    def reference(x):
        ref = np.broadcast_to(u.basepoint, (x.shape[0], u.codomain_dim + 1)).copy()
        for ball, kernel in refs:
            inside = geo.geodesic_distances(x, ball.center.coords) < ball.radius
            ref[inside] = kernel(x[inside])
        return ref

    rng = np.random.default_rng(60 + dim)
    pts = [geo.sample_uniform_many(dim, 5_000, rng)]
    for ball, _ in refs:
        c = np.broadcast_to(ball.center.coords, (64, dim + 1)).copy()
        dirs = geo.tangent_directions(c, rng)
        for delta in (1e-12, 1e-11, 1e-10, 1e-9):
            for t in (ball.radius - delta, ball.radius + delta):
                pts.append(geo.geodesic_step(c, dirs, np.full(64, t)))
    pts = np.concatenate(pts)
    ref = reference(pts)
    assert np.array_equal(u.eval_many(pts), ref)
    seams = np.any(ref[5_000:] != u.basepoint, axis=1)
    assert 0 < seams.sum() < seams.shape[0]  # seams on both sides
    ball = refs[0][0]
    inner = _sample(geo.Region(dim, ball.center, 0.0, 0.99 * ball.radius), 500, rng)
    ref = reference(inner)
    assert np.all(np.any(ref != u.basepoint, axis=1))
    assert np.array_equal(u.eval_many(inner), ref)


def test_multi_bubble_needs_positive_k():
    with pytest.raises(ParameterError):
        maps.multi_bubble(0)


@pytest.mark.parametrize("build, value", [
    (maps.multi_bubble, 2.5),
    (maps.multi_bubble, "3"),
    (geo.pack_disjoint_balls, 2.5),
    (maps.prescribed_hopf_map, 2.0),
])
def test_bubble_counts_and_degrees_must_be_integers(build, value):
    # multi_bubble(2.5) used to pack 3 bubbles and bookkeep degree 2.5;
    # "3" and prescribed_hopf_map(2.0) raised bare TypeErrors
    name = "d" if build is maps.prescribed_hopf_map else "k"
    with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
        build(value)


def test_integer_counts_reach_the_descriptor_as_ints():
    # numpy integers are taken as ints, so the descriptor is JSON and
    # rebuilds to itself; a nested non-integer k is refused on the way in
    u = maps.composed_with_hopf(maps.multi_bubble(np.int64(3)))
    assert json.dumps(u.descriptor) == json.dumps(
        maps.composed_with_hopf(maps.multi_bubble(3)).descriptor)
    assert maps.map_from_descriptor(u.descriptor).descriptor == u.descriptor
    assert maps.prescribed_hopf_map(np.int64(5)).degree == 5
    child = u.descriptor["children"][0]
    bad = {**u.descriptor, "children": [{**child, "params": {**child["params"], "k": 2.5}}]}
    with pytest.raises(ParameterError, match="'k' of variant 'multi_bubble'"):
        maps.map_from_descriptor(bad)


# ---------------------------------------------------------------------------
# Composition, patching, prescription
# ---------------------------------------------------------------------------

def test_composed_with_hopf_evaluates_pointwise():
    v = maps.multi_bubble(2)
    u = maps.composed_with_hopf(v)
    h = maps.hopf_map()
    assert np.allclose(u.eval_many(S3_PTS), v.eval_many(h.eval_many(S3_PTS)),
                       rtol=0, atol=0)


def test_hopf_map_halves_distances_at_most():
    # the premise of the v o h support gap: d_S2(h(x), h(y)) <= 2 d_S3(x, y),
    # with equality along horizontal geodesics (orthogonal to the fiber),
    # and the distance from x to the fiber over z is d_S2(h(x), z) / 2
    rng = np.random.default_rng(31)
    x = geo.sample_uniform_many(3, 2000, rng)
    far = -x + 1e-6 * geo.tangent_directions(x, rng)
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    for y in (geo.sample_uniform_many(3, 2000, rng), far):
        d3 = np.arccos(np.clip(np.sum(x * y, axis=1), -1.0, 1.0))
        hx, hy = maps.hopf_eval_many(x), maps.hopf_eval_many(y)
        d2 = np.arccos(np.clip(np.sum(hx * hy, axis=1), -1.0, 1.0))
        assert np.all(d2 <= 2.0 * d3 + 1e-12)
    # horizontal: orthogonal to x and to the fiber direction i x
    ix = x[:, [1, 0, 3, 2]] * np.array([-1.0, 1.0, -1.0, 1.0])
    v = geo.tangent_directions(x, rng)
    v -= np.sum(v * ix, axis=1, keepdims=True) * ix
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t = rng.uniform(0.0, np.pi / 2.0, 2000)
    y = geo.geodesic_step(x, v, t)
    hx, hy = maps.hopf_eval_many(x), maps.hopf_eval_many(y)
    d2 = np.arccos(np.clip(np.sum(hx * hy, axis=1), -1.0, 1.0))
    assert np.allclose(d2, 2.0 * t, rtol=0, atol=1e-7)
    z = geo.sample_uniform_many(2, 2000, rng)
    p = maps.hopf_lift_many(z)
    herm = np.hypot(np.sum(x * p, axis=1), np.sum(ix * p, axis=1))
    to_fiber = np.arccos(np.clip(herm, -1.0, 1.0))
    d2 = np.arccos(np.clip(np.sum(hx * z, axis=1), -1.0, 1.0))
    assert np.allclose(to_fiber, 0.5 * d2, rtol=0, atol=1e-7)


def test_composed_with_hopf_rejects_wrong_dims():
    with pytest.raises(DimensionMismatchError):
        maps.composed_with_hopf(maps.identity_map(3))


# ---------------------------------------------------------------------------
# x sources
# ---------------------------------------------------------------------------

def test_hopf_tubes_are_uniform_over_their_balls():
    v = maps.multi_bubble(3)
    tubes = maps.composed_with_hopf(v).sources[0]
    r = v.supports[0].radius
    # h pushes |S^3| / |S^2| = pi/2 times the round measure forward
    assert tubes.measure() == pytest.approx(
        3 * 0.5 * np.pi * geo.cap_area(2, r), rel=1e-14, abs=0)
    rng = np.random.default_rng(50)
    every = geo.sample_uniform_many(3, 200_000, rng)
    want = tubes.measure() / geo.sphere_area(3)
    sd = math.sqrt(want * (1.0 - want) / every.shape[0])
    assert abs(np.mean(tubes.contains(every)) - want) < 4.0 * sd
    x = _sample(tubes, 30_000, rng)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.all(tubes.contains(x))
    # cos d(h(x), c_i) is uniform on [cos r, 1] over each tube, and the
    # tubes (of equal measure) share the samples evenly
    cos_d = maps.hopf_eval_many(x) @ tubes.centers.T
    tube = np.argmax(cos_d, axis=1)
    for i in range(3):
        u = np.sort((cos_d[tube == i, i] - math.cos(r)) / (1.0 - math.cos(r)))
        m = u.shape[0]
        assert abs(m - 10_000) < 4.0 * math.sqrt(30_000 * 2.0 / 9.0)
        ks = max(np.max(np.arange(1, m + 1) / m - u), np.max(u - np.arange(m) / m))
        assert ks < 1.63 / math.sqrt(m)  # Kolmogorov-Smirnov at the 1% level
    # h(U x) = R h(x) for a rotation R taking the pole to c_i
    y = geo.sample_uniform_many(3, 50, rng)
    hy = maps.hopf_eval_many(y)
    for U, c in zip(tubes.lifts, tubes.centers):
        hUy = maps.hopf_eval_many(y @ U.T)
        R = np.linalg.lstsq(hy, hUy, rcond=None)[0].T
        assert np.allclose(R @ R.T, np.eye(3), rtol=0, atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(R[:, 0], c, rtol=0, atol=1e-12)
        assert np.allclose(hUy, hy @ R.T, rtol=0, atol=1e-12)


def _ball(coords, radius):
    return geo.GeodesicBall(geo.sphere_point(coords), radius)


@pytest.mark.parametrize("start", [0, 3])
@pytest.mark.parametrize("kind", ["balls_s2", "balls_s3", "tubes"])
def test_source_rows_lie_in_their_rings(kind, start):
    # row i of a piece that starts in ring `start` lies in the equal-measure ring
    # (start + i) mod R of its ball (tube): the share q of that ball's
    # measure nearer its centre lies in [k / R, (k + 1) / R]. The parts
    # have unequal measures, and each draws its share of the rows
    R, n = 8, 40_000
    if kind == "balls_s2":
        src = geo.BallUnion([_ball([0.0, 0.0, 1.0], 0.4), _ball([1.0, 0.0, 0.0], 0.7)])
    elif kind == "balls_s3":
        src = geo.BallUnion([_ball([0.0, 0.0, 0.0, 1.0], 0.5),
                             _ball([1.0, 0.0, 0.0, 0.0], 0.3)])
    else:
        src = maps.HopfTubes([_ball([0.0, 0.0, 1.0], 0.4), _ball([1.0, 0.0, 0.0], 0.7)])
    rng = np.random.default_rng(53)
    x = _sample(src, n, rng, R, start)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0, atol=1e-14)
    assert np.all(src.contains(x))
    centre_of = maps.hopf_eval_many(x) if kind == "tubes" else x
    d = np.arccos(np.clip(centre_of @ src.centers.T, -1.0, 1.0))
    part = np.argmin(d, axis=1)
    d = d[np.arange(n), part]
    radii = np.array([b.radius for b in src.balls])
    if kind == "balls_s3":
        q = geo.cap_area(3, d) / geo.cap_area(3, radii[part])
    else:  # on S^2 (under h for tubes) a cap's measure goes as 1 - cos
        q = (1.0 - np.cos(d)) / (1.0 - np.cos(radii[part]))
    ring = (start + np.arange(n)) % R
    assert np.all(q >= ring / R - 1e-9) and np.all(q <= (ring + 1) / R + 1e-9)
    # a tube's measure is pi/2 times its ball's
    share = geo.cap_area(3 if kind == "balls_s3" else 2, radii)
    share = share / np.sum(share)
    for i in range(2):
        assert abs(np.mean(part == i) - share[i]) < 4.0 * math.sqrt(
            share[i] * (1.0 - share[i]) / n)
        # no direction about the centre is preferred
        y = centre_of[part == i]
        c = src.centers[i]
        off = y - (y @ c)[:, None] * c
        assert np.all(np.abs(off.mean(axis=0)) < 4.0 / math.sqrt(y.shape[0]))


def test_sources_cover_where_the_map_leaves_its_basepoint():
    assert maps.hopf_map().sources is None
    assert maps.constant_map(3, [1.0, 0.0, 0.0]).sources == []
    v = maps.multi_bubble(2)
    # one ball union of all the bubbles, whose balls supports reads back
    assert all(isinstance(s, geo.BallUnion) for s in v.sources)
    assert [b for s in v.sources for b in s.balls] == v.supports
    assert [len(s.balls) for s in v.sources] == [2]
    u = maps.prescribed_hopf_map(5)
    tubes, balls = u.sources
    assert isinstance(tubes, maps.HopfTubes) and isinstance(balls, geo.BallUnion)
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    flipped = maps.precompose_flip(u)
    rng = np.random.default_rng(51)
    pts = geo.sample_uniform_many(3, 100_000, rng)
    for w in (u, flipped):
        off = ~np.any([src.contains(pts) for src in w.sources], axis=0)
        assert 0 < off.sum() < pts.shape[0]
        assert np.all(w.eval_many(pts[off]) == w.basepoint)
    for src, moved in zip(u.sources, flipped.sources):
        assert moved.measure() == src.measure()
        x = _sample(moved, 5_000, rng)
        assert np.all(moved.contains(x)) and np.all(src.contains(x @ flip.T))
    # the patched balls lie off the tubes: the sources are disjoint
    assert not np.any(tubes.contains(_sample(balls, 5_000, rng)))


@pytest.mark.parametrize("move", ["built", "flip", "rotation"])
def test_source_gaps_are_lower_bounds(move):
    # each source type a constructor builds: a one-ball BallUnion
    # (hopf_bump), a HopfTubes and a BallUnion (the patched d = 5)
    u = maps.prescribed_hopf_map(5)
    bump = maps.hopf_bump(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.4)
    if move == "flip":
        u, bump = maps.precompose_flip(u), maps.precompose_flip(bump)
    elif move == "rotation":
        rot = geo.rotation_taking(geo.sphere_point([0.0, 0.0, 0.0, 1.0]),
                                  geo.sphere_point([0.5, -0.5, 0.5, 0.5]))
        u, bump = maps.precompose_rotation(u, rot), maps.precompose_rotation(bump, rot)
    sources = [*bump.sources, *u.sources]
    assert [type(src) for src in sources] == [geo.BallUnion, maps.HopfTubes, geo.BallUnion]
    rng = np.random.default_rng(52)
    x = geo.sample_uniform_many(3, 400, rng)
    for src in sources:
        assert np.all(src.gap(_sample(src, 2_000, rng)) <= 0.0)
        y = _sample(src, 20_000, rng)
        nearest = np.min(np.arccos(np.clip(x @ y.T, -1.0, 1.0)), axis=1)
        gap = src.gap(x)
        assert np.all(gap <= nearest + 1e-12)
        assert np.any(gap > 0.0)
    assert np.all(u.support_gap(x) == np.minimum(*[src.gap(x) for src in u.sources]))
    assert np.all(maps.constant_map(3, [1.0, 0.0, 0.0]).support_gap(x) == np.inf)
    assert np.all(maps.hopf_map().support_gap(x) == -np.inf)


def test_hopf_bump_constant_outside():
    x0 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])
    u = maps.hopf_bump(x0, 0.4)
    ball = u.supports[0]
    d = geo.geodesic_distances(S3_PTS, x0.coords)
    out = u.eval_many(S3_PTS[d > ball.radius])
    assert np.all(out == u.basepoint)


def test_patch_maps_rejects_overlap():
    x0 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])
    u1 = maps.hopf_bump(x0, 0.5)
    u2 = maps.hopf_bump(x0, 0.5)  # same support: must overlap
    with pytest.raises(SupportError):
        maps.patch_maps([(u1, u1.supports[0]), (u2, u2.supports[0])],
                        u1.basepoint)


def test_patch_maps_agrees_with_pieces():
    c1 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])
    c2 = geo.sphere_point([0.0, 0.0, 0.0, -1.0])
    u1 = maps.hopf_bump(c1, 0.4)
    u2 = maps.hopf_bump(c2, 0.4)
    patched = maps.patch_maps([(u1, u1.supports[0]), (u2, u2.supports[0])],
                              u1.basepoint)
    vals = patched.eval_many(S3_PTS)
    d1 = geo.geodesic_distances(S3_PTS, c1.coords)
    d2 = geo.geodesic_distances(S3_PTS, c2.coords)
    in1 = d1 < u1.supports[0].radius
    in2 = d2 < u2.supports[0].radius
    assert np.all(vals[in1] == u1.eval_many(S3_PTS[in1]))
    assert np.all(vals[in2] == u2.eval_many(S3_PTS[in2]))
    assert np.all(vals[~in1 & ~in2] == u1.basepoint)


def test_precompose_rotation_moves_supports():
    x0 = geo.sphere_point([0.0, 0.0, 0.0, 1.0])
    u = maps.hopf_bump(x0, 0.4)
    rot = geo.rotation_taking(x0, geo.sphere_point([1.0, 0.0, 0.0, 0.0]))
    ur = maps.precompose_rotation(u, rot)  # x -> u(R x)
    # constant exactly outside the transported support R^-1(ball)
    want_center = rot.inverse().apply(x0.coords[None, :])[0]
    assert np.allclose(ur.supports[0].center.coords, want_center,
                       rtol=0, atol=1e-12)
    assert np.allclose(ur.eval_many(S3_PTS),
                       u.eval_many(S3_PTS @ rot.matrix.T), rtol=0, atol=1e-12)
    d = geo.geodesic_distances(S3_PTS, want_center)
    out = ur.eval_many(S3_PTS[d > ur.supports[0].radius])
    assert np.all(out == ur.basepoint)


def test_precompose_flip_negates_first_coordinate():
    u = maps.hopf_map()
    uf = maps.precompose_flip(u)
    flipped = S3_PTS.copy()
    flipped[:, 0] = -flipped[:, 0]
    assert np.allclose(uf.eval_many(S3_PTS), u.eval_many(flipped),
                       rtol=0, atol=0)


def test_prescribed_hopf_map_structure():
    # squares compose bubbles with the fibration; others add patched bumps
    assert maps.prescribed_hopf_map(0).descriptor["variant"] == "constant"
    assert maps.prescribed_hopf_map(4).descriptor["variant"] == "compose_hopf"
    d7 = maps.prescribed_hopf_map(7).descriptor
    assert d7["variant"] == "patched"
    kinds = [c["variant"] for c in d7["children"]]
    assert kinds == ["compose_hopf", "hopf_bump", "hopf_bump", "hopf_bump"]
    dm3 = maps.prescribed_hopf_map(-3).descriptor
    assert dm3["variant"] == "orientation_flip"


def test_prescribed_hopf_map_domain():
    for d in (0, 1, 2, 7, -3):
        u = maps.prescribed_hopf_map(d)
        assert u.domain_dim == 3 and u.codomain_dim == 2
        out = u.eval_many(S3_PTS[:64])
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: maps.constant_map(3, [1.0, 0.0, 0.0]),
    lambda: maps.identity_map(2),
    lambda: maps.hopf_map(),
    lambda: maps.equator_collapse(2),
    lambda: maps.bump_deg1(geo.sphere_point([0.0, 0.0, 1.0]), 0.3,
                           [1.0, 0.0, 0.0]),
    lambda: maps.multi_bubble(3),
    lambda: maps.composed_with_hopf(maps.multi_bubble(2)),
    lambda: maps.hopf_bump(geo.sphere_point([0.0, 0.0, 0.0, 1.0]), 0.4),
    lambda: maps.prescribed_hopf_map(7),
    lambda: maps.prescribed_hopf_map(-3),
    lambda: maps.precompose_rotation(
        maps.hopf_map(),
        geo.rotation_taking(geo.sphere_point([0.0, 0.0, 0.0, 1.0]),
                            geo.sphere_point([1.0, 0.0, 0.0, 0.0]))),
])
def test_descriptor_round_trip(build):
    u = build()
    text = json.dumps(u.descriptor, sort_keys=True)
    rebuilt = maps.map_from_descriptor(json.loads(text))
    pts = S3_PTS[:64] if u.domain_dim == 3 else S2_PTS[:64]
    assert np.array_equal(u.eval_many(pts), rebuilt.eval_many(pts))
    assert json.dumps(rebuilt.descriptor, sort_keys=True) == text


@pytest.mark.parametrize("d", [27, 29, 31, 32, 33, 34, 35, 47, 196, 625])
def test_prescribed_descriptor_round_trip_is_exact(d):
    # these degrees rebuilt renormalized centres: other descriptors, and at
    # d = 196 and 625 other values
    u = maps.prescribed_hopf_map(d)
    text = json.dumps(u.descriptor, sort_keys=True)
    rebuilt = maps.map_from_descriptor(json.loads(text))
    assert json.dumps(rebuilt.descriptor, sort_keys=True) == text
    assert np.array_equal(u.eval_many(S3_PTS), rebuilt.eval_many(S3_PTS))


def test_edited_multi_bubble_descriptor_is_refused():
    # each edit used to rebuild another map: k = 5 over one ball bookkept 5
    # while its degree read 1, and a halved radius read a raw degree of 4.63
    desc = maps.multi_bubble(5).descriptor
    one_ball = copy.deepcopy(desc)
    one_ball["params"]["balls"] = one_ball["params"]["balls"][:1]
    radius = copy.deepcopy(desc)
    radius["params"]["balls"][1]["radius"] *= 0.5
    for edited in (one_ball, radius):
        with pytest.raises(ParameterError, match="rebuild"):
            maps.map_from_descriptor(edited)
    # a nested edit: the bubbles under the Hopf map under a patched map
    patched = copy.deepcopy(maps.prescribed_hopf_map(5).descriptor)
    patched["children"][0]["children"][0]["params"]["balls"][1]["radius"] *= 0.5
    with pytest.raises(ParameterError, match="rebuild"):
        maps.map_from_descriptor(patched)


def test_descriptor_json_is_canonical():
    text = json.dumps(maps.prescribed_hopf_map(5).descriptor, sort_keys=True)
    assert json.loads(text) == json.loads(
        json.dumps(maps.prescribed_hopf_map(5).descriptor, sort_keys=True))
    assert text == json.dumps(maps.prescribed_hopf_map(5).descriptor, sort_keys=True)


def test_map_from_descriptor_rejects_unknown():
    with pytest.raises(ParameterError):
        maps.map_from_descriptor({"variant": "nonsense", "params": {}})


@pytest.mark.parametrize("desc, match", [
    ({"variant": "multi_bubble", "params": {}}, "'multi_bubble' has no key 'k'"),
    ({"params": {}}, "has no key 'variant'"),
    ({"variant": "compose_hopf", "params": {}, "children": []},
     "'compose_hopf' lacks a child"),
    ([1, 2], "JSON object, got list"),
    ({"variant": "compose_hopf", "params": {}, "children": ["hopf"]},
     "JSON object, got str"),
    ({"variant": "compose_hopf", "params": {}, "children": {"a": 1}},
     "children of variant 'compose_hopf' must be a list, got dict"),
])
def test_malformed_descriptor_names_what_is_missing(desc, match):
    with pytest.raises(ParameterError, match=match):
        maps.map_from_descriptor(desc)


def _with_params(desc, **params):
    return {**desc, "params": {**desc["params"], **params}}


_BUBBLES = maps.multi_bubble(3).descriptor
_PATCHED = maps.prescribed_hopf_map(5).descriptor
_ROTATED = maps.precompose_rotation(maps.hopf_map(), np.eye(4)).descriptor


@pytest.mark.parametrize("desc, match", [
    ({**_BUBBLES, "params": [1]}, "params of variant 'multi_bubble' must be a JSON object"),
    (_with_params(_BUBBLES, k="3"), "'k' of variant 'multi_bubble' must be an integer"),
    (_with_params(_BUBBLES, k=3.0), "'k' of variant 'multi_bubble' must be an integer"),
    (_with_params(_BUBBLES, k=True), "'k' of variant 'multi_bubble' must be an integer"),
    (_with_params(_BUBBLES, safety="0.9"),
     "'safety' of variant 'multi_bubble' must be a number"),
    (_with_params(_BUBBLES, basepoint="x"),
     "'basepoint' of variant 'multi_bubble' must be a list of numbers"),
    (_with_params(_BUBBLES, basepoint=[1, 0, [0]]), "must be a list of numbers"),
    (_with_params(_PATCHED, supports=3),
     "'supports' of variant 'patched' must be a list"),
    (_with_params(_PATCHED, supports=[3]),
     "each of 'supports' of variant 'patched' must be a JSON object"),
    (_with_params(_PATCHED, supports=[{"center": [0, 0, 0, 1], "radius": "0.1"}]),
     "'radius' of variant 'patched' must be a number"),
    (_with_params(_ROTATED, matrix=[[1, 0], [0, "x"]]),
     "'matrix' of variant 'precompose_rotation' must be a list of lists of numbers"),
    (_with_params(maps.identity_map(2).descriptor, dim=None),
     "'dim' of variant 'identity'"),
])
def test_descriptor_values_of_the_wrong_type_raise_parameter_errors(desc, match):
    # they used to reach the constructors and raise bare TypeErrors
    with pytest.raises(ParameterError, match=match):
        maps.map_from_descriptor(desc)


def test_eval_many_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        maps.hopf_map().eval_many(S2_PTS)
