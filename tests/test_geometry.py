"""Geometry primitives: points, rotations, projections, measures, lattices."""

import copy
import math

import numpy as np
import pytest

from hopflab import geometry as geo
from hopflab.errors import ParameterError, SingularInputError

RNG = np.random.default_rng(20260814)


def test_sphere_point_normalizes():
    p = geo.sphere_point([3.0, 4.0, 0.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0, rtol=0, atol=1e-15)
    assert p.dim == 2


def test_sphere_point_rejects_zero():
    with pytest.raises(SingularInputError):
        geo.sphere_point([0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sphere_point_and_rotation_reject_non_finite_entries(bad):
    # a comparison with nan is False, so both checks used to pass nan
    with pytest.raises(ParameterError):
        geo.SpherePoint(2, np.array([bad, 0.0, 1.0]))
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        geo.Rotation(2, m)


def test_geodesic_distance_symmetry_and_range():
    pts = geo.sample_uniform_many(3, 64, np.random.default_rng(1))
    qts = geo.sample_uniform_many(3, 64, np.random.default_rng(2))
    for x, y in zip(pts[:8], qts[:8]):
        a = geo.geodesic_distance(geo.sphere_point(x), geo.sphere_point(y))
        b = geo.geodesic_distance(geo.sphere_point(y), geo.sphere_point(x))
        assert a == b
        assert 0.0 <= a <= np.pi


def test_geodesic_distance_antipodal():
    p = geo.sphere_point([1.0, 0.0, 0.0])
    q = geo.sphere_point([-1.0, 0.0, 0.0])
    assert np.isclose(geo.geodesic_distance(p, q), np.pi, rtol=0, atol=1e-12)


def test_stereographic_rejects_pole():
    with pytest.raises(SingularInputError):
        geo.stereographic_many(np.array([[0.0, 0.0, 1.0]]))


def test_rotation_taking_maps_a_to_b():
    gen = np.random.default_rng(3)
    for m in (2, 3):
        for _ in range(20):
            a = geo.sphere_point(gen.normal(size=m + 1))
            b = geo.sphere_point(gen.normal(size=m + 1))
            rot = geo.rotation_taking(a, b)
            assert np.allclose(rot.apply(a.coords[None, :])[0], b.coords,
                               rtol=0, atol=1e-12)
            mat = rot.matrix
            assert np.allclose(mat @ mat.T, np.eye(m + 1), rtol=0, atol=1e-12)
            assert np.isclose(np.linalg.det(mat), 1.0, rtol=0, atol=1e-12)


def test_rotation_taking_antipodal_and_identity():
    a = geo.sphere_point([0.0, 1.0, 0.0, 0.0])
    r_id = geo.rotation_taking(a, a)
    assert np.allclose(r_id.matrix, np.eye(4), rtol=0, atol=1e-12)
    b = geo.sphere_point([0.0, -1.0, 0.0, 0.0])
    r_flip = geo.rotation_taking(a, b)
    assert np.allclose(r_flip.apply(a.coords[None, :])[0], b.coords,
                       rtol=0, atol=1e-12)
    assert np.isclose(np.linalg.det(r_flip.matrix), 1.0, rtol=0, atol=1e-12)


def test_rotation_inverse():
    gen = np.random.default_rng(4)
    a = geo.sphere_point(gen.normal(size=4))
    b = geo.sphere_point(gen.normal(size=4))
    rot = geo.rotation_taking(a, b)
    pts = geo.sample_uniform_many(3, 32, gen)
    assert np.allclose(rot.inverse().apply(rot.apply(pts)), pts,
                       rtol=0, atol=1e-12)


def test_cap_and_shell_measures_tile_the_sphere():
    for m in (2, 3):
        # full cap is the whole sphere
        assert np.isclose(geo.cap_area(m, np.pi), geo.sphere_area(m),
                          rtol=1e-14, atol=0)
        # dyadic shells plus the innermost cap tile the sphere exactly
        edges = np.pi * 2.0 ** (-np.arange(41, dtype=float))
        total = sum(geo.shell_measure(m, float(edges[j + 1]), float(edges[j]))
                    for j in range(40))
        total += geo.cap_area(m, float(edges[-1]))
        assert np.isclose(total, geo.sphere_area(m), rtol=1e-12, atol=0)


def test_thin_cap_measure_stays_positive():
    # the naive formulas cancel to zero here; the stable forms must not
    for m in (2, 3):
        assert geo.cap_area(m, 1e-10) > 0.0
        assert geo.shell_measure(m, 1e-10, 2e-10) > 0.0


def test_sample_shell_radii_bounds_and_distribution():
    gen = np.random.default_rng(5)
    for m in (2, 3):
        for t0, t1 in ((0.0, np.pi), (0.3, 0.7),
                       (np.pi * 2.0 ** -30, np.pi * 2.0 ** -29)):
            t = geo.sample_shell_radii(m, t0, t1, 4000, gen)
            assert np.all(t >= t0) and np.all(t <= t1)
            assert np.all(np.isfinite(t))
            # median matches the CDF midpoint of the sin^(m-1) law
            mid = float(np.median(t))
            frac = geo.shell_measure(m, t0, mid) / geo.shell_measure(m, t0, t1)
            assert abs(frac - 0.5) < 0.05


def _shell_cdf(m, t):
    """Unnormalised CDF of the sin^(m-1) radius law, stable near zero."""
    t = np.asarray(t, dtype=np.float64)
    if m == 2:
        return 2.0 * np.sin(0.5 * t) ** 2
    return np.where(t < 5e-3, geo._f3_series(t), t - np.sin(t) * np.cos(t))


@pytest.mark.parametrize("m", [2, 3])
def test_sample_shell_radii_inverts_the_cdf_on_every_dyadic_shell(m):
    # each radius must map back to its own uniform, not just match in law
    gen = np.random.default_rng(8)
    edges = np.pi * 2.0 ** -np.arange(41.0)
    for j in range(40):
        t1, t0 = edges[j], edges[j + 1]
        u = copy.deepcopy(gen).random(2000)
        t = geo.sample_shell_radii(m, t0, t1, 2000, gen)
        assert np.all((t >= t0) & (t <= t1)), f"shell {j} left [t0, t1]"
        f0, f1 = _shell_cdf(m, t0), _shell_cdf(m, t1)
        frac = (_shell_cdf(m, t) - f0) / (f1 - f0)
        err = float(np.max(np.abs(frac - u)))
        assert err < 1e-9, f"shell {j}: CDF residual {err:.1e}"


@pytest.mark.parametrize("m", [2, 3])
def test_per_row_shell_bounds_match_scalar_calls_bit_for_bit(m):
    # one call with per-row bounds, as a block of pieces makes it, against
    # one scalar call per piece on the same uniforms. [pi/sqrt 2, pi] and
    # [pi/2, pi/sqrt 2] take the mirror branch (t0 >= pi/2), as does
    # [1.9, 2.6]; [0.3, 0.7] and [0.3, 0.5] share t0 only, and the last is
    # the thinnest of the 80 shells of ratio sqrt 2
    edges = np.pi * 2.0 ** (-0.5 * np.arange(81))
    shells = [(edges[1], edges[0]), (edges[2], edges[1]), (edges[3], edges[2]),
              (0.3, 0.7), (0.3, 0.5), (1.9, 2.6), (edges[41], edges[40]),
              (edges[80], edges[79])]
    sizes = [5, 300, 1, 64, 33, 129, 7, 250]
    gen = np.random.default_rng(9)
    u = [gen.random(n) for n in sizes]
    t0, t1 = (np.repeat(bound, sizes) for bound in zip(*shells))
    block = geo.sample_shell_radii(m, t0, t1, sum(sizes), np.concatenate(u))
    alone = np.concatenate([geo.sample_shell_radii(m, lo, hi, n, v)
                            for (lo, hi), n, v in zip(shells, sizes, u)])
    assert np.array_equal(block, alone)
    assert np.all((block >= t0) & (block <= t1))
    # a Generator gives the radii of the uniforms it draws
    first = geo.sample_shell_radii(m, *shells[0], sizes[0], np.random.default_rng(9))
    assert np.array_equal(first, alone[:sizes[0]])


def _f3_longdouble(t):
    """t - sin t cos t in 80-bit arithmetic; the series of (x - sin x)/2,
    x = 2t, up to pi/4, where the direct form would cancel."""
    t = np.asarray(t, dtype=np.longdouble)
    y = 4 * t * t
    acc = np.zeros_like(t)
    for k in range(15, -1, -1):
        acc = acc * y + np.longdouble((-1) ** k) / math.factorial(2 * k + 3)
    return np.where(t <= np.pi / 4, 4 * t ** 3 * acc, t - np.sin(t) * np.cos(t))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs 80-bit long double")
def test_sample_shell_radii_m3_match_a_longdouble_inverse():
    # shells 0-9 invert by Newton; each radius must be the exact inverse of
    # its own uniform to 1e-15 relative, near pi and near zero alike
    gen = np.random.default_rng(8)
    edges = np.pi * 2.0 ** -np.arange(11.0)
    for j in range(10):
        t1, t0 = edges[j], edges[j + 1]
        u = copy.deepcopy(gen).random(2000).astype(np.longdouble)
        t = geo.sample_shell_radii(3, t0, t1, 2000, gen)
        f0, f1 = _f3_longdouble(t0), _f3_longdouble(t1)
        target = f0 + u * (f1 - f0)
        ref = t.astype(np.longdouble)
        for _ in range(4):
            ref -= (_f3_longdouble(ref) - target) / (2 * np.sin(ref) ** 2)
        err = float(np.max(np.abs((t - ref) / ref)))
        assert err <= 1e-15, f"shell {j}: relative error {err:.1e}"


def test_f3_start_is_within_1e9_of_the_inverse():
    # the polynomial start of _f3_inverse, before its one Newton step
    t = np.linspace(0.0, 0.5 * np.pi, 100_001)[1:]
    s = np.cbrt(1.5 * geo._f3(t))
    start = s * np.polynomial.polynomial.polyval(s * s, geo._F3_START)
    assert np.max(np.abs(start - t) / t) < 1e-9


def test_sample_uniform_many_is_centered():
    pts = geo.sample_uniform_many(3, 40_000, np.random.default_rng(6))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.max(np.abs(pts.mean(axis=0))) < 0.02


def test_tangent_directions_are_unit_and_orthogonal():
    gen = np.random.default_rng(7)
    pts = geo.sample_uniform_many(3, 500, gen)
    dirs = geo.tangent_directions(pts, gen)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.max(np.abs(np.sum(dirs * pts, axis=1))) < 1e-12


def test_tangent_directions_of_a_vanishing_projection_are_tangent():
    # normals along the points project to zero (probability zero for drawn
    # normals): those rows take a vector of the tangent frame
    for m in (2, 3):
        pts = geo.sample_uniform_many(m, 50, np.random.default_rng(10))
        dirs = geo.tangent_directions(pts, 2.0 * pts)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(np.einsum("ij,ij->i", dirs, pts), 0.0, rtol=0, atol=1e-14)


def test_geodesic_step_moves_the_right_distance():
    gen = np.random.default_rng(8)
    pts = geo.sample_uniform_many(2, 200, gen)
    dirs = geo.tangent_directions(pts, gen)
    stepped = geo.geodesic_step(pts, dirs, np.full(200, 0.4))
    d = np.arccos(np.clip(np.sum(stepped * pts, axis=1), -1.0, 1.0))
    assert np.allclose(d, 0.4, rtol=0, atol=1e-12)


def test_lattices_are_unit_and_separated():
    for make, m in ((geo.fibonacci_lattice_s2, 2),
                    (geo.kronecker_lattice_s3, 3)):
        pts = make(512)
        assert pts.shape == (512, m + 1)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)
        # low-discrepancy sets on S^m separate at roughly k^(-1/m)
        assert geo.min_center_separation(pts) > 0.1 * 512 ** (-1.0 / m)


def test_s3_lattice_fills_caps_in_proportion():
    # the share of lattice points in a cap of radius r tends to its measure
    # share (2r - sin 2r) / 2 pi; the plastic constant's steps put the
    # lattice on a 2-D surface, where 50 caps of radius 0.7 read up to 0.12
    # off at every size
    centers = geo.sample_uniform_many(3, 50, np.random.default_rng(5))
    r = 0.7
    share = (2.0 * r - math.sin(2.0 * r)) / (2.0 * math.pi)
    errors = []
    for k in (1_000, 16_000):
        hits = geo.kronecker_lattice_s3(k) @ centers.T >= math.cos(r)
        errors.append(float(np.max(np.abs(hits.mean(axis=0) - share))))
    assert errors[0] <= 0.015 and errors[1] <= 0.004, errors


def test_sphere_lattice_dispatch():
    assert geo.sphere_lattice(2, 64).shape == (64, 3)
    assert geo.sphere_lattice(3, 64).shape == (64, 4)
    with pytest.raises(ParameterError):
        geo.sphere_lattice(4, 64)


def test_pack_disjoint_balls_disjoint():
    for k in (1, 2, 5, 9, 25, 100):
        balls = geo.pack_disjoint_balls(k)
        assert len(balls) == k
        centers = np.array([b.center.coords for b in balls])
        if k > 1:
            assert geo.min_center_separation(centers) > 2.0 * balls[0].radius


def test_pack_disjoint_balls_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        geo.pack_disjoint_balls(0)
    with pytest.raises(ParameterError):
        geo.pack_disjoint_balls(4, safety=1.0)


def test_geodesic_ball_validation():
    with pytest.raises(ParameterError):
        geo.GeodesicBall(geo.sphere_point([1.0, 0.0, 0.0]), np.pi + 0.1)
